#ifndef FREQ_TELEMETRY_ENTROPY_MONITOR_H
#define FREQ_TELEMETRY_ENTROPY_MONITOR_H

/// \file entropy_monitor.h
/// Streaming entropy with certified intervals and shift alarms, on the
/// engine. The estimator is the Chakrabarti–Cormode–McGregor scheme
/// (plug-in entropy of the tracked heavy hitters plus analytic brackets on
/// the untracked residual) computed over published façade views: every
/// interval is computed from ONE `result_set` — a single snapshot of the
/// sharded engine (the cached async-service view when enabled) — so the
/// mass, error envelope and per-item counts can never straddle a republish.
///
/// Residual bounds, generalized beyond unit weights so the fading policy
/// stays certified: with residual mass R = N − Σ tracked lower bounds
/// spread over at most m distinct untracked keys,
///
///   residual entropy ≤ (R/N)·log2(N·m/R)        (equal-split maximum)
///   residual entropy ≥ (R/N)·log2(N/maxerr)     (each untracked ≤ maxerr)
///
/// The unit-weight bound m ≤ R only holds for plain counts; here m is
/// additionally capped by the monitor's own raw update count, which is
/// valid under any lifetime policy (decay never mints new keys). A slack
/// of k·(maxerr/N)·log2 N absorbs sketch error on the tracked plug-in term
/// and is applied to BOTH endpoints: subtracting it only from the lower
/// bound would leave the upper side fallible once a dominant flow carries
/// more than 1/e of the mass, which is exactly the DDoS regime this
/// monitor watches.
///
/// On top of the interval sits an EWMA-smoothed baseline: each observe()
/// compares the point estimate against the baseline and raises `collapse`
/// (entropy dropped — traffic concentrating, the classic DDoS signature)
/// or `spike` (entropy jumped — e.g. address-spoofed scatter) when the gap
/// exceeds the configured thresholds in bits. Alarms increment
/// `freq_entropy_alarm_total`.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>

#include "api/builder.h"
#include "api/result_set.h"
#include "api/summarizer.h"
#include "common/contracts.h"
#include "obs/pipeline_metrics.h"

namespace freq::telemetry {

/// A certified entropy interval, in bits: lower ≤ H(stream) ≤ upper up to
/// the documented slack; `point` is the midpoint-residual estimate used by
/// the shift detector.
struct entropy_interval {
    double lower = 0.0;
    double upper = 0.0;
    double point = 0.0;
};

enum class entropy_alarm { none, collapse, spike };

inline const char* to_string(entropy_alarm a) {
    switch (a) {
        case entropy_alarm::collapse: return "collapse";
        case entropy_alarm::spike: return "spike";
        default: return "none";
    }
}

/// One observe() outcome: the interval, the EWMA baseline it was compared
/// against (as of before this sample folded in), and the alarm verdict.
struct entropy_observation {
    entropy_interval interval;
    double baseline = 0.0;
    entropy_alarm alarm = entropy_alarm::none;
};

struct entropy_monitor_config {
    std::uint32_t max_counters = 1024;
    std::uint64_t seed = 0;
    std::uint32_t shards = 1;
    std::uint32_t producers = 1;
    /// > 0 enables the async snapshot service; estimates then read the
    /// cached published view.
    std::chrono::microseconds snapshot_every{0};

    lifetime_kind lifetime = lifetime_kind::plain;
    double decay = 0.97;          ///< fading only
    std::uint32_t window_epochs = 4;  ///< windowed only

    // --- shift-detector knobs ----------------------------------------------
    double ewma_alpha = 0.125;           ///< baseline smoothing weight
    double collapse_threshold_bits = 1.0;  ///< alarm when point < baseline − this
    double spike_threshold_bits = 1.0;     ///< alarm when point > baseline + this
    std::uint32_t warmup_samples = 3;      ///< observations before alarms may fire
};

/// Computes the certified interval from a single façade view. `weights` is
/// the summary's weight kind (tightens the distinct-key cap for counts);
/// `max_distinct` is an upper bound on distinct keys ever ingested (the
/// monitor passes its raw update count; ~0 means "unknown").
inline entropy_interval certified_entropy(const result_set& rs, weight_kind weights,
                                          std::uint64_t max_distinct) {
    entropy_interval out;
    const double n = rs.total_weight();
    if (!(n > 0.0)) return out;
    const double maxerr = rs.maximum_error();

    double heavy_bits = 0.0;
    double tracked_mass = 0.0;
    for (const result_row& r : rs.rows()) {
        const double p = std::min(r.estimate, n) / n;
        if (p > 0.0) heavy_bits -= p * std::log2(p);
        tracked_mass += r.lower_bound;
    }

    const double residual = std::max(0.0, n - tracked_mass);
    double res_upper = 0.0;
    double res_lower = 0.0;
    if (residual > 0.0) {
        double m = max_distinct == 0 ? residual
                                     : static_cast<double>(max_distinct);
        if (weights == weight_kind::counts) m = std::min(m, residual);
        m = std::max(1.0, m);
        res_upper = (residual / n) * std::log2(std::max(1.0, n * m / residual));
        res_lower = maxerr > 0.0
                        ? (residual / n) * std::log2(std::max(1.0, n / maxerr))
                        : res_upper;
        res_lower = std::min(res_lower, res_upper);
    }

    const double slack = (n > 1.0 && maxerr > 0.0)
                             ? static_cast<double>(rs.rows().size()) *
                                   (maxerr / n) * std::log2(n)
                             : 0.0;

    out.upper = heavy_bits + res_upper + slack;
    out.lower = std::max(0.0, heavy_bits + res_lower - slack);
    out.point = std::clamp(heavy_bits + 0.5 * (res_lower + res_upper),
                           out.lower, out.upper);
    return out;
}

/// Engine-backed entropy monitor. Ingestion (update / feeders) is
/// concurrent like any sharded summarizer; estimate() is safe alongside
/// ingestion; observe() mutates the EWMA baseline and must be called from
/// one observer thread.
class entropy_monitor {
public:
    explicit entropy_monitor(entropy_monitor_config cfg) : cfg_(std::move(cfg)) {
        FREQ_REQUIRE(cfg_.ewma_alpha > 0.0 && cfg_.ewma_alpha <= 1.0,
                     "ewma_alpha must lie in (0, 1]");
        builder b;
        b.u64_keys()
            .max_counters(cfg_.max_counters)
            .seed(cfg_.seed)
            .sharded(cfg_.shards, cfg_.producers);
        switch (cfg_.lifetime) {
            case lifetime_kind::plain: b.counts().plain(); break;
            case lifetime_kind::fading: b.fading(cfg_.decay); break;
            case lifetime_kind::windowed:
                b.counts().sliding_window(cfg_.window_epochs);
                break;
        }
        if (cfg_.snapshot_every.count() > 0) b.snapshot_every(cfg_.snapshot_every);
        summary_ = b.build();
    }

    void update(std::uint64_t id, double weight = 1.0) {
        summary_.update(id, weight);
        updates_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Concurrent ingestion handle; wraps an engine producer and keeps the
    /// monitor's distinct-key cap (raw update count) honest.
    class feeder {
    public:
        void push(std::uint64_t id, double weight = 1.0) {
            inner_.push(id, weight);
            updates_->fetch_add(1, std::memory_order_relaxed);
        }
        void flush() { inner_.flush(); }

    private:
        friend class entropy_monitor;
        feeder(summarizer::feeder inner, std::atomic<std::uint64_t>* updates)
            : inner_(std::move(inner)), updates_(updates) {}
        summarizer::feeder inner_;
        std::atomic<std::uint64_t>* updates_;
    };

    feeder make_feeder() { return feeder(summary_.make_feeder(), &updates_); }

    void flush() { summary_.flush(); }
    void tick(std::uint64_t epochs = 1) { summary_.tick(epochs); }

    /// The certified interval from one published view.
    entropy_interval estimate() const {
        const result_set rs =
            summary_.frequent_items(error_mode::no_false_negatives, 0.0);
        return certified_entropy(rs, summary_.descriptor().weights,
                                 updates_.load(std::memory_order_relaxed));
    }

    /// Samples the entropy, folds it into the EWMA baseline, and reports
    /// whether the sample shifted away from the baseline by more than the
    /// configured thresholds. The first `warmup_samples` observations only
    /// train the baseline.
    entropy_observation observe() {
        entropy_observation obs;
        obs.interval = estimate();
        if (samples_ == 0) {
            baseline_ = obs.interval.point;
        } else if (samples_ >= cfg_.warmup_samples) {
            if (obs.interval.point < baseline_ - cfg_.collapse_threshold_bits)
                obs.alarm = entropy_alarm::collapse;
            else if (obs.interval.point > baseline_ + cfg_.spike_threshold_bits)
                obs.alarm = entropy_alarm::spike;
        }
        obs.baseline = baseline_;
        baseline_ = cfg_.ewma_alpha * obs.interval.point +
                    (1.0 - cfg_.ewma_alpha) * baseline_;
        ++samples_;
        if (obs.alarm != entropy_alarm::none) obs::pipeline().entropy_alarms.add(1);
        return obs;
    }

    double baseline() const noexcept { return baseline_; }
    std::uint64_t samples() const noexcept { return samples_; }
    std::uint64_t raw_updates() const noexcept {
        return updates_.load(std::memory_order_relaxed);
    }
    const summarizer& summary() const noexcept { return summary_; }
    const entropy_monitor_config& cfg() const noexcept { return cfg_; }

private:
    entropy_monitor_config cfg_;
    summarizer summary_;
    std::atomic<std::uint64_t> updates_{0};
    double baseline_ = 0.0;
    std::uint64_t samples_ = 0;
};

}  // namespace freq::telemetry

#endif  // FREQ_TELEMETRY_ENTROPY_MONITOR_H
