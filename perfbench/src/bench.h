#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/// \file bench.h
/// Shared pieces of the libfreq end-to-end benchmark: command-line options,
/// the in-memory span tracer, sample statistics, telemetry deltas, the
/// exact oracle and the metric sheet every workload fills in.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/instruments.h"
#include "stream/update.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Multiplies every input size (the smoke test runs at a tiny scale).
    double scale = 1.0;
    /// Adds a wrong count to the exact oracle so the check must fail.
    bool perturb_oracle = false;
    /// Where the traced run writes its spans (one JSON line per span).
    std::string trace_dir;
};

// --- spans --------------------------------------------------------------------

/// Records named spans (start, end, parent) in memory; written out when the
/// run ends. Disabled tracers record nothing and cost one branch per scope.
class tracer {
public:
    struct span {
        const char* name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    };

    class scope {
    public:
        scope(tracer* t, const char* name);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer* t_;
        std::int32_t index_ = -1;
    };

    tracer() : origin_(clock_type::now()) {}

    void enable(bool on) { on_ = on; }
    bool enabled() const noexcept { return on_; }

    /// Opens a span that closes when the returned scope is destroyed.
    scope open(const char* name) { return scope(on_ ? this : nullptr, name); }

    const std::vector<span>& spans() const noexcept { return spans_; }

    /// Durations (ns) of every closed span called \p name.
    std::vector<double> durations_ns(std::string_view name) const;
    /// Sum of durations (ns) of every span called \p name.
    double total_ns(std::string_view name) const;

    /// Writes one JSON object per span (name, start, end, parent, self) to
    /// \p path and returns the per-name self-time summary, largest first.
    std::vector<std::pair<std::string, double>> write(const std::string& path) const;

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - origin_)
            .count();
    }

    bool on_ = false;
    clock_type::time_point origin_;
    std::vector<span> spans_;
    std::int32_t open_ = -1;
};

// --- statistics ---------------------------------------------------------------

/// Sample quantile (linear interpolation between order statistics).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

// --- telemetry ----------------------------------------------------------------

/// The library's telemetry families read at one instant; subtracting two
/// readings gives what happened between them.
struct telemetry_reading {
    std::unordered_map<std::string, double> counters;
    std::unordered_map<std::string, freq::obs::histogram_snapshot> histograms;

    static telemetry_reading take();
    double counter(const std::string& family) const;
    freq::obs::histogram_snapshot histogram(const std::string& family) const;
};

/// after − before, family by family.
telemetry_reading delta(const telemetry_reading& before, const telemetry_reading& after);

// --- exact oracle ---------------------------------------------------------------

/// Exact weighted counts of one stream plus the key sets the check probes.
template <typename Key>
struct exact_counts {
    std::unordered_map<Key, std::uint64_t> counts;
    double total = 0.0;
    std::vector<Key> top;     ///< keys by descending count (top 1000)
    std::vector<Key> sample;  ///< seeded sample of the remaining keys
};

exact_counts<std::uint64_t> exact_of(std::span<const freq::update64> stream,
                                     std::uint64_t seed);
/// Text keys: keys[i] carries weights[i].weight.
exact_counts<std::string_view> exact_of(std::span<const std::string_view> keys,
                                        std::span<const freq::update64> weights,
                                        std::uint64_t seed);

/// The bounds a summary reports, behind callables so the oracle is shared
/// by every key kind and every layer.
template <typename Key>
struct reported {
    std::function<double(const Key&)> lower;
    std::function<double(const Key&)> upper;
    double max_error = 0.0;
    double total_weight = 0.0;
    std::vector<Key> nfn;    ///< frequent_items(no_false_negatives, phi·N)
    std::vector<Key> nfp;    ///< frequent_items(no_false_positives, phi·N)
    std::vector<Key> top100; ///< top_items(100)
    /// Every row the reports returned, with the row's own bounds: its key
    /// (for text, its spelling) must occur in the stream and its bounds
    /// must bracket the key's exact count.
    struct row {
        Key key;
        double lower;
        double upper;
    };
    std::vector<row> rows;
};

struct check_result {
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
    double recall = 0.0;  ///< share of the exact top-100 found in top100
    double max_error_rel = 0.0;  ///< reported maximum_error / N
    std::vector<std::string> messages;
};

/// The heavy-hitter threshold of every report is phi·N.
inline constexpr double report_phi = 1e-3;

/// Compares one summary against the exact counts: lower ≤ f ≤ upper and
/// |estimate − f| ≤ max_error on the top keys and the sample, NFN returns
/// every key above phi·N, NFP returns none at or below it, N matches, and
/// every returned row names a key of the stream with bracketing bounds.
template <typename Key>
check_result check_against(const exact_counts<Key>& exact, const reported<Key>& rep);

extern template check_result check_against(const exact_counts<std::uint64_t>&,
                                           const reported<std::uint64_t>&);
extern template check_result check_against(const exact_counts<std::string_view>&,
                                           const reported<std::string_view>&);

/// Makes the oracle wrong on purpose: the heaviest key's count grows far
/// beyond any bound a summary could report.
template <typename Key>
void perturb(exact_counts<Key>& exact) {
    if (!exact.top.empty()) {
        exact.counts[exact.top.front()] += static_cast<std::uint64_t>(exact.total) + 1;
    }
}

// --- metric sheet -------------------------------------------------------------

struct metric {
    std::string name;
    double value;
    std::string unit;
};

struct run_result {
    std::vector<metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Human-readable lines printed before the result (sample counts,
    /// input sizes, the tail percentile used).
    std::vector<std::string> notes;

    void set(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

// --- template-layer replays (layers.cpp) ----------------------------------------

/// ns per update of the template-layer sketch's update(span) at capacity
/// \p k over \p stream, fed in runs of \p run updates; median of \p reps.
/// Also reports the report time and the table probe time measured on the
/// final tracked set.
struct core_replay {
    double update_ns = 0.0;
    double report_us = 0.0;
    double find_ns = 0.0;  ///< counter_table::find_batch over the key sequence
};
core_replay replay_core(std::span<const freq::update64> stream, std::uint32_t k,
                        std::uint64_t seed, std::size_t run, int reps, tracer& tr);

/// ns per update of the standalone fingerprint (text) sketch, per item.
struct text_replay {
    double update_ns = 0.0;
    double report_us = 0.0;
};
text_replay replay_core_text(std::span<const std::string_view> keys,
                             std::span<const freq::update64> weights, std::uint32_t k,
                             std::uint64_t seed, int reps, tracer& tr);

/// µs per template-layer Algorithm 5 merge of \p nodes (each a stream
/// summarized at capacity \p k with seed base + i) into one aggregate.
double replay_core_merge(const std::vector<std::span<const freq::update64>>& nodes,
                         std::uint32_t k, std::uint64_t seed_base, int reps, tracer& tr);

// --- workloads (workloads.cpp) --------------------------------------------------

run_result run_workload(const options& opt, tracer& tr);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
