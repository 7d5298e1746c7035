// Tracer, statistics, telemetry deltas and the exact oracle of the benchmark.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_set>

#include "bench.h"
#include "obs/registry.h"
#include "random/xoshiro.h"

namespace perfbench {

// --- spans --------------------------------------------------------------------

tracer::scope::scope(tracer* t, const char* name) : t_(t) {
    if (t_ == nullptr) {
        return;
    }
    index_ = static_cast<std::int32_t>(t_->spans_.size());
    t_->spans_.push_back({name, t_->now_ns(), -1, t_->open_});
    t_->open_ = index_;
}

tracer::scope::~scope() {
    if (t_ == nullptr) {
        return;
    }
    t_->spans_[static_cast<std::size_t>(index_)].end_ns = t_->now_ns();
    t_->open_ = t_->spans_[static_cast<std::size_t>(index_)].parent;
}

std::vector<double> tracer::durations_ns(std::string_view name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
        if (s.end_ns >= 0 && name == s.name) {
            out.push_back(static_cast<double>(s.end_ns - s.start_ns));
        }
    }
    return out;
}

double tracer::total_ns(std::string_view name) const {
    double sum = 0.0;
    for (const double d : durations_ns(name)) {
        sum += d;
    }
    return sum;
}

std::vector<std::pair<std::string, double>> tracer::write(const std::string& path) const {
    // Self time = duration minus the part covered by direct children. A
    // child runs inside its parent on the same thread, so children never
    // overlap each other and their durations simply add up.
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_) {
        if (s.parent >= 0) {
            child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        }
    }
    std::unordered_map<std::string, double> self_by_name;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
        self_by_name[s.name] += static_cast<double>(self);
        if (out) {
            out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
                << ",\"self_ns\":" << self << "}\n";
        }
    }
    std::vector<std::pair<std::string, double>> summary(self_by_name.begin(),
                                                        self_by_name.end());
    std::sort(summary.begin(), summary.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return summary;
}

// --- statistics ---------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
    if (v.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double x : v) {
        sum += x;
    }
    return sum / static_cast<double>(v.size());
}

// --- telemetry ----------------------------------------------------------------

telemetry_reading telemetry_reading::take() {
    telemetry_reading r;
    for (const auto& fam : freq::obs::registry::global().collect().families) {
        for (const auto& s : fam.samples) {
            if (fam.kind == freq::obs::instrument_kind::histogram) {
                // Labelled histograms (per-verb façade latencies) are not
                // read here; only the first sample of a family is kept.
                r.histograms.emplace(fam.name, s.hist);
            } else {
                r.counters[fam.name] += s.value;
            }
        }
    }
    return r;
}

double telemetry_reading::counter(const std::string& family) const {
    const auto it = counters.find(family);
    return it == counters.end() ? 0.0 : it->second;
}

freq::obs::histogram_snapshot telemetry_reading::histogram(const std::string& family) const {
    const auto it = histograms.find(family);
    return it == histograms.end() ? freq::obs::histogram_snapshot{} : it->second;
}

telemetry_reading delta(const telemetry_reading& before, const telemetry_reading& after) {
    telemetry_reading d;
    for (const auto& [name, v] : after.counters) {
        d.counters[name] = v - before.counter(name);
    }
    for (const auto& [name, h] : after.histograms) {
        const auto b = before.histogram(name);
        auto& out = d.histograms[name];
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            out.buckets[i] = h.buckets[i] - b.buckets[i];
        }
        out.count = h.count - b.count;
        out.sum = h.sum - b.sum;
        out.max = h.max;  // a running max has no delta; the later max bounds it
    }
    return d;
}

// --- exact oracle ---------------------------------------------------------------

namespace {

constexpr std::size_t top_keys = 1000;
constexpr std::size_t sample_keys = 1000;

template <typename Key>
void finish_exact(exact_counts<Key>& e, std::uint64_t seed) {
    std::vector<std::pair<std::uint64_t, Key>> by_count;
    by_count.reserve(e.counts.size());
    for (const auto& [k, c] : e.counts) {
        by_count.emplace_back(c, k);
    }
    const std::size_t m = std::min(top_keys, by_count.size());
    std::partial_sort(by_count.begin(), by_count.begin() + static_cast<std::ptrdiff_t>(m),
                      by_count.end(), [](const auto& a, const auto& b) {
                          return a.first != b.first ? a.first > b.first : a.second < b.second;
                      });
    for (std::size_t i = 0; i < m; ++i) {
        e.top.push_back(by_count[i].second);
    }
    // The sample draws from the rest in a seeded order, independent of the
    // hash map's iteration order.
    std::sort(by_count.begin() + static_cast<std::ptrdiff_t>(m), by_count.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    freq::xoshiro256ss rng(seed ^ 0x5a17u);
    const std::size_t rest = by_count.size() - m;
    for (std::size_t i = 0; i < sample_keys && rest > 0; ++i) {
        e.sample.push_back(by_count[m + rng.below(rest)].second);
    }
}

}  // namespace

exact_counts<std::uint64_t> exact_of(std::span<const freq::update64> stream,
                                     std::uint64_t seed) {
    exact_counts<std::uint64_t> e;
    for (const auto& u : stream) {
        e.counts[u.id] += u.weight;
        e.total += static_cast<double>(u.weight);
    }
    finish_exact(e, seed);
    return e;
}

exact_counts<std::string_view> exact_of(std::span<const std::string_view> keys,
                                        std::span<const freq::update64> weights,
                                        std::uint64_t seed) {
    exact_counts<std::string_view> e;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        e.counts[keys[i]] += weights[i].weight;
        e.total += static_cast<double>(weights[i].weight);
    }
    finish_exact(e, seed);
    return e;
}

template <typename Key>
check_result check_against(const exact_counts<Key>& exact, const reported<Key>& rep) {
    check_result r;
    auto fail = [&](std::string msg) {
        ++r.violations;
        if (r.messages.size() < 5) {
            r.messages.push_back(std::move(msg));
        }
    };
    auto count_of = [&](const Key& k) -> double {
        const auto it = exact.counts.find(k);
        return it == exact.counts.end() ? 0.0 : static_cast<double>(it->second);
    };

    ++r.checks;
    if (rep.total_weight != exact.total) {
        fail("N differs from the exact stream weight");
    }
    auto bracket = [&](const Key& k) {
        const double f = count_of(k);
        const double lo = rep.lower(k);
        const double hi = rep.upper(k);
        ++r.checks;
        if (!(lo <= f && f <= hi)) {
            fail("bounds do not bracket the exact count");
        }
        ++r.checks;
        if (hi - f > rep.max_error || f - lo > rep.max_error) {
            fail("error exceeds the reported maximum_error");
        }
    };
    for (const auto& k : exact.top) {
        bracket(k);
    }
    for (const auto& k : exact.sample) {
        bracket(k);
    }

    const double threshold = report_phi * exact.total;
    std::unordered_set<Key> nfn(rep.nfn.begin(), rep.nfn.end());
    for (const auto& k : exact.top) {
        if (count_of(k) > threshold) {
            ++r.checks;
            if (nfn.count(k) == 0) {
                fail("no_false_negatives result misses a heavy hitter");
            }
        }
    }
    for (const auto& k : rep.nfp) {
        ++r.checks;
        if (count_of(k) <= threshold) {
            fail("no_false_positives result holds a key at or below the threshold");
        }
    }

    for (const auto& row : rep.rows) {
        ++r.checks;
        const auto it = exact.counts.find(row.key);
        if (it == exact.counts.end()) {
            fail("a returned row names a key the stream never held");
        } else if (!(row.lower <= static_cast<double>(it->second) &&
                     static_cast<double>(it->second) <= row.upper)) {
            fail("a returned row's bounds do not bracket its exact count");
        }
    }

    std::unordered_set<Key> top100(rep.top100.begin(), rep.top100.end());
    const std::size_t want = std::min<std::size_t>(100, exact.top.size());
    std::size_t found = 0;
    for (std::size_t i = 0; i < want; ++i) {
        found += top100.count(exact.top[i]);
    }
    r.max_error_rel = rep.total_weight > 0.0 ? rep.max_error / rep.total_weight : 0.0;
    r.recall = want == 0 ? 1.0 : static_cast<double>(found) / static_cast<double>(want);
    return r;
}

template check_result check_against(const exact_counts<std::uint64_t>&,
                                    const reported<std::uint64_t>&);
template check_result check_against(const exact_counts<std::string_view>&,
                                    const reported<std::string_view>&);

}  // namespace perfbench
