// The four workloads. Each drives libfreq's public API the way one of the
// repository's programs does, in rounds: set up a summarizer, feed it the
// seeded input, report, check the answer against the exact oracle. Only the
// set-up, the ingest and the reports are timed.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/builder.h"
#include "bench.h"
#include "random/xoshiro.h"
#include "stream/generators.h"

namespace perfbench {

namespace {

constexpr std::size_t report_top = 100;

/// The latency tail every workload reports. A run holds at least ~100
/// report and view-lag samples, so p90 has ten or more samples beyond it;
/// p99 of the live workload's four threads on a shared 4-vCPU host tracks
/// scheduler hiccups more than the library.
constexpr double tail_q = 0.90;

// --- memory -----------------------------------------------------------------

/// Reads a "<Field>: <n> kB" line of /proc/self/status, in bytes.
double status_bytes(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string want = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.compare(0, want.size(), want) == 0) {
            std::istringstream rest(line.substr(want.size()));
            double kb = 0.0;
            rest >> kb;
            return kb * 1024.0;
        }
    }
    return 0.0;
}

/// Peak resident growth over one round. start() hands freed heap pages
/// back to the kernel and resets VmHWM through clear_refs, so the peak
/// counts what the round itself touches, not the input generation or
/// memory an earlier round left in the allocator's free lists.
class memory_meter {
public:
    void start() {
        malloc_trim(0);
        std::ofstream("/proc/self/clear_refs") << "5";
        base_ = status_bytes("VmRSS");
    }
    double growth_mb() const { return (status_bytes("VmHWM") - base_) / (1024.0 * 1024.0); }

private:
    double base_ = 0.0;
};

// --- rounds -----------------------------------------------------------------

/// What one round measured.
struct round_sample {
    double rate = 0.0;     ///< updates absorbed per second
    double setup_s = 0.0;  ///< build() until ready
    std::vector<double> query_us;
    std::vector<double> lag_ms;
    double memory_mb = 0.0;
    std::uint64_t operations = 0;
    check_result check;
    bool traced = false;
};

/// One report as every workload issues it: the top 100 plus every
/// φ-heavy hitter under the no-false-negatives guarantee.
struct report {
    freq::result_set top;
    freq::result_set heavy;
    double latency_us = 0.0;
    clock_type::time_point done;
};

report issue_report(const freq::summarizer& s, tracer& tr, const char* span_name) {
    auto sp = tr.open(span_name);
    report r;
    const auto t0 = clock_type::now();
    {
        auto t = tr.open("api.top_items");
        r.top = s.top_items(report_top);
    }
    {
        auto t = tr.open("api.frequent_items");
        r.heavy = s.frequent_items(freq::error_mode::no_false_negatives,
                                   report_phi * r.top.total_weight());
    }
    r.done = clock_type::now();
    r.latency_us = std::chrono::duration<double, std::micro>(r.done - t0).count();
    return r;
}

double ms_between(clock_type::time_point a, clock_type::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Checks a standalone summary (a sharded one's snapshot()) against the
/// exact counts. Key extracts the oracle's key from a result row.
template <typename Key, typename KeyOf>
check_result check_summary(const freq::summarizer& s, const exact_counts<Key>& exact,
                           KeyOf key_of) {
    const double threshold = report_phi * exact.total;
    const auto top = s.top_items(report_top);
    const auto nfn = s.frequent_items(freq::error_mode::no_false_negatives, threshold);
    const auto nfp = s.frequent_items(freq::error_mode::no_false_positives, threshold);
    reported<Key> rep;
    rep.lower = [&](const Key& k) { return s.lower_bound(k); };
    rep.upper = [&](const Key& k) { return s.upper_bound(k); };
    rep.max_error = s.maximum_error();
    rep.total_weight = s.total_weight();
    for (const auto* set : {&top, &nfn, &nfp}) {
        for (const auto& row : *set) {
            rep.rows.push_back({key_of(row), row.lower_bound, row.upper_bound});
        }
    }
    for (const auto& row : top) {
        rep.top100.push_back(key_of(row));
    }
    for (const auto& row : nfn) {
        rep.nfn.push_back(key_of(row));
    }
    for (const auto& row : nfp) {
        rep.nfp.push_back(key_of(row));
    }
    return check_against(exact, rep);
}

check_result check_u64(const freq::summarizer& s, const exact_counts<std::uint64_t>& exact) {
    return check_summary(s, exact, [](const freq::result_row& r) { return r.id; });
}

check_result check_text(const freq::summarizer& s,
                        const exact_counts<std::string_view>& exact) {
    return check_summary(s, exact,
                         [](const freq::result_row& r) { return std::string_view(r.item); });
}

// --- inputs -------------------------------------------------------------------

std::size_t scaled(double n, double scale, std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(n * scale));
}

std::vector<freq::update64> caida_stream(std::size_t n, std::uint64_t seed) {
    freq::caida_like_generator gen(
        {.num_updates = n, .num_flows = 500'000, .alpha = 1.1, .seed = seed});
    return gen.generate();
}

/// Flow ids as dotted-quad text, stored back to back in one buffer.
struct text_keys {
    std::string buffer;
    std::vector<std::string_view> views;

    explicit text_keys(std::span<const freq::update64> stream) {
        std::vector<std::size_t> ends;
        ends.reserve(stream.size());
        for (const auto& u : stream) {
            const auto ip = static_cast<std::uint32_t>(u.id);
            for (int shift = 24; shift >= 0; shift -= 8) {
                buffer += std::to_string((ip >> shift) & 0xffu);
                if (shift > 0) {
                    buffer += '.';
                }
            }
            ends.push_back(buffer.size());
        }
        views.reserve(ends.size());
        std::size_t begin = 0;
        for (const std::size_t end : ends) {
            views.emplace_back(buffer.data() + begin, end - begin);
            begin = end;
        }
    }
};

// --- the shared driver -----------------------------------------------------------

/// A workload: its inputs are built by its constructor (before any timing);
/// round() runs one timed round and checks it.
struct workload {
    explicit workload(std::uint64_t seed) : order_rng_(seed ^ 0x0dde'12a5ULL) {}
    virtual ~workload() = default;
    virtual round_sample round(tracer& tr, memory_meter& mem) = 0;
    /// Template-layer replays and façade replays for the traced run.
    virtual void layers(run_result& out, tracer& tr) = 0;
    /// Updates one round feeds (the throughput numerator).
    virtual std::size_t updates_per_round() const = 0;
    virtual std::uint32_t shards() const { return 0; }
    virtual std::string describe() const = 0;

protected:
    /// Each round feeds the input rotated by a fresh seeded offset: the
    /// multiset of updates, and so the exact answer, stays the same, but
    /// rounds end at different points of the decrement cycle, so the median
    /// over rounds does not hinge on where one seed's stream happens to end.
    std::size_t next_offset(std::size_t n) { return n == 0 ? 0 : order_rng_.below(n); }

    template <typename T>
    static void rotate_into(const std::vector<T>& in, std::size_t offset, std::vector<T>& out) {
        out.resize(in.size());
        std::rotate_copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(offset), in.end(),
                         out.begin());
    }

private:
    freq::xoshiro256ss order_rng_;
};

/// The façade alone on the workload's stream and verb: a standalone
/// summarizer, no spans per call, median of three. Sets api.update_ns,
/// api.overhead_ns over the template-layer figure \p core_ns, and
/// api.report_us.
template <typename Feed>
void facade_layer(run_result& out, const freq::builder& b, std::size_t n, double core_ns,
                  tracer& tr, Feed feed) {
    std::vector<double> ns;
    std::vector<double> rep_us;
    for (int rep = 0; rep < 3; ++rep) {
        auto s = b.build();
        const auto t0 = clock_type::now();
        feed(s);
        ns.push_back(seconds_between(t0, clock_type::now()) * 1e9 / static_cast<double>(n));
        rep_us.push_back(issue_report(s, tr, "api.report").latency_us);
    }
    out.set("api.update_ns", median(ns), "ns");
    out.set("api.overhead_ns", median(ns) - core_ns, "ns");
    out.set("api.report_us", median(rep_us), "us");
}

void count_check(const check_result& c, run_result& out) {
    out.attempted += c.checks;
    out.failed += c.violations;
    for (const auto& m : c.messages) {
        out.notes.push_back("oracle violation: " + m);
    }
}

// --- solo_u64 -------------------------------------------------------------------

class solo_u64 final : public workload {
public:
    explicit solo_u64(const options& opt)
        : workload(opt.seed),
          seed_(opt.seed),
          k_(static_cast<std::uint32_t>(scaled(1u << 15, opt.scale, 1024))),
          stream_(caida_stream(scaled(3'000'000, opt.scale, 20'000), opt.seed)),
          exact_(exact_of(stream_, opt.seed)) {
        if (opt.perturb_oracle) {
            perturb(exact_);
        }
    }

    round_sample round(tracer& tr, memory_meter& mem) override {
        round_sample r;
        rotate_into(stream_, next_offset(stream_.size()), order_);
        mem.start();
        auto root = tr.open("round");
        const auto s0 = clock_type::now();
        std::optional<freq::summarizer> s;
        {
            auto sp = tr.open("api.build");
            s = freq::builder().max_counters(k_).seed(seed_).build();
        }
        const auto t0 = clock_type::now();
        r.setup_s = seconds_between(s0, t0);
        // The whole stream in one update(span) call, as freq_cli sketch
        // feeds a trace when it neither ticks nor prints statistics.
        const std::span<const freq::update64> all(order_);
        {
            auto sp = tr.open("api.update_span");
            s->update(all);
        }
        const auto last_push = clock_type::now();
        {
            auto sp = tr.open("api.flush");
            s->flush();
        }
        r.rate = static_cast<double>(all.size()) / seconds_between(t0, clock_type::now());
        const auto rep = issue_report(*s, tr, "api.report");
        r.query_us.push_back(rep.latency_us);
        r.lag_ms.push_back(ms_between(last_push, rep.done));
        r.memory_mb = mem.growth_mb();
        r.operations = all.size() + 2;
        auto sp = tr.open("oracle.check");
        r.check = check_u64(*s, exact_);
        return r;
    }

    void layers(run_result& out, tracer& tr) override {
        auto sp = tr.open("replay");
        const auto core = replay_core(stream_, k_, seed_, stream_.size(), 3, tr);
        out.set("core.update_ns", core.update_ns, "ns");
        out.set("core.report_us", core.report_us, "us");
        out.set("table.find_ns", core.find_ns, "ns");
        facade_layer(out, freq::builder().max_counters(k_).seed(seed_), stream_.size(),
                     core.update_ns, tr, [&](freq::summarizer& s) {
                         s.update(std::span<const freq::update64>(stream_));
                     });
    }

    std::size_t updates_per_round() const override { return stream_.size(); }
    std::string describe() const override {
        return "solo_u64: standalone k=" + std::to_string(k_) + ", " +
               std::to_string(stream_.size()) +
               " CAIDA-like updates per round in one update(span) call, one final report";
    }

private:
    std::uint64_t seed_;
    std::uint32_t k_;
    std::vector<freq::update64> stream_;
    std::vector<freq::update64> order_;
    exact_counts<std::uint64_t> exact_;
};

// --- live_u64 -------------------------------------------------------------------

class live_u64 final : public workload {
public:
    explicit live_u64(const options& opt)
        : workload(opt.seed),
          seed_(opt.seed),
          stream_(caida_stream(scaled(2'000'000, opt.scale, 20'000), opt.seed)),
          exact_(exact_of(stream_, opt.seed)) {
        if (opt.perturb_oracle) {
            perturb(exact_);
        }
        block_time_.resize((stream_.size() + block - 1) / block);
    }

    round_sample round(tracer& tr, memory_meter& mem) override {
        round_sample r;
        rotate_into(stream_, next_offset(stream_.size()), order_);
        // Cumulative weight at the end of each push-time block, so a view's
        // N locates the newest update it can contain.
        block_weight_.clear();
        double w = 0.0;
        for (std::size_t i = 0; i < order_.size(); ++i) {
            w += static_cast<double>(order_[i].weight);
            if ((i + 1) % block == 0 || i + 1 == order_.size()) {
                block_weight_.push_back(w);
            }
        }
        mem.start();
        auto root = tr.open("round");
        const auto s0 = clock_type::now();
        std::optional<freq::summarizer> s;
        {
            auto sp = tr.open("api.build");
            s = freq::builder()
                    .max_counters(k)
                    .seed(seed_)
                    .sharded(num_shards, 1)
                    .snapshot_every(std::chrono::milliseconds(5))
                    .build();
        }
        const auto t0 = clock_type::now();
        r.setup_s = seconds_between(s0, t0);
        auto feeder = s->make_feeder();
        const std::size_t n = order_.size();
        for (std::size_t i = 0; i < n; i += report_every) {
            const std::size_t end = std::min(n, i + report_every);
            {
                auto sp = tr.open("engine.push");
                for (std::size_t j = i; j < end; ++j) {
                    feeder.push(order_[j].id, static_cast<double>(order_[j].weight));
                    if ((j + 1) % block == 0 || j + 1 == n) {
                        block_time_[j / block] = clock_type::now();
                    }
                }
            }
            const auto rep = issue_report(*s, tr, "api.live_report");
            r.query_us.push_back(rep.latency_us);
            r.lag_ms.push_back(
                ms_between(push_time_of(rep.top.total_weight(), end, t0), rep.done));
        }
        {
            auto sp = tr.open("engine.flush");
            feeder.flush();
            s->flush();
        }
        r.rate = static_cast<double>(n) / seconds_between(t0, clock_type::now());
        r.memory_mb = mem.growth_mb();
        r.operations = n + 1 + r.query_us.size();
        auto sp = tr.open("oracle.check");
        r.check = check_u64(s->snapshot(), exact_);
        return r;
    }

    void layers(run_result& out, tracer& tr) override {
        auto sp = tr.open("replay");
        const auto core = replay_core(stream_, k, seed_, report_every, 3, tr);
        out.set("core.update_ns", core.update_ns, "ns");
        out.set("core.report_us", core.report_us, "us");
        out.set("table.find_ns", core.find_ns, "ns");
        // The façade's per-item verb on a standalone summary: the engine's
        // increment is engine.push_ns over this.
        facade_layer(out, freq::builder().max_counters(k).seed(seed_), stream_.size(),
                     core.update_ns, tr, [&](freq::summarizer& s) {
                         for (const auto& u : stream_) {
                             s.update(u.id, static_cast<double>(u.weight));
                         }
                     });
    }

    std::size_t updates_per_round() const override { return stream_.size(); }
    std::uint32_t shards() const override { return num_shards; }
    std::string describe() const override {
        return "live_u64: k=" + std::to_string(k) + ", sharded(" + std::to_string(num_shards) +
               ", 1), snapshot every 5 ms, " + std::to_string(stream_.size()) +
               " CAIDA-like updates per round pushed per item, a live report every " +
               std::to_string(report_every) + " updates";
    }

private:
    /// Push time of the newest update a view of total weight \p view_n can
    /// hold, interpolated inside its push-time block. Weight 0 stands at
    /// \p ingest_start, so a view older than the first block (an empty one
    /// included) ages from the start of ingest rather than going unsampled.
    clock_type::time_point push_time_of(double view_n, std::size_t pushed,
                                        clock_type::time_point ingest_start) const {
        const std::size_t blocks = (pushed + block - 1) / block;
        const auto first = block_weight_.begin();
        const auto it = std::upper_bound(first, first + static_cast<std::ptrdiff_t>(blocks),
                                         view_n);
        const auto b = static_cast<std::size_t>(it - first);
        if (b == blocks) {
            return block_time_[b - 1];
        }
        const double lo = b == 0 ? 0.0 : block_weight_[b - 1];
        const auto lo_time = b == 0 ? ingest_start : block_time_[b - 1];
        const double frac = std::max(0.0, view_n - lo) / (block_weight_[b] - lo);
        return lo_time +
               std::chrono::duration_cast<clock_type::duration>((block_time_[b] - lo_time) * frac);
    }

    static constexpr std::uint32_t k = 4096;
    static constexpr std::uint32_t num_shards = 1;
    static constexpr std::size_t report_every = 1u << 16;
    static constexpr std::size_t block = 1024;
    std::uint64_t seed_;
    std::vector<freq::update64> stream_;
    std::vector<freq::update64> order_;
    exact_counts<std::uint64_t> exact_;
    std::vector<double> block_weight_;
    std::vector<clock_type::time_point> block_time_;
};

// --- text_sharded -----------------------------------------------------------------

class text_sharded final : public workload {
public:
    explicit text_sharded(const options& opt)
        : workload(opt.seed),
          seed_(opt.seed),
          stream_(caida_stream(scaled(400'000, opt.scale, 20'000), opt.seed)),
          keys_(stream_),
          exact_(exact_of(keys_.views, stream_, opt.seed)) {
        if (opt.perturb_oracle) {
            perturb(exact_);
        }
    }

    round_sample round(tracer& tr, memory_meter& mem) override {
        round_sample r;
        const std::size_t offset = next_offset(stream_.size());
        rotate_into(stream_, offset, order_);
        rotate_into(keys_.views, offset, views_);
        mem.start();
        auto root = tr.open("round");
        const auto s0 = clock_type::now();
        std::optional<freq::summarizer> s;
        {
            auto sp = tr.open("api.build");
            s = freq::builder()
                    .text_keys()
                    .max_counters(k)
                    .seed(seed_)
                    .sharded(num_shards, 1)
                    .build();
        }
        const auto t0 = clock_type::now();
        r.setup_s = seconds_between(s0, t0);
        const std::size_t n = views_.size();
        for (std::size_t i = 0; i < n; i += run) {
            auto sp = tr.open("engine.push");
            const std::size_t end = std::min(n, i + run);
            for (std::size_t j = i; j < end; ++j) {
                s->update(views_[j], static_cast<double>(order_[j].weight));
            }
        }
        const auto last_push = clock_type::now();
        {
            auto sp = tr.open("engine.flush");
            s->flush();
        }
        r.rate = static_cast<double>(n) / seconds_between(t0, clock_type::now());
        const auto rep = issue_report(*s, tr, "api.report");
        r.query_us.push_back(rep.latency_us);
        r.lag_ms.push_back(ms_between(last_push, rep.done));
        r.memory_mb = mem.growth_mb();
        r.operations = n + 2;
        auto sp = tr.open("oracle.check");
        r.check = check_text(s->snapshot(), exact_);
        return r;
    }

    void layers(run_result& out, tracer& tr) override {
        auto sp = tr.open("replay");
        const auto core = replay_core(stream_, k, seed_, run, 3, tr);
        const auto text = replay_core_text(keys_.views, stream_, k, seed_, 3, tr);
        out.set("core.update_ns", core.update_ns, "ns");
        out.set("core.text_update_ns", text.update_ns, "ns");
        out.set("core.report_us", text.report_us, "us");
        out.set("table.find_ns", core.find_ns, "ns");
        facade_layer(out, freq::builder().text_keys().max_counters(k).seed(seed_),
                     keys_.views.size(), text.update_ns, tr, [&](freq::summarizer& s) {
                         for (std::size_t j = 0; j < keys_.views.size(); ++j) {
                             s.update(keys_.views[j], static_cast<double>(stream_[j].weight));
                         }
                     });
    }

    std::size_t updates_per_round() const override { return stream_.size(); }
    std::uint32_t shards() const override { return num_shards; }
    std::string describe() const override {
        return "text_sharded: text keys, k=" + std::to_string(k) + ", sharded(" +
               std::to_string(num_shards) + ", 1), " + std::to_string(stream_.size()) +
               " dotted-quad keys per round via per-item update(string_view), one final report";
    }

private:
    static constexpr std::uint32_t k = 4096;
    static constexpr std::uint32_t num_shards = 1;
    static constexpr std::size_t run = 1u << 16;
    std::uint64_t seed_;
    std::vector<freq::update64> stream_;
    text_keys keys_;
    std::vector<freq::update64> order_;
    std::vector<std::string_view> views_;
    exact_counts<std::string_view> exact_;
};

// --- merge_fanin ------------------------------------------------------------------

class merge_fanin final : public workload {
public:
    explicit merge_fanin(const options& opt)
        : workload(opt.seed), seed_(opt.seed), per_node_(scaled(1u << 17, opt.scale, 4096)) {
        const std::size_t total = per_node_ * num_nodes;
        freq::zipf_stream_generator gen({.num_updates = total,
                                         .num_distinct = std::max<std::size_t>(total / 4, 16),
                                         .alpha = 1.05,
                                         .min_weight = 1,
                                         .max_weight = 10'000,
                                         .seed = opt.seed});
        stream_ = gen.generate();
        exact_ = exact_of(stream_, opt.seed);
        if (opt.perturb_oracle) {
            perturb(exact_);
        }
        // Each node summarizes its slice with its own hash seed (§3.2).
        for (std::size_t i = 0; i < num_nodes; ++i) {
            auto node = freq::builder().max_counters(k).seed(node_seed(i)).build();
            node.update(node_slice(i));
            envelopes_.push_back(node.save());
        }
    }

    round_sample round(tracer& tr, memory_meter& mem) override {
        round_sample r;
        // Envelopes arrive in a fresh seeded order each round.
        std::vector<std::size_t> arrival(envelopes_.size());
        for (std::size_t i = 0; i < arrival.size(); ++i) {
            arrival[i] = i;
        }
        for (std::size_t i = arrival.size(); i > 1; --i) {
            std::swap(arrival[i - 1], arrival[next_offset(i)]);
        }
        mem.start();
        auto root = tr.open("round");
        const auto s0 = clock_type::now();
        std::optional<freq::summarizer> agg;
        {
            auto sp = tr.open("api.build");
            agg = freq::builder().max_counters(k).seed(seed_).build();
        }
        r.setup_s = seconds_between(s0, clock_type::now());
        // The aggregate answers a report as each envelope lands; reports
        // are timed as queries, not as merge work.
        double merge_s = 0.0;
        for (const std::size_t i : arrival) {
            const auto arrived = clock_type::now();
            {
                std::optional<freq::summarizer> node;
                {
                    auto sp = tr.open("api.restore");
                    node = freq::restore_summary(envelopes_[i]);
                }
                auto sp = tr.open("api.merge");
                agg->merge(*node);
            }
            merge_s += seconds_between(arrived, clock_type::now());
            const auto rep = issue_report(*agg, tr, "api.report");
            r.query_us.push_back(rep.latency_us);
            r.lag_ms.push_back(ms_between(arrived, rep.done));
        }
        std::size_t saved = 0;
        {
            auto sp = tr.open("api.save");
            const auto t0 = clock_type::now();
            saved = agg->save().bytes().size();
            merge_s += seconds_between(t0, clock_type::now());
        }
        r.rate = static_cast<double>(stream_.size()) / merge_s;
        r.memory_mb = mem.growth_mb();
        r.operations = 1 + 3 * envelopes_.size() + (saved > 0 ? 1 : 0);
        auto sp = tr.open("oracle.check");
        r.check = check_u64(*agg, exact_);
        return r;
    }

    void layers(run_result& out, tracer& tr) override {
        auto sp = tr.open("replay");
        std::vector<std::span<const freq::update64>> nodes;
        for (std::size_t i = 0; i < num_nodes; ++i) {
            nodes.push_back(node_slice(i));
        }
        out.set("core.merge_us", replay_core_merge(nodes, k, node_seed(0), 3, tr), "us");
        // Report cost of a standalone summary at the aggregate's k.
        std::vector<double> rep_us;
        auto agg = freq::builder().max_counters(k).seed(seed_).build();
        for (const auto& env : envelopes_) {
            agg.merge(freq::restore_summary(env));
        }
        for (int rep = 0; rep < 5; ++rep) {
            rep_us.push_back(issue_report(agg, tr, "api.report").latency_us);
        }
        out.set("api.report_us", median(rep_us), "us");
        out.set("api.restore_us", mean(tr.durations_ns("api.restore")) / 1e3, "us");
        out.set("api.save_us", mean(tr.durations_ns("api.save")) / 1e3, "us");
    }

    std::size_t updates_per_round() const override { return stream_.size(); }
    std::string describe() const override {
        return "merge_fanin: " + std::to_string(num_nodes) + " envelopes of k=" +
               std::to_string(k) + ", each summarizing " + std::to_string(per_node_) +
               " Zipf(1.05) updates, merged in a fresh order per round with a report after "
               "each; updates_per_s counts those updates, so merges/s = updates_per_s / " +
               std::to_string(per_node_);
    }

private:
    std::uint64_t node_seed(std::size_t i) const { return seed_ + 1 + i; }
    std::span<const freq::update64> node_slice(std::size_t i) const {
        return std::span<const freq::update64>(stream_).subspan(i * per_node_, per_node_);
    }

    static constexpr std::uint32_t k = 16384;
    static constexpr std::size_t num_nodes = 16;
    std::uint64_t seed_;
    std::size_t per_node_;
    std::vector<freq::update64> stream_;
    exact_counts<std::uint64_t> exact_;
    std::vector<freq::summary_bytes> envelopes_;
};

std::unique_ptr<workload> make_workload(const options& opt) {
    if (opt.workload == "solo_u64") {
        return std::make_unique<solo_u64>(opt);
    }
    if (opt.workload == "live_u64") {
        return std::make_unique<live_u64>(opt);
    }
    if (opt.workload == "text_sharded") {
        return std::make_unique<text_sharded>(opt);
    }
    if (opt.workload == "merge_fanin") {
        return std::make_unique<merge_fanin>(opt);
    }
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

// --- per-layer metrics from the traced rounds ------------------------------------

double per_mupd(double count, double updates) {
    return updates > 0.0 ? count * 1e6 / updates : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric, zero where the workload does not reach the layer.
void layer_metrics(run_result& out, const telemetry_reading& d, const tracer& tr,
                   double updates, double traced_s, std::uint32_t shards) {
    const auto probe = d.histogram("freq_table_probe_length");
    out.set("table.probe_len_mean", probe.mean(), "slots");
    out.set("table.probe_len_p99", probe.quantile(0.99), "slots");

    out.set("core.decrement_rounds_per_mupd",
            per_mupd(d.counter("freq_sketch_decrement_rounds_total"), updates), "1/Mupd");
    out.set("core.evictions_per_mupd", per_mupd(d.counter("freq_sketch_evictions_total"), updates),
            "1/Mupd");

    out.set("engine.push_ns", shards > 0 ? ratio(tr.total_ns("engine.push"), updates) : 0.0,
            "ns");
    out.set("engine.flush_ms", median(tr.durations_ns("engine.flush")) / 1e6, "ms");
    out.set("engine.ring_full_per_mupd", per_mupd(d.counter("freq_engine_ring_full_total"), updates),
            "1/Mupd");
    out.set("engine.ring_occupancy_mean", d.histogram("freq_engine_ring_occupancy").mean(),
            "slots");
    out.set("engine.drain_batch_mean", d.histogram("freq_shard_drain_batch_size").mean(), "count");

    const auto publish = d.histogram("freq_snapshot_publish_latency_ns");
    const double publishes = d.counter("freq_snapshot_publishes_total");
    out.set("engine.snapshot.publish_p50_us", publish.quantile(0.50) / 1e3, "us");
    out.set("engine.snapshot.publish_p99_us", publish.quantile(0.99) / 1e3, "us");
    out.set("engine.snapshot.publishes_per_s", ratio(publishes, traced_s), "1/s");
    out.set("engine.snapshot.refold_ratio",
            ratio(d.counter("freq_snapshot_shards_refolded_total"), publishes * shards), "ratio");
    out.set("engine.snapshot.acquire_retry_ratio",
            ratio(d.counter("freq_snapshot_acquire_retries_total"),
                  d.counter("freq_snapshot_acquires_total")),
            "ratio");
    out.set("engine.snapshot.pool_grows", d.counter("freq_snapshot_pool_grows_total"), "count");

    const double enqueued = d.counter("freq_spelling_enqueued_total");
    const double rejects = d.counter("freq_spelling_rejects_total");
    out.set("engine.spelling.enqueued_per_mupd", per_mupd(enqueued, updates), "1/Mupd");
    out.set("engine.spelling.dedupe_hit_ratio",
            ratio(d.counter("freq_spelling_dedupe_hits_total"), updates), "ratio");
    out.set("engine.spelling.reject_ratio", ratio(rejects, enqueued + rejects), "ratio");
}

/// Metrics a workload's replays do not set read zero: the workload does
/// not reach that layer.
void fill_missing(run_result& out, const std::vector<std::pair<std::string, std::string>>& all) {
    for (const auto& [name, unit] : all) {
        const bool present = std::any_of(out.metrics.begin(), out.metrics.end(),
                                         [&](const metric& m) { return m.name == name; });
        if (!present) {
            out.set(name, 0.0, unit);
        }
    }
}

}  // namespace

run_result run_workload(const options& opt, tracer& tr) {
    run_result out;
    auto w = make_workload(opt);
    out.notes.push_back(w->describe());

    memory_meter mem;
    std::vector<round_sample> rounds;
    telemetry_reading before;
    telemetry_reading after;
    double traced_s = 0.0;
    auto one_round = [&]() -> std::optional<round_sample> {
        try {
            return w->round(tr, mem);
        } catch (const std::exception& e) {
            ++out.attempted;
            ++out.failed;
            out.notes.push_back(std::string("round failed: ") + e.what());
            return std::nullopt;
        }
    };
    // One warm-up round before timing: it faults in the code, the heap and
    // the engine's thread start-up. Its answer is checked; its timings are
    // not reported.
    if (const auto warm = one_round()) {
        out.attempted += warm->operations;
        count_check(warm->check, out);
    } else {
        return out;
    }
    const auto start = clock_type::now();
    // The traced run spends its first half untraced, so the tracing
    // overhead is measured on the same inputs in the same process.
    const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    constexpr std::size_t min_rounds = 3;
    auto run_phase = [&](bool traced, double until_s) {
        tr.enable(traced);
        std::size_t n = 0;
        while (n < min_rounds || seconds_between(start, clock_type::now()) < until_s) {
            auto r = one_round();
            if (!r) {
                return;
            }
            r->traced = traced;
            rounds.push_back(std::move(*r));
            ++n;
        }
    };
    run_phase(false, untraced_budget);
    if (opt.trace) {
        before = telemetry_reading::take();
        const auto t0 = clock_type::now();
        run_phase(true, opt.seconds);
        traced_s = seconds_between(t0, clock_type::now());
        after = telemetry_reading::take();
    }
    tr.enable(opt.trace);

    std::vector<double> rate_untraced;
    std::vector<double> rate_traced;
    std::vector<double> setup;
    std::vector<double> query;
    std::vector<double> lag;
    std::vector<double> recall;
    std::vector<double> error_rel;
    std::vector<double> memory;
    for (const auto& r : rounds) {
        (r.traced ? rate_traced : rate_untraced).push_back(r.rate);
        setup.push_back(r.setup_s);
        query.insert(query.end(), r.query_us.begin(), r.query_us.end());
        lag.insert(lag.end(), r.lag_ms.begin(), r.lag_ms.end());
        recall.push_back(r.check.recall);
        error_rel.push_back(r.check.max_error_rel);
        memory.push_back(r.memory_mb);
        out.attempted += r.operations;
        count_check(r.check, out);
    }
    if (rounds.empty()) {
        return out;
    }
    // Every workload reports view lag, so a run without a single lag
    // sample has lost its reports; it fails rather than reading as 0.
    if (lag.empty()) {
        ++out.attempted;
        ++out.failed;
        out.notes.push_back("no view-lag samples");
    }
    char line[256];
    std::snprintf(line, sizeof line, "%zu rounds, %zu report samples, %zu view-lag samples",
                  rounds.size(), query.size(), lag.size());
    out.notes.push_back(line);
    const auto& rates = rate_untraced.empty() ? rate_traced : rate_untraced;
    std::snprintf(line, sizeof line, "per-round updates/s: p10 %.4g, p50 %.4g, p90 %.4g",
                  quantile(rates, 0.1), quantile(rates, 0.5), quantile(rates, 0.9));
    out.notes.push_back(line);

    if (!opt.trace) {
        out.set("updates_per_s", median(rate_untraced), "1/s");
        out.set("query_p50_us", median(query), "us");
        out.set("query_p90_us", quantile(query, tail_q), "us");
        out.set("view_lag_p50_ms", median(lag), "ms");
        out.set("view_lag_p90_ms", quantile(lag, tail_q), "ms");
        out.set("setup_s", median(setup), "s");
        out.set("memory_mb", median(memory), "MB");
        out.set("max_error_rel", median(error_rel), "ratio");
        out.set("top100_recall", median(recall), "ratio");
        return out;
    }

    const double traced_updates =
        static_cast<double>(w->updates_per_round()) *
        static_cast<double>(std::count_if(rounds.begin(), rounds.end(),
                                          [](const round_sample& r) { return r.traced; }));
    layer_metrics(out, delta(before, after), tr, traced_updates, traced_s, w->shards());
    w->layers(out, tr);
    const double untraced = median(rate_untraced);
    out.set("trace.overhead_frac", ratio(median(rate_traced) - untraced, untraced), "ratio");
    fill_missing(out, {{"table.find_ns", "ns"},
                       {"core.update_ns", "ns"},
                       {"core.text_update_ns", "ns"},
                       {"core.report_us", "us"},
                       {"core.merge_us", "us"},
                       {"api.update_ns", "ns"},
                       {"api.overhead_ns", "ns"},
                       {"api.report_us", "us"},
                       {"api.restore_us", "us"},
                       {"api.save_us", "us"}});
    return out;
}

}  // namespace perfbench
