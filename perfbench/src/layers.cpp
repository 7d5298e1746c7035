// Template-layer replays: the same inputs a workload feeds the façade, fed
// straight to the core sketch and the counter table, so each layer's cost
// over the one below it is measured from outside the library.

#include <algorithm>

#include "bench.h"
#include "core/basic_frequent_items.h"
#include "core/string_frequent_items.h"
#include "table/counter_table.h"

namespace perfbench {

namespace {

using core_sketch = freq::basic_frequent_items<std::uint64_t, std::uint64_t>;

double elapsed_ns(clock_type::time_point t0) {
    return std::chrono::duration<double, std::nano>(clock_type::now() - t0).count();
}

/// Keeps a value observable so the timed loop cannot be optimized away.
void keep(std::uint64_t v) {
    static volatile std::uint64_t sink = 0;
    sink = sink + v;
}

template <typename Sketch>
double report_us(const Sketch& s, tracer& tr) {
    std::vector<double> us;
    for (int i = 0; i < 5; ++i) {
        auto sp = tr.open("core.report");
        const auto t0 = clock_type::now();
        const auto top = s.top_items(100);
        const auto hh = s.frequent_items(
            freq::error_type::no_false_negatives,
            static_cast<std::uint64_t>(report_phi * static_cast<double>(s.total_weight())));
        us.push_back(elapsed_ns(t0) / 1e3);
        keep(top.size() + hh.size());
    }
    return median(us);
}

}  // namespace

core_replay replay_core(std::span<const freq::update64> stream, std::uint32_t k,
                        std::uint64_t seed, std::size_t run, int reps, tracer& tr) {
    const freq::sketch_config cfg{.max_counters = k, .seed = seed};
    core_replay out;
    std::vector<double> update_ns;
    std::vector<double> find_ns;
    std::vector<std::uint64_t> keys(stream.size());
    std::transform(stream.begin(), stream.end(), keys.begin(),
                   [](const freq::update64& u) { return u.id; });
    for (int rep = 0; rep < reps; ++rep) {
        core_sketch s(cfg);
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < stream.size(); i += run) {
            auto sp = tr.open("core.update_span");
            s.update(stream.subspan(i, std::min(run, stream.size() - i)));
        }
        update_ns.push_back(elapsed_ns(t0) / static_cast<double>(stream.size()));
        if (rep + 1 < reps) {
            continue;
        }
        out.report_us = report_us(s, tr);

        // The probe cost on the final tracked set, in the batched update
        // path's block size.
        freq::counter_table<std::uint64_t, std::uint64_t> table(k, seed);
        s.for_each([&](std::uint64_t id, std::uint64_t c) { table.upsert(id, c); });
        constexpr std::size_t block = 16;
        std::uint64_t* found[block];
        for (int frep = 0; frep < reps; ++frep) {
            std::uint64_t hits = 0;
            const auto f0 = clock_type::now();
            for (std::size_t i = 0; i < keys.size(); i += run) {
                auto sp = tr.open("table.find_batch");
                const std::size_t end = std::min(i + run, keys.size());
                for (std::size_t b = i; b < end; b += block) {
                    const std::size_t m = std::min(block, end - b);
                    table.find_batch(keys.data() + b, m, found);
                    for (std::size_t j = 0; j < m; ++j) {
                        hits += found[j] != nullptr;
                    }
                }
            }
            find_ns.push_back(elapsed_ns(f0) / static_cast<double>(keys.size()));
            keep(hits);
        }
    }
    out.update_ns = median(update_ns);
    out.find_ns = median(find_ns);
    return out;
}

text_replay replay_core_text(std::span<const std::string_view> keys,
                             std::span<const freq::update64> weights, std::uint32_t k,
                             std::uint64_t seed, int reps, tracer& tr) {
    using text_sketch = freq::string_frequent_items<std::uint64_t>;
    text_replay out;
    std::vector<double> ns;
    constexpr std::size_t run = 1u << 16;
    for (int rep = 0; rep < reps; ++rep) {
        text_sketch s(k, seed);
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < keys.size(); i += run) {
            auto sp = tr.open("core.text_update");
            const std::size_t end = std::min(i + run, keys.size());
            for (std::size_t j = i; j < end; ++j) {
                s.update(keys[j], weights[j].weight);
            }
        }
        ns.push_back(elapsed_ns(t0) / static_cast<double>(keys.size()));
        if (rep + 1 == reps) {
            out.report_us = report_us(s, tr);
        }
    }
    out.update_ns = median(ns);
    return out;
}

double replay_core_merge(const std::vector<std::span<const freq::update64>>& nodes,
                         std::uint32_t k, std::uint64_t seed_base, int reps, tracer& tr) {
    std::vector<core_sketch> built;
    built.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        built.emplace_back(freq::sketch_config{.max_counters = k, .seed = seed_base + i});
        built.back().update(nodes[i]);
    }
    std::vector<double> us;
    for (int rep = 0; rep < reps; ++rep) {
        core_sketch agg(freq::sketch_config{.max_counters = k, .seed = seed_base - 1});
        for (const auto& node : built) {
            auto sp = tr.open("core.merge");
            const auto t0 = clock_type::now();
            agg.merge(node);
            us.push_back(elapsed_ns(t0) / 1e3);
        }
        keep(agg.num_counters());
    }
    return median(us);
}

}  // namespace perfbench
