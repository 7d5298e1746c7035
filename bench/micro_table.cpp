/// Google-benchmark micro-benchmarks for the §2.3.3 counter table itself:
/// hit and miss lookups, upserts, batched probes and the
/// decrement-and-compact pass (never evicting, evicting 1/8, and the
/// sketch's half-evicting round), at small (L1-resident) and large
/// (cache-straining) capacities. These are the per-operation costs that make
/// Fig. 1's throughput possible.
///
/// main() writes the fastest of three repetitions of every (operation,
/// capacity) pair to BENCH_table.json as the time of one benchmark
/// iteration (op_ns). The file is a trend record for scripts/bench_delta.py;
/// it has no gate.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/simd.h"
#include "random/xoshiro.h"
#include "table/counter_table.h"

namespace {

using namespace freq;

bench::alloc_phase g_allocs;  // heap traffic of the whole run

using table_t = counter_table<std::uint64_t, std::uint64_t>;

std::vector<std::uint64_t> resident_keys(std::uint32_t k, std::uint64_t seed) {
    xoshiro256ss rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(k);
    for (std::uint32_t i = 0; i < k; ++i) {
        keys.push_back(rng());
    }
    return keys;
}

table_t filled_table(const std::vector<std::uint64_t>& keys,
                     std::uint64_t weight = 100) {
    table_t t(static_cast<std::uint32_t>(keys.size()), 1);
    for (const auto key : keys) {
        t.upsert(key, weight);
    }
    return t;
}

void BM_FindHit(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    const auto t = filled_table(keys);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.find(keys[i]));
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_FindMiss(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto t = filled_table(resident_keys(k, 1));
    xoshiro256ss rng(99);
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.find(rng() | 1ULL));  // almost surely absent
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_FindBatch16(benchmark::State& state) {
    // The block shape perfbench's table layer feeds through find_batch:
    // 16 keys, ~half hits, prefetches issued up front.
    constexpr std::size_t block = 16;
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    auto t = filled_table(keys);
    xoshiro256ss rng(7);
    std::vector<std::uint64_t> probe(block * 1024);
    for (std::size_t i = 0; i < probe.size(); ++i) {
        probe[i] = rng.below(2) == 0 ? keys[rng.below(keys.size())] : (rng() | 1ULL);
    }
    std::uint64_t* results[block];
    std::size_t off = 0;
    for (auto _ : state) {
        t.find_batch(probe.data() + off, block, results);
        benchmark::DoNotOptimize(results[0]);
        off = (off + block) % probe.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * block);
}

void BM_UpsertExisting(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    auto t = filled_table(keys);
    std::size_t i = 0;
    for (auto _ : state) {
        t.upsert(keys[i], 1);
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DecrementAll(benchmark::State& state) {
    // Counters start huge so repeated decrements never evict: the sweep runs
    // the survivors-only path without a rebuild between iterations. The rare
    // refill re-arms it.
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    auto t = filled_table(keys, std::uint64_t{1} << 40);
    for (auto _ : state) {
        if (t.size() < k) {
            state.PauseTiming();
            t = filled_table(keys, std::uint64_t{1} << 40);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(t.decrement_all(50));
    }
    // One decrement touches all L slots; report per-counter cost.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

void BM_DecrementAllEvicting(benchmark::State& state) {
    // The other extreme: every pass erases ~1/8 of the counters, so the
    // sweep keeps shifting survivors back into vacated slots.
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    xoshiro256ss rng(13);
    auto seed_values = [&](table_t& t) {
        t.clear();
        for (const auto key : keys) {
            t.upsert(key, 50 * (1 + rng.below(8)));
        }
    };
    table_t t(k, 1);
    seed_values(t);
    for (auto _ : state) {
        if (t.size() < k / 2) {
            state.PauseTiming();
            seed_values(t);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(t.decrement_all(50));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

void BM_DecrementAllSketchRound(benchmark::State& state) {
    // The regime of a sketch's decrement round: the table is full and about
    // half its counters are at or below the amount (c* is the sample
    // median), so half the sweep erases and half keeps. Each pass starts
    // from a copy of one of eight full tables with distinct keys, so the
    // branch predictor cannot learn one table's layout across passes.
    const auto k = static_cast<std::uint32_t>(state.range(0));
    std::vector<table_t> full;
    xoshiro256ss rng(21);
    for (std::uint64_t layout = 1; layout <= 8; ++layout) {
        full.emplace_back(k, 1);
        for (const auto key : resident_keys(k, layout)) {
            full.back().upsert(key, 1 + rng.below(100));
        }
    }
    table_t t = full[0];
    std::size_t pass = 0;
    for (auto _ : state) {
        state.PauseTiming();
        t = full[pass++ % full.size()];
        state.ResumeTiming();
        benchmark::DoNotOptimize(t.decrement_all(50));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

void BM_FillToCapacity(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto keys = resident_keys(k, 1);
    for (auto _ : state) {
        table_t t(k, 1);
        for (const auto key : keys) {
            t.upsert(key, 1);
        }
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

/// Captures per-iteration wall seconds of every run so main() can write
/// them after the normal console report. Benchmarks run with repetitions
/// and the *minimum* per-iteration time is kept — the robust estimator on
/// shared machines, where a background process can easily inflate a single
/// repetition.
class capture_reporter : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& runs) override {
        for (const auto& r : runs) {
            if (r.run_type == Run::RT_Aggregate || r.iterations <= 0) {
                continue;
            }
            const double s =
                r.real_accumulated_time / static_cast<double>(r.iterations);
            std::string name = r.benchmark_name();
            if (const auto pos = name.find("/repeats:"); pos != std::string::npos) {
                name.resize(pos);
            }
            const auto [it, inserted] = seconds_.try_emplace(std::move(name), s);
            if (!inserted && s < it->second) {
                it->second = s;
            }
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::map<std::string, double>& seconds() const { return seconds_; }

private:
    std::map<std::string, double> seconds_;
};

/// Emits BENCH_table.json with one point per benchmark run, named as
/// google-benchmark names it (operation/capacity).
void write_table_json(const std::map<std::string, double>& s) {
    if (s.empty()) {
        return;  // filtered to nothing: leave any previous BENCH_table.json alone
    }
    std::string points;
    char line[256];
    for (const auto& [name, seconds] : s) {
        std::snprintf(line, sizeof(line), "%s\n    {\"name\": \"%s\", \"op_ns\": %.3f}",
                      points.empty() ? "" : ",", name.c_str(), seconds * 1e9);
        points += line;
    }
    FILE* json = std::fopen("BENCH_table.json", "w");
    if (json == nullptr) {
        return;
    }
    std::fprintf(json, "{\n  \"bench\": \"counter_table\",\n  \"isa\": \"%s\",\n  ",
                 simd::isa_name());
    g_allocs.write_json_fields(json, "");
    std::fprintf(json, ",\n  \"points\": [%s\n  ]\n}\n", points.c_str());
    std::fclose(json);
    std::printf("wrote BENCH_table.json (isa=%s)\n", simd::isa_name());
}

}  // namespace

// Three repetitions per benchmark; capture_reporter keeps the fastest one.
#define FREQ_TABLE_BENCH(fn) \
    BENCHMARK(fn)->Arg(1024)->Arg(65536)->Arg(1 << 20)->Repetitions(3)

FREQ_TABLE_BENCH(BM_FindHit);
FREQ_TABLE_BENCH(BM_FindMiss);
FREQ_TABLE_BENCH(BM_FindBatch16);
FREQ_TABLE_BENCH(BM_UpsertExisting);
FREQ_TABLE_BENCH(BM_DecrementAll)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecrementAllEvicting)
    ->Arg(1024)->Arg(65536)->Repetitions(3)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DecrementAllSketchRound)
    ->Arg(4096)->Arg(32768)->Repetitions(3)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FillToCapacity)
    ->Arg(1024)->Arg(65536)->Repetitions(3)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
    g_allocs.reset();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    capture_reporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    write_table_json(reporter.seconds());
    return 0;
}
