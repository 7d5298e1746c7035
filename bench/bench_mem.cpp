/// \file bench_mem.cpp
/// Allocation-free snapshot folds: a loaded incremental engine folded
/// repeatedly into one reused target sketch (stream_engine::snapshot_into).
/// After warmup both the nothing-changed reuse path and the dirty-shard
/// path must perform zero heap allocations per fold.
///
/// Emits BENCH_mem.json.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>

#include "bench/bench_common.h"
#include "engine/stream_engine.h"
#include "stream/generators.h"

namespace {

using namespace freq;

constexpr std::uint32_t k = 1024;

struct fold_run {
    std::uint64_t repeat_allocs = 0;  ///< folds with nothing dirty
    std::uint64_t dirty_allocs = 0;   ///< folds after fresh pushes
    double dirty_fold_s = 0.0;        ///< mean seconds per dirty fold
};

fold_run run_folds(const update_stream<std::uint64_t, std::uint64_t>& stream) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 1};
    cfg.incremental_snapshots = true;
    stream_engine<> engine(cfg);

    auto producer = engine.make_producer();
    producer.push(std::span<const update64>(stream.data(), stream.size()));
    producer.flush();
    engine.flush();

    // Repushes reuse ids already resident in the tables so steady-state
    // folds never grow a vector — the claim is about allocator traffic per
    // fold, not about table growth.
    const std::size_t repush = std::min<std::size_t>(stream.size(), 4096);

    stream_engine<>::sketch_type out(sketch_config{.max_counters = k, .seed = 1});
    for (int warm = 0; warm < 3; ++warm) {
        producer.push(std::span<const update64>(stream.data(), repush));
        producer.flush();
        engine.flush();
        engine.snapshot_into(out);
    }
    engine.snapshot_into(out);  // warm the nothing-dirty reuse path too

    fold_run r;
    constexpr int rounds = 16;
    {
        bench::alloc_phase allocs;
        for (int i = 0; i < rounds; ++i) {
            engine.snapshot_into(out);
        }
        r.repeat_allocs = allocs.count();
    }
    {
        bench::alloc_phase allocs;
        bench::stopwatch sw;
        for (int i = 0; i < rounds; ++i) {
            producer.push(std::span<const update64>(stream.data(), repush));
            producer.flush();
            engine.flush();
            engine.snapshot_into(out);
        }
        r.dirty_fold_s = sw.seconds() / rounds;
        r.dirty_allocs = allocs.count();
    }
    engine.stop();
    return r;
}

}  // namespace

int main() {
    const std::uint64_t n_u64 = bench::scaled(1'000'000);
    zipf_stream_generator gen({.num_updates = n_u64,
                               .num_distinct = n_u64 / 10,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = 2024});
    const auto stream = gen.generate();
    const fold_run folds = run_folds(stream);
    bench::print_header("allocation-free snapshot folds",
                        "path               allocs/16 folds   fold_s");
    std::printf("reuse (clean)    %17" PRIu64 "        -\n", folds.repeat_allocs);
    std::printf("incremental      %17" PRIu64 " %8.6f\n", folds.dirty_allocs,
                folds.dirty_fold_s);
    const bool zero_reuse = folds.repeat_allocs == 0;
    const bool zero_dirty = folds.dirty_allocs == 0;
    bench::check(zero_reuse, "nothing-dirty snapshot_into performs zero allocations");
    bench::check(zero_dirty,
                 "steady-state incremental snapshot_into performs zero allocations");

    FILE* json = std::fopen("BENCH_mem.json", "w");
    if (json != nullptr) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"bench\": \"snapshot_folds\",\n");
        std::fprintf(json,
                     "  \"folds\": {\"rounds\": 16, \"reuse_alloc_count\": %" PRIu64
                     ", \"incremental_alloc_count\": %" PRIu64
                     ", \"incremental_fold_s\": %.6g},\n",
                     folds.repeat_allocs, folds.dirty_allocs, folds.dirty_fold_s);
        std::fprintf(json,
                     "  \"acceptance\": {\"reuse_fold_zero_alloc\": %s, "
                     "\"incremental_fold_zero_alloc\": %s}\n",
                     zero_reuse ? "true" : "false", zero_dirty ? "true" : "false");
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("wrote BENCH_mem.json\n");
    }
    return 0;
}
