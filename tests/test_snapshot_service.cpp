/// The async snapshot service: epochs must be strictly monotone across
/// publishes, staleness must be bounded by the publish interval (with
/// flush/advance_epoch republishing synchronously), the double-buffered
/// refcount protocol must keep every acquired view consistent and immutable
/// under concurrent acquire/publish, and cached-view threshold queries must
/// honor the §1.2 NFP/NFN guarantees against exact ground truth for all
/// three lifetime policies.

#include "engine/snapshot_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/builder.h"
#include "api/summarizer.h"
#include "core/frequent_items_sketch.h"
#include "core/lifetime_policy.h"
#include "engine/stream_engine.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;
using service_t = snapshot_service<sketch_u64>;

/// A mutable snapshot source for driving the service directly: updates and
/// folds synchronize on one mutex, exactly like a shard's sketch mutex.
struct sketch_source {
    sketch_u64 sketch{sketch_config{.max_counters = 64, .seed = 1}};
    mutable std::mutex mutex;

    void add(std::uint64_t id, std::uint64_t w) {
        std::lock_guard<std::mutex> lock(mutex);
        sketch.update(id, w);
    }
    service_t::fold_fn fold() {
        return [this] {
            std::lock_guard<std::mutex> lock(mutex);
            return sketch;
        };
    }
};

update_stream<std::uint64_t, std::uint64_t> test_stream(std::uint64_t seed,
                                                        std::uint64_t n = 100'000) {
    zipf_stream_generator gen({.num_updates = n,
                               .num_distinct = 10'000,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = seed});
    return gen.generate();
}

// A long interval stands in for "the periodic publisher stays out of the
// way": these tests drive publication explicitly through publish_now().
constexpr std::chrono::microseconds quiet_interval = std::chrono::seconds(3600);

TEST(SnapshotService, PublishesEpochOneOnConstruction) {
    sketch_source src;
    src.add(7, 3);
    service_t svc(src.fold(), quiet_interval);
    const auto view = svc.acquire();
    EXPECT_EQ(view.epoch(), 1u);
    EXPECT_EQ(view->estimate(7), 3u);
    EXPECT_EQ(view->total_weight(), 3u);
    EXPECT_EQ(view.policy_clock(), 0u);  // plain sketches have no clock
    EXPECT_GE(svc.stats().publishes, 1u);
}

TEST(SnapshotService, EpochsAreStrictlyMonotoneAcrossPublishes) {
    sketch_source src;
    service_t svc(src.fold(), quiet_interval);
    std::uint64_t prev = svc.acquire().epoch();
    for (int i = 0; i < 20; ++i) {
        src.add(static_cast<std::uint64_t>(i), 1);
        const std::uint64_t published = svc.publish_now();
        const auto view = svc.acquire();
        EXPECT_EQ(view.epoch(), published);
        EXPECT_GT(view.epoch(), prev);
        prev = view.epoch();
    }
    EXPECT_EQ(svc.stats().publishes, 21u);
    EXPECT_EQ(svc.stats().pool_grows, 0u);  // no held views: two buffers suffice
}

TEST(SnapshotService, PublishNowBoundsStaleness) {
    sketch_source src;
    service_t svc(src.fold(), quiet_interval);
    // Everything folded before a publish is visible to the next acquire —
    // a reader is never staler than the latest publish.
    for (std::uint64_t round = 1; round <= 5; ++round) {
        src.add(1, 10);
        const auto before = std::chrono::steady_clock::now();
        svc.publish_now();
        const auto view = svc.acquire();
        EXPECT_EQ(view->estimate(1), 10 * round);
        EXPECT_GE(view.publish_time(), before);
        EXPECT_GE(view.age().count(), 0);
    }
}

TEST(SnapshotService, PeriodicPublisherAdvancesEpochsOnItsOwn) {
    sketch_source src;
    service_t svc(src.fold(), std::chrono::milliseconds(1));
    const std::uint64_t start = svc.epoch();
    // Generous deadline: epochs must advance without any publish_now().
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.epoch() < start + 3 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(svc.epoch(), start + 3) << "periodic publisher never fired";
}

TEST(SnapshotService, HeldViewStaysImmutableWhilePublishesContinue) {
    sketch_source src;
    src.add(1, 5);
    service_t svc(src.fold(), quiet_interval);
    const auto held = svc.acquire();  // pins the epoch-1 buffer
    const std::uint64_t held_epoch = held.epoch();
    const std::uint64_t held_n = held->total_weight();

    // The pinned buffer is never overwritten — once both steady-state
    // buffers are occupied the pool grows around the held view, and every
    // publish still lands (epochs keep advancing).
    for (std::uint64_t i = 0; i < 10; ++i) {
        src.add(2, 1);
        EXPECT_EQ(svc.publish_now(), held_epoch + i + 1);
    }
    EXPECT_EQ(held.epoch(), held_epoch);
    EXPECT_EQ(held->total_weight(), held_n);
    EXPECT_EQ(held->estimate(2), 0u);
    EXPECT_GE(svc.stats().pool_grows, 1u);

    // New acquires see the freshest published view, all adds included.
    const auto fresh = svc.acquire();
    EXPECT_EQ(fresh.epoch(), held_epoch + 10);
    EXPECT_EQ(fresh->estimate(2), 10u);
}

TEST(SnapshotService, ReleasedBuffersAreReusedWithoutGrowingAgain) {
    sketch_source src;
    service_t svc(src.fold(), quiet_interval);
    {
        const auto held = svc.acquire();
        svc.publish_now();  // lands in the spare
        svc.publish_now();  // both steady-state buffers busy: grows once
        EXPECT_EQ(svc.stats().pool_grows, 1u);
    }
    // View released: publishes rotate through the existing pool from now
    // on — no further allocation, epochs keep advancing.
    const std::uint64_t before = svc.epoch();
    for (int i = 0; i < 8; ++i) {
        svc.publish_now();
    }
    EXPECT_EQ(svc.epoch(), before + 8);
    EXPECT_EQ(svc.stats().pool_grows, 1u);
}

TEST(SnapshotService, PublishNowAlwaysLandsUnderManyHeldViews) {
    // The flush()/advance_epoch() republish guarantee: even with every
    // buffer pinned by held views, a synchronous publish must make the
    // just-folded state visible to the next acquire.
    sketch_source src;
    service_t svc(src.fold(), quiet_interval);
    std::vector<published_snapshot<sketch_u64>> held;
    for (std::uint64_t round = 1; round <= 6; ++round) {
        src.add(1, 1);
        svc.publish_now();
        held.push_back(svc.acquire());  // pin every epoch ever published
        EXPECT_EQ(held.back()->estimate(1), round) << "stale publish";
    }
    for (std::size_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i]->estimate(1), i + 1) << "held view mutated";
    }
}

TEST(SnapshotService, ConcurrentPublishNowCallersCoalesce) {
    // The PR-4 follow-up: N simultaneous publish_now() callers must not run
    // N folds — riders that entered before another caller's fold started
    // adopt that fold's epoch. With a slow fold and heavy caller overlap,
    // the fold count stays well below the call count while every caller
    // still gets the "published view reflects a fold started after my
    // entry" guarantee.
    std::atomic<std::uint64_t> folds{0};
    snapshot_service<std::uint64_t> svc(
        [&folds] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return folds.fetch_add(1, std::memory_order_acq_rel) + 1;
        },
        quiet_interval);

    constexpr int threads = 4;
    constexpr int calls_per_thread = 25;
    std::vector<std::thread> callers;
    callers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        callers.emplace_back([&svc] {
            std::uint64_t last = 0;
            for (int i = 0; i < calls_per_thread; ++i) {
                const std::uint64_t epoch = svc.publish_now();
                EXPECT_GE(epoch, 1u);
                EXPECT_GE(epoch, last);  // epochs never move backwards
                last = epoch;
            }
        });
    }
    for (auto& t : callers) {
        t.join();
    }

    const auto st = svc.stats();
    EXPECT_EQ(st.coalesced_publishes + st.publishes,
              1 + threads * calls_per_thread);  // +1: the constructor's publish
    // With 4 overlapping callers and a 2ms fold, a large share must ride.
    EXPECT_GT(st.coalesced_publishes, 0u);
    EXPECT_LT(st.publishes, 1u + threads * calls_per_thread);
}

TEST(SnapshotService, CoalescedPublishStillSeesPriorWrites) {
    // A rider's guarantee is semantic, not just a counter: whatever the
    // caller wrote before publish_now() must be visible in the published
    // view afterwards, fold-owner or rider alike.
    sketch_source src;
    service_t svc(src.fold(), quiet_interval);
    std::atomic<std::uint64_t> writes{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&src, &svc, &writes, t] {
            for (int i = 0; i < 50; ++i) {
                src.add(static_cast<std::uint64_t>(t), 1);
                const std::uint64_t count = writes.fetch_add(1, std::memory_order_acq_rel) + 1;
                svc.publish_now();
                const auto view = svc.acquire();
                // The published fold started after at least `count` writes
                // were applied to the source (ours included).
                EXPECT_GE(view->total_weight(), count)
                    << "view misses the caller's own write";
                EXPECT_GE(view->estimate(static_cast<std::uint64_t>(t)), 1u);
            }
        });
    }
    for (auto& t : writers) {
        t.join();
    }
    svc.publish_now();
    EXPECT_EQ(svc.acquire()->total_weight(), 200u);
}

TEST(SnapshotService, ViewsOutliveTheService) {
    std::unique_ptr<published_snapshot<sketch_u64>> view;
    {
        sketch_source src;
        src.add(42, 9);
        service_t svc(src.fold(), quiet_interval);
        view = std::make_unique<published_snapshot<sketch_u64>>(svc.acquire());
    }  // service destroyed; the view pins the buffer storage
    EXPECT_EQ((*view)->estimate(42), 9u);
    EXPECT_EQ(view->epoch(), 1u);
}

// The refcount protocol under fire: readers hammer acquire() while a writer
// updates the source and publishes as fast as it can. Every view must be a
// consistent fold (the source preserves estimate(1) == total_weight()), and
// epochs must be monotone per reader. Run under TSan in CI.
TEST(SnapshotService, ConcurrentAcquireAndPublishKeepViewsConsistent) {
    sketch_source src;
    src.add(1, 1);
    service_t svc(src.fold(), std::chrono::microseconds(200));

    std::atomic<unsigned> running{0};
    std::atomic<std::uint64_t> failures{0};
    constexpr unsigned readers = 3;
    constexpr std::uint64_t acquires_per_reader = 3'000;
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (unsigned r = 0; r < readers; ++r) {
        threads.emplace_back([&] {
            running.fetch_add(1, std::memory_order_acq_rel);
            std::uint64_t prev_epoch = 0;
            for (std::uint64_t i = 0; i < acquires_per_reader; ++i) {
                const auto view = svc.acquire();
                // Consistency: a fold is all-of-one-publish or none of it.
                if (view->estimate(1) != view->total_weight()) {
                    failures.fetch_add(1);
                }
                if (view.epoch() < prev_epoch) {
                    failures.fetch_add(1);
                }
                prev_epoch = view.epoch();
            }
            running.fetch_sub(1, std::memory_order_acq_rel);
        });
    }
    // Publish as fast as possible until every reader finished its quota, so
    // acquire() and publish_cycle() genuinely overlap (on any core count).
    while (running.load(std::memory_order_acquire) > 0 || svc.stats().acquires == 0) {
        src.add(1, 1);  // only id 1 ever updates: N tracks estimate(1)
        svc.publish_now();
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(failures.load(), 0u);
    const auto st = svc.stats();
    EXPECT_EQ(st.acquires, readers * acquires_per_reader);
    EXPECT_GE(st.publishes, 1u);
}

// --- engine integration -------------------------------------------------------

TEST(EngineSnapshotService, FlushRepublishesAStreamCompleteView) {
    engine_config cfg;
    cfg.num_shards = 4;
    cfg.sketch = sketch_config{.max_counters = 512, .seed = 1};
    stream_engine<> engine(cfg);
    engine.enable_snapshot_service(std::chrono::hours(1));  // manual publishes only

    const auto stream = test_stream(7, 50'000);
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    {
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
    }
    engine.flush();  // barrier + republish
    const auto view = engine.acquire_snapshot();
    EXPECT_EQ(view->total_weight(), exact.total_weight());
    EXPECT_GE(view.epoch(), 2u);  // construction + the flush republish
    for (const auto& [id, f] : exact.counts()) {
        ASSERT_LE(view->lower_bound(id), f) << id;
        ASSERT_GE(view->upper_bound(id), f) << id;
    }
}

TEST(EngineSnapshotService, DisableReturnsReadsToFoldOnDemand) {
    engine_config cfg;
    cfg.num_shards = 2;
    stream_engine<> engine(cfg);
    // A long interval leaves the enable-time publish as the only one, so
    // the counts below do not depend on when the publisher thread runs.
    engine.enable_snapshot_service(std::chrono::hours(1));
    EXPECT_TRUE(engine.snapshot_service_enabled());
    engine.disable_snapshot_service();
    EXPECT_FALSE(engine.snapshot_service_enabled());
    EXPECT_THROW((void)engine.acquire_snapshot(), std::invalid_argument);
    // Stats are monotonic for the engine's lifetime: the enable-time
    // publish survives the disable instead of resetting to zero.
    EXPECT_EQ(engine.snapshot_stats().publishes, 1u);
    // fold-on-demand still works
    auto p = engine.make_producer();
    p.push(3, 2);
    p.flush();
    engine.flush();
    EXPECT_EQ(engine.snapshot().estimate(3), 2u);
    // Re-enabling accumulates on top of the retired service's totals
    // rather than starting a fresh count.
    engine.enable_snapshot_service(std::chrono::hours(1));
    const auto stats = engine.snapshot_stats();
    EXPECT_EQ(stats.publishes, 2u);  // first service's publish + new enable's
    engine.disable_snapshot_service();
    EXPECT_EQ(engine.snapshot_stats().publishes, stats.publishes);
}

TEST(EngineSnapshotService, AdvanceEpochRepublishesClockConsistentViews) {
    using windowed = basic_frequent_items<std::uint64_t, std::uint64_t, epoch_window>;
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 1, .window_epochs = 2};
    stream_engine<std::uint64_t, std::uint64_t, windowed> engine(cfg);
    engine.enable_snapshot_service(std::chrono::hours(1));

    {
        auto producer = engine.make_producer();
        producer.push(11, 4);
        producer.flush();
    }
    engine.flush();
    EXPECT_EQ(engine.acquire_snapshot()->estimate(11), 4u);

    // Each tick republishes synchronously: the cached view's clock tracks
    // the engine's, and data falls out of the window exactly on time.
    engine.advance_epoch();
    EXPECT_EQ(engine.acquire_snapshot().policy_clock(), 1u);
    EXPECT_EQ(engine.acquire_snapshot()->estimate(11), 4u);  // still in window
    engine.advance_epoch(2);
    EXPECT_EQ(engine.acquire_snapshot().policy_clock(), 3u);
    EXPECT_EQ(engine.acquire_snapshot()->estimate(11), 0u);  // evicted
}

// --- cached-view NFP/NFN guarantees through the façade -------------------------

std::unordered_set<std::uint64_t> returned_ids(const result_set& rs) {
    std::unordered_set<std::uint64_t> out;
    for (const auto& r : rs) {
        out.insert(r.id);
    }
    return out;
}

/// NFP: every returned item truly exceeds the threshold. NFN: every item
/// truly above the threshold is returned. Same contract as the direct-read
/// façade tests (test_api_builder.cpp), answered from the cached view.
void check_threshold_modes(const summarizer& s,
                           const std::unordered_map<std::uint64_t, double>& truth,
                           double threshold, double rel_tol = 0.0) {
    ASSERT_TRUE(s.snapshot_service_enabled());
    const double slack = rel_tol * threshold;

    const auto nfp = s.frequent_items(error_mode::no_false_positives, threshold);
    for (const auto& r : nfp) {
        const auto it = truth.find(r.id);
        ASSERT_NE(it, truth.end()) << "NFP returned a never-seen id " << r.id;
        EXPECT_GT(it->second + slack, threshold)
            << "false positive: id " << r.id << " true=" << it->second;
    }

    const auto nfn = s.frequent_items(error_mode::no_false_negatives, threshold);
    const auto ids = returned_ids(nfn);
    for (const auto& [id, f] : truth) {
        if (f > threshold + slack) {
            EXPECT_TRUE(ids.contains(id))
                << "false negative: id " << id << " true=" << f;
        }
    }
}

TEST(CachedViewQueries, PlainAgainstExactCounter) {
    const auto stream = test_stream(21);
    auto s = builder()
                 .max_counters(512)
                 .seed(1)
                 .sharded(3)
                 .snapshot_every(std::chrono::milliseconds(2))
                 .build();
    exact_counter<std::uint64_t, std::uint64_t> exact;
    s.update(std::span<const update64>(stream.data(), stream.size()));
    exact.consume(stream);
    s.flush();  // barrier + republish: the cached view is stream-complete

    EXPECT_EQ(s.total_weight(), static_cast<double>(exact.total_weight()));
    std::unordered_map<std::uint64_t, double> truth;
    for (const auto& [id, f] : exact.counts()) {
        truth[id] = static_cast<double>(f);
    }
    for (const double phi : {0.002, 0.01}) {
        check_threshold_modes(s, truth, phi * s.total_weight());
    }
}

TEST(CachedViewQueries, FadingAgainstExactDecayedCounts) {
    constexpr double rho = 0.5;
    auto s = builder()
                 .max_counters(512)
                 .seed(2)
                 .fading(rho)
                 .sharded(3)
                 .snapshot_every(std::chrono::milliseconds(2))
                 .build();
    std::unordered_map<std::uint64_t, double> truth;
    for (int epoch = 0; epoch < 4; ++epoch) {
        const auto stream = test_stream(60 + static_cast<std::uint64_t>(epoch), 50'000);
        for (const auto& u : stream) {
            s.update(u.id, static_cast<double>(u.weight));
            truth[u.id] += static_cast<double>(u.weight);
        }
        if (epoch < 3) {
            s.tick();  // flush + advance + republish
            for (auto& [id, f] : truth) {
                f *= rho;
            }
        }
    }
    s.flush();
    check_threshold_modes(s, truth, 0.005 * s.total_weight(), /*rel_tol=*/1e-9);
}

TEST(CachedViewQueries, WindowedAgainstLastEpochsOnly) {
    constexpr std::uint32_t window = 3;
    auto s = builder()
                 .max_counters(512)
                 .seed(3)
                 .sliding_window(window)
                 .sharded(3)
                 .snapshot_every(std::chrono::milliseconds(2))
                 .build();
    std::vector<std::unordered_map<std::uint64_t, double>> per_epoch;
    for (int epoch = 0; epoch < 6; ++epoch) {
        per_epoch.emplace_back();
        const auto stream = test_stream(80 + static_cast<std::uint64_t>(epoch), 50'000);
        for (const auto& u : stream) {
            s.update(u.id, static_cast<double>(u.weight));
            per_epoch.back()[u.id] += static_cast<double>(u.weight);
        }
        if (epoch < 5) {
            s.tick();
        }
    }
    s.flush();
    std::unordered_map<std::uint64_t, double> truth;
    for (std::size_t e = per_epoch.size() - window; e < per_epoch.size(); ++e) {
        for (const auto& [id, f] : per_epoch[e]) {
            truth[id] += f;
        }
    }
    double n = 0;
    for (const auto& [id, f] : truth) {
        n += f;
    }
    EXPECT_DOUBLE_EQ(s.total_weight(), n) << "cached view must exclude evicted epochs";
    check_threshold_modes(s, truth, 0.005 * s.total_weight());
}

TEST(CachedViewQueries, StandaloneSummarizersRejectTheService) {
    auto s = builder().max_counters(64).build();
    EXPECT_FALSE(s.snapshot_service_enabled());
    EXPECT_EQ(s.snapshot_epoch(), 0u);
    EXPECT_THROW(s.enable_snapshot_service(std::chrono::milliseconds(1)),
                 std::invalid_argument);
    EXPECT_THROW(builder()
                     .max_counters(64)
                     .snapshot_every(std::chrono::milliseconds(1))
                     .build(),
                 std::invalid_argument);
    s.disable_snapshot_service();  // no-op, never throws
}

TEST(CachedViewQueries, EnableDisableRoundTripsAtRuntime) {
    auto s = builder().max_counters(128).sharded(2).build();
    EXPECT_FALSE(s.snapshot_service_enabled());
    for (int i = 0; i < 1'000; ++i) {
        s.update(static_cast<std::uint64_t>(i % 10), 1.0);
    }
    s.flush();
    const double direct = s.total_weight();

    s.enable_snapshot_service(std::chrono::milliseconds(1));
    EXPECT_TRUE(s.snapshot_service_enabled());
    EXPECT_GE(s.snapshot_epoch(), 1u);
    EXPECT_EQ(s.total_weight(), direct);  // cached view of the same stream
    EXPECT_EQ(s.estimate(3), 100.0);

    s.disable_snapshot_service();
    EXPECT_FALSE(s.snapshot_service_enabled());
    EXPECT_EQ(s.snapshot_epoch(), 0u);
    EXPECT_EQ(s.total_weight(), direct);  // fold-on-demand again
}

}  // namespace
}  // namespace freq
