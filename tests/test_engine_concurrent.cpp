/// Concurrency tests for the sharded ingestion engine: multi-producer
/// ingestion must reproduce the sequential sketch's guarantees (Theorem 4's
/// error envelope, exact totals, bracketing bounds), snapshots must be safe
/// and valid while ingestion is running, and the whole pipeline must be
/// deterministic for a fixed producer order.

#include "engine/stream_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "api/summary_bytes.h"
#include "core/frequent_items_sketch.h"
#include "random/xoshiro.h"
#include "stream/exact_counter.h"
#include "stream/generators.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

update_stream<std::uint64_t, std::uint64_t> zipf11_stream(std::uint64_t n,
                                                          std::uint64_t seed) {
    zipf_stream_generator gen({.num_updates = n,
                               .num_distinct = n / 10,
                               .alpha = 1.1,
                               .min_weight = 1,
                               .max_weight = 100,
                               .seed = seed});
    return gen.generate();
}

TEST(StreamEngine, ConfigValidation) {
    engine_config cfg;
    cfg.num_shards = 0;
    EXPECT_THROW({ stream_engine<> e(cfg); }, std::invalid_argument);
    cfg.num_shards = 1;
    cfg.num_producers = 0;
    EXPECT_THROW({ stream_engine<> e(cfg); }, std::invalid_argument);
}

TEST(StreamEngine, MakeProducerOverAllocationThrows) {
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    stream_engine<> engine(cfg);
    auto p = engine.make_producer();
    EXPECT_THROW(engine.make_producer(), std::invalid_argument);
}

TEST(StreamEngine, ProducerSlotsRecycleAfterDestruction) {
    // num_producers bounds *live* producers, not total ever created: a
    // destroyed producer's slot (and its rings) serves the next one — the
    // façade's short-lived feeders (api/summarizer.h) rely on this.
    engine_config cfg;
    cfg.num_shards = 2;
    cfg.num_producers = 1;
    stream_engine<> engine(cfg);
    for (int round = 0; round < 4; ++round) {
        auto p = engine.make_producer();
        p.push(7, 1);
        p.flush();
    }
    engine.flush();
    EXPECT_EQ(engine.snapshot().estimate(7), 4u);
}

TEST(StreamEngine, EmptyEngineSnapshots) {
    engine_config cfg;
    cfg.num_shards = 4;
    stream_engine<> engine(cfg);
    const auto snap = engine.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.total_weight(), 0u);
}

TEST(StreamEngine, ShardRoutingIsTotalAndStable) {
    engine_config cfg;
    cfg.num_shards = 5;  // deliberately not a power of two
    stream_engine<> engine(cfg);
    for (std::uint64_t id = 0; id < 1000; ++id) {
        const auto s = engine.shard_of(id);
        EXPECT_LT(s, 5u);
        EXPECT_EQ(s, engine.shard_of(id));  // stable
    }
}

// Invalid weights must be rejected in the *caller's* thread at push() —
// were they validated worker-side, the exception would unwind a shard
// worker and terminate the process.
TEST(StreamEngine, NegativeWeightRejectedAtPush) {
    engine_config cfg;
    cfg.num_shards = 2;
    stream_engine<std::uint64_t, double> engine(cfg);
    auto producer = engine.make_producer();
    producer.push(1, 2.5);
    EXPECT_THROW(producer.push(2, -1.0), std::invalid_argument);
    producer.flush();
    engine.flush();
    const auto snap = engine.snapshot();
    EXPECT_EQ(snap.total_weight(), 2.5);
}

// The tentpole acceptance test: P producer threads push a Zipf(1.1) stream
// through a 4-shard engine; the merged snapshot must match a sequential
// frequent_items_sketch over the same stream within the Theorem 4 error
// envelope, and totals must be exact.
TEST(StreamEngineConcurrent, SnapshotMatchesSequentialWithinTheorem4Bound) {
    constexpr std::uint32_t k = 512;
    constexpr std::uint64_t n = 400'000;
    constexpr unsigned producers = 4;
    const auto stream = zipf11_stream(n, 77);

    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    sketch_u64 sequential(sketch_config{.max_counters = k, .seed = 1});
    sequential.consume(stream);

    engine_config cfg;
    cfg.num_shards = 4;
    cfg.num_producers = producers;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 1};
    stream_engine<> engine(cfg);
    {
        std::vector<stream_engine<>::producer> handles;
        handles.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
            handles.push_back(engine.make_producer());
        }
        std::vector<std::thread> threads;
        for (unsigned p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                const std::size_t begin = stream.size() * p / producers;
                const std::size_t end = stream.size() * (p + 1) / producers;
                handles[p].push(std::span<const update64>(stream.data() + begin, end - begin));
                handles[p].flush();
            });
        }
        for (auto& t : threads) {
            t.join();
        }
    }
    engine.flush();
    const auto snap = engine.snapshot();

    // Totals are exact (no update lost or duplicated across rings/shards).
    EXPECT_EQ(snap.total_weight(), exact.total_weight());

    // Bounds bracket the truth for every key, exactly as for the
    // sequential sketch (Theorems 4 + 5).
    for (const auto& [id, f] : exact.counts()) {
        ASSERT_LE(snap.lower_bound(id), f) << id;
        ASSERT_GE(snap.upper_bound(id), f) << id;
    }

    // Theorem 4 envelope with j = 0 (N^res(0) = N), which survives merging
    // because per-shard stream weights sum to N: offset_merged <=
    // sum_s N_s / (0.33 k) = N / (0.33 k).
    const double bound =
        static_cast<double>(exact.total_weight()) / (0.33 * static_cast<double>(k));
    EXPECT_LE(static_cast<double>(snap.maximum_error()), bound);
    EXPECT_LE(static_cast<double>(sequential.maximum_error()), bound);

    // Engine and sequential estimates agree within their combined error.
    const auto tolerance = snap.maximum_error() + sequential.maximum_error();
    for (const auto& r : sequential.top_items(50)) {
        const auto engine_est = snap.estimate(r.id);
        const auto hi = r.estimate + tolerance;
        const auto lo = r.estimate > tolerance ? r.estimate - tolerance : 0;
        ASSERT_GE(engine_est, lo) << r.id;
        ASSERT_LE(engine_est, hi) << r.id;
    }

    const auto st = engine.stats();
    EXPECT_EQ(st.updates_enqueued, n);
    EXPECT_EQ(st.updates_applied, n);
    EXPECT_GE(st.batches_applied, 1u);
}

// Snapshots taken *while* producers are pushing must always be internally
// consistent summaries (monotone totals, bounds coherent with the final
// exact counts), and must never deadlock or tear.
TEST(StreamEngineConcurrent, LiveSnapshotsAreConsistent) {
    constexpr std::uint32_t k = 256;
    constexpr std::uint64_t n = 300'000;
    const auto stream = zipf11_stream(n, 31);
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);

    engine_config cfg;
    cfg.num_shards = 3;
    cfg.num_producers = 1;
    cfg.sketch = sketch_config{.max_counters = k, .seed = 5};
    stream_engine<> engine(cfg);

    std::atomic<bool> done{false};
    std::vector<sketch_u64> snaps;
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            snaps.push_back(engine.snapshot());
            std::this_thread::yield();
        }
    });

    auto producer = engine.make_producer();
    producer.push(std::span<const update64>(stream.data(), stream.size()));
    producer.flush();
    engine.flush();
    done.store(true, std::memory_order_release);
    reader.join();
    snaps.push_back(engine.snapshot());

    ASSERT_FALSE(snaps.empty());
    std::uint64_t prev_total = 0;
    for (const auto& snap : snaps) {
        // Totals only grow (per-shard totals are monotone and merging sums
        // them; the reader clones shards one by one, so a snapshot's total
        // is bounded by what had been applied when its last shard was
        // cloned — always <= the final total).
        EXPECT_LE(snap.total_weight(), exact.total_weight());
        EXPECT_LE(snap.maximum_error(),
                  static_cast<std::uint64_t>(static_cast<double>(exact.total_weight()) /
                                             (0.33 * static_cast<double>(k))));
        // A mid-stream snapshot is a valid summary of a *prefix union*: its
        // lower bounds can never exceed the final true frequency.
        snap.for_each([&](std::uint64_t id, std::uint64_t c) {
            EXPECT_LE(c, exact.frequency(id)) << id;
        });
        prev_total = std::max(prev_total, snap.total_weight());
    }
    // The final snapshot covers the full stream.
    EXPECT_EQ(snaps.back().total_weight(), exact.total_weight());
}

// Total-weight conservation under ingest: while P producer threads are
// mid-flight, a reader folds snapshots continuously. Sequential snapshots
// must observe monotonically non-decreasing totals (per-shard totals only
// grow and clones are taken shard-after-shard), no snapshot may exceed the
// weight actually fed, and once producers finish and the engine drains, the
// merged N must equal the items fed exactly — nothing lost in rings,
// staging buffers or shard hand-off, and nothing double-counted by the
// clone-then-merge fold.
TEST(StreamEngineConcurrent, TotalWeightConservedWhileProducersMidFlight) {
    constexpr unsigned producers = 3;
    constexpr std::uint64_t per_producer = 60'000;
    constexpr std::uint64_t weight = 3;
    constexpr std::uint64_t total_fed = producers * per_producer * weight;

    engine_config cfg;
    cfg.num_shards = 4;
    cfg.num_producers = producers;
    cfg.ring_capacity = 512;  // small rings: snapshots race live backpressure
    cfg.sketch = sketch_config{.max_counters = 256, .seed = 9};
    stream_engine<> engine(cfg);

    std::atomic<bool> done{false};
    std::vector<std::uint64_t> observed;
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            observed.push_back(engine.snapshot().total_weight());
        }
    });

    {
        std::vector<stream_engine<>::producer> handles;
        handles.reserve(producers);
        for (unsigned p = 0; p < producers; ++p) {
            handles.push_back(engine.make_producer());
        }
        std::vector<std::thread> threads;
        for (unsigned p = 0; p < producers; ++p) {
            threads.emplace_back([&, p] {
                xoshiro256ss rng(100 + p);
                for (std::uint64_t i = 0; i < per_producer; ++i) {
                    handles[p].push(rng() % 50'000, weight);
                }
                handles[p].flush();
            });
        }
        for (auto& t : threads) {
            t.join();
        }
    }
    engine.flush();
    done.store(true, std::memory_order_release);
    reader.join();

    std::uint64_t prev = 0;
    for (const std::uint64_t n : observed) {
        EXPECT_GE(n, prev) << "snapshot totals must be monotone";
        EXPECT_LE(n, total_fed) << "snapshot saw weight that was never fed";
        prev = n;
    }
    // Conservation: merged N equals items fed, to the unit.
    EXPECT_EQ(engine.snapshot().total_weight(), total_fed);
    const auto st = engine.stats();
    EXPECT_EQ(st.updates_enqueued, producers * per_producer);
    EXPECT_EQ(st.updates_applied, producers * per_producer);
}

// For a fixed producer order the engine is deterministic: batching
// boundaries and worker timing must not leak into the result. (Batched
// update is semantically identical to element-wise update, rings are FIFO,
// and keys are partitioned per shard.) At every shard count totals are
// exact and bounds bracket the truth; one shard (seed + 0) is bit-identical
// to a sequential sketch over the same stream.
TEST(StreamEngineConcurrent, DeterministicForFixedProducerOrder) {
    const auto stream = zipf11_stream(100'000, 13);
    const sketch_config sketch{.max_counters = 128, .seed = 3};
    exact_counter<std::uint64_t, std::uint64_t> exact;
    exact.consume(stream);
    sketch_u64 sequential(sketch);
    sequential.consume(stream);
    auto run = [&](std::uint32_t shards) {
        engine_config cfg;
        cfg.num_shards = shards;
        cfg.sketch = sketch;
        cfg.ring_capacity = 256;  // small ring: exercise backpressure too
        stream_engine<> engine(cfg);
        auto producer = engine.make_producer();
        producer.push(std::span<const update64>(stream.data(), stream.size()));
        producer.flush();
        engine.flush();
        return engine.snapshot();
    };
    for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
        SCOPED_TRACE(shards);
        const auto a = run(shards);
        const auto b = shards == 1 ? sequential : run(shards);
        EXPECT_EQ(a.total_weight(), b.total_weight());
        EXPECT_EQ(a.maximum_error(), b.maximum_error());
        EXPECT_EQ(a.num_counters(), b.num_counters());
        a.for_each([&](std::uint64_t id, std::uint64_t c) {
            EXPECT_EQ(b.lower_bound(id), c) << id;
        });
        EXPECT_EQ(a.total_weight(), exact.total_weight());
        for (const auto& [id, f] : exact.counts()) {
            ASSERT_LE(a.lower_bound(id), f) << id;
            ASSERT_GE(a.upper_bound(id), f) << id;
        }
    }
}

// Weighted heavy hitters survive sharding: the dominant key lands in one
// shard and must dominate the merged snapshot.
TEST(StreamEngineConcurrent, HeavyHitterSurvivesSharding) {
    engine_config cfg;
    cfg.num_shards = 8;
    cfg.num_producers = 2;
    cfg.sketch = sketch_config{.max_counters = 64, .seed = 2};
    stream_engine<> engine(cfg);
    {
        auto p0 = engine.make_producer();
        auto p1 = engine.make_producer();
        std::thread t([&] {
            xoshiro256ss rng(5);
            for (int i = 0; i < 50'000; ++i) {
                p1.push(rng() | (1ULL << 50), 30);
            }
            p1.flush();
        });
        for (int i = 0; i < 25'000; ++i) {
            p0.push(42, 100);
        }
        p0.flush();
        t.join();
    }
    engine.flush();
    const auto snap = engine.snapshot();
    const auto rows =
        snap.frequent_items(error_type::no_false_negatives, snap.total_weight() / 10);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].id, 42u);
}

// The batched update path must be byte-for-byte equivalent to element-wise
// updates (same rng consumption, same table state) — the engine and the
// sequential API must never diverge on the same ordered stream.
TEST(BatchedUpdate, EquivalentToElementwiseUpdates) {
    const auto stream = zipf11_stream(80'000, 99);
    const sketch_config cfg{.max_counters = 128, .seed = 11};
    sketch_u64 batched(cfg);
    sketch_u64 elementwise(cfg);
    // Apply in irregular batch sizes, including empty and size-1 spans.
    std::size_t i = 0;
    std::size_t burst = 1;
    while (i < stream.size()) {
        const std::size_t take = std::min(burst, stream.size() - i);
        batched.update(std::span<const update64>(stream.data() + i, take));
        i += take;
        burst = (burst * 7 + 3) % 1000;
    }
    for (const auto& u : stream) {
        elementwise.update(u.id, u.weight);
    }
    EXPECT_EQ(batched.total_weight(), elementwise.total_weight());
    EXPECT_EQ(batched.maximum_error(), elementwise.maximum_error());
    EXPECT_EQ(batched.num_counters(), elementwise.num_counters());
    EXPECT_EQ(batched.num_decrements(), elementwise.num_decrements());
    elementwise.for_each([&](std::uint64_t id, std::uint64_t c) {
        EXPECT_EQ(batched.lower_bound(id), c) << id;
    });
    // Zero weights are skipped in batches exactly as element-wise.
    const update64 zeros[] = {{1, 0}, {2, 0}};
    const auto before = batched.total_weight();
    batched.update(std::span<const update64>(zeros, 2));
    EXPECT_EQ(batched.total_weight(), before);
}

// Span-fed and item-fed sketches save byte-identical envelopes, and still do
// after both take the same further updates (so the decrement-round RNG
// advanced identically too). In the stream a new key comes back within four
// items, with misses on a full table between the two occurrences, so
// decrement rounds compact the table while the key is in flight.
template <typename Sketch>
void expect_span_ingest_byte_identical(const sketch_config& cfg) {
    using W = typename Sketch::weight_type;
    using U = update<std::uint64_t, W>;
    xoshiro256ss rng(cfg.seed);
    std::vector<U> stream;
    for (std::uint64_t r = 0; r < 4'000; ++r) {
        const std::uint64_t fresh = 1'000'000 + 3 * r;
        stream.push_back({fresh, W(2)});
        stream.push_back({fresh + 1, W(1)});
        stream.push_back({fresh + 2, W(1)});
        stream.push_back({fresh, W(3)});
        for (int h = 0; h < 6; ++h) {
            stream.push_back({1 + rng.below(12), static_cast<W>(1 + rng.below(9))});
        }
    }
    Sketch spans(cfg);
    Sketch items(cfg);
    const std::span<const U> all(stream.data(), stream.size());
    constexpr std::size_t epoch = 2'000;
    for (std::size_t e = 0; e < all.size(); e += epoch) {
        const auto part = all.subspan(e, std::min(epoch, all.size() - e));
        for (std::size_t at = 0; at < part.size();) {
            const std::size_t n = std::min<std::size_t>(1 + rng.below(40), part.size() - at);
            spans.update(part.subspan(at, n));
            at += n;
        }
        for (const auto& u : part) {
            items.update(u.id, u.weight);
        }
        spans.tick();
        items.tick();
    }
    ASSERT_GT(items.num_decrements(), 100u);
    EXPECT_EQ(spans.num_decrements(), items.num_decrements());
    EXPECT_EQ(envelope_save(spans).bytes(), envelope_save(items).bytes());
    for (std::uint64_t i = 0; i < 5'000; ++i) {
        const std::uint64_t id = 2'000'000 + rng.below(50);
        spans.update(id, W(1));
        items.update(id, W(1));
    }
    EXPECT_EQ(envelope_save(spans).bytes(), envelope_save(items).bytes());
}

TEST(BatchedUpdate, EnvelopesByteIdenticalToElementwise) {
    expect_span_ingest_byte_identical<sketch_u64>(
        sketch_config{.max_counters = 8, .sample_size = 4, .seed = 3});
    expect_span_ingest_byte_identical<
        basic_frequent_items<std::uint64_t, double, exponential_fading>>(
        sketch_config{.max_counters = 8, .sample_size = 4, .seed = 5, .decay = 0.9});
    expect_span_ingest_byte_identical<
        basic_frequent_items<std::uint64_t, std::uint64_t, epoch_window>>(
        sketch_config{.max_counters = 8, .sample_size = 4, .seed = 7, .window_epochs = 3});
}

// A batch containing an invalid (negative) weight must be rejected before
// any element is applied — no half-ingested batch may leave counters
// unaccounted in total_weight().
TEST(BatchedUpdate, RejectsNegativeWeightsAtomically) {
    frequent_items_sketch<std::uint64_t, double> sketch(
        sketch_config{.max_counters = 16, .seed = 1});
    const update<std::uint64_t, double> bad[] = {{1, 5.0}, {2, -1.0}, {3, 7.0}};
    EXPECT_THROW(sketch.update(std::span<const update<std::uint64_t, double>>(bad, 3)),
                 std::invalid_argument);
    EXPECT_TRUE(sketch.empty());
    EXPECT_EQ(sketch.total_weight(), 0.0);
    EXPECT_EQ(sketch.lower_bound(1), 0.0);
}

}  // namespace
}  // namespace freq
