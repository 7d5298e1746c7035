/// Invariants of the lifetime-policy layer (core/lifetime_policy.h +
/// core/basic_frequent_items.h):
///
///  * plain_lifetime is bit-identical to frequent_items_sketch (which is a
///    thin adapter over it) — same RNG consumption, same table state;
///  * exponential_fading tracks exact decayed values while no decrement has
///    fired, satisfies the Theorem 4 envelope on total *decayed* weight
///    under pressure, renormalizes losslessly, and merges by aligning
///    logical clocks (Theorem 5 on decayed weight);
///  * epoch_window evicts expired epochs exactly, answers window queries
///    within the summed per-epoch envelope, and drops expired epochs on
///    merge;
///  * the string/signed adapters expose the same policies unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/basic_frequent_items.h"
#include "core/frequent_items_sketch.h"
#include "core/lifetime_policy.h"
#include "core/signed_frequent_items.h"
#include "core/string_frequent_items.h"
#include "random/xoshiro.h"
#include "random/zipf.h"
#include "stream/update.h"

namespace freq {
namespace {

using plain_u64 = basic_frequent_items<std::uint64_t, std::uint64_t, plain_lifetime>;
using fading_f64 = fading_frequent_items<std::uint64_t, double>;
using windowed_u64 = windowed_frequent_items<std::uint64_t, std::uint64_t>;

update_stream<std::uint64_t, std::uint64_t> zipf_stream(std::uint64_t n, std::uint64_t seed,
                                                        std::uint64_t distinct = 2'000,
                                                        std::uint64_t max_w = 50) {
    xoshiro256ss rng(seed);
    zipf_distribution zipf(distinct, 1.1);
    update_stream<std::uint64_t, std::uint64_t> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back({zipf(rng), rng.between(1, max_w)});
    }
    return out;
}

/// Brute-force reference for decayed frequencies: every tick multiplies all
/// accumulated weight by rho.
class exact_fading_counter {
public:
    explicit exact_fading_counter(double rho) : rho_(rho) {}

    void update(std::uint64_t id, double w) { counts_[id] += w; total_ += w; }
    void tick(std::uint64_t epochs = 1) {
        const double f = std::pow(rho_, static_cast<double>(epochs));
        for (auto& [id, c] : counts_) {
            c *= f;
        }
        total_ *= f;
    }
    double frequency(std::uint64_t id) const {
        const auto it = counts_.find(id);
        return it == counts_.end() ? 0.0 : it->second;
    }
    double total() const { return total_; }
    const std::unordered_map<std::uint64_t, double>& counts() const { return counts_; }

private:
    double rho_;
    std::unordered_map<std::uint64_t, double> counts_;
    double total_ = 0.0;
};

// --- plain --------------------------------------------------------------------

// frequent_items_sketch must be *the* plain instantiation: identical totals,
// offsets, decrement counts and per-id raw counters on the same stream.
TEST(PlainPolicy, BitIdenticalToFrequentItemsSketch) {
    const auto stream = zipf_stream(120'000, 42);
    const sketch_config cfg{.max_counters = 256, .seed = 9};
    plain_u64 core(cfg);
    frequent_items_sketch<std::uint64_t, std::uint64_t> sketch(cfg);
    for (const auto& u : stream) {
        core.update(u.id, u.weight);
        sketch.update(u.id, u.weight);
    }
    EXPECT_EQ(core.total_weight(), sketch.total_weight());
    EXPECT_EQ(core.maximum_error(), sketch.maximum_error());
    EXPECT_EQ(core.num_counters(), sketch.num_counters());
    EXPECT_EQ(core.num_decrements(), sketch.num_decrements());
    sketch.for_each([&](std::uint64_t id, std::uint64_t c) {
        EXPECT_EQ(core.lower_bound(id), c) << id;
    });

    // Merging the two spellings also interoperates (same base type).
    plain_u64 merged(sketch_config{.max_counters = 256, .seed = 17});
    merged.merge(core);
    merged.merge(sketch);
    EXPECT_EQ(merged.total_weight(), 2 * core.total_weight());
}

// tick() on the plain policy is a no-op — the clock does not exist.
TEST(PlainPolicy, TickIsNoOp) {
    plain_u64 s(64);
    s.update(7, 100);
    s.tick(50);
    EXPECT_EQ(s.lower_bound(7), 100u);
    EXPECT_EQ(s.total_weight(), 100u);
}

// --- exponential fading -------------------------------------------------------

// With no ticks the fading sketch behaves exactly like a plain sketch over
// doubles (inflation = 1, every hook multiplies by 1).
TEST(FadingPolicy, NoTicksMatchesPlain) {
    const auto stream = zipf_stream(60'000, 7);
    const sketch_config cfg{.max_counters = 128, .seed = 3, .decay = 0.5};
    fading_f64 fading(cfg);
    basic_frequent_items<std::uint64_t, double, plain_lifetime> plain(cfg);
    for (const auto& u : stream) {
        fading.update(u.id, static_cast<double>(u.weight));
        plain.update(u.id, static_cast<double>(u.weight));
    }
    EXPECT_DOUBLE_EQ(fading.total_weight(), plain.total_weight());
    EXPECT_DOUBLE_EQ(fading.maximum_error(), plain.maximum_error());
    EXPECT_EQ(fading.num_counters(), plain.num_counters());
}

TEST(FadingPolicy, RejectsInvalidDecay) {
    EXPECT_THROW(fading_f64(sketch_config{.max_counters = 8, .decay = 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(fading_f64(sketch_config{.max_counters = 8, .decay = 1.5}),
                 std::invalid_argument);
}

// While no decrement has fired (k larger than the number of distinct ids),
// lower bounds are the *exact* decayed frequencies.
TEST(FadingPolicy, ExactDecayedCountsWithoutPressure) {
    const double rho = 0.5;
    fading_f64 s(sketch_config{.max_counters = 1024, .seed = 1, .decay = rho});
    exact_fading_counter exact(rho);
    xoshiro256ss rng(11);
    for (int epoch = 0; epoch < 12; ++epoch) {
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t id = rng.below(100);
            const double w = 1.0 + static_cast<double>(rng.below(9));
            s.update(id, w);
            exact.update(id, w);
        }
        s.tick();
        exact.tick();
    }
    EXPECT_EQ(s.num_decrements(), 0u);
    EXPECT_NEAR(s.total_weight(), exact.total(), 1e-6 * exact.total());
    for (const auto& [id, f] : exact.counts()) {
        EXPECT_NEAR(s.lower_bound(id), f, 1e-6 * (1.0 + f)) << id;
        EXPECT_NEAR(s.estimate(id), f, 1e-6 * (1.0 + f)) << id;
    }
}

// Under counter pressure the Theorem 4 envelope holds on the total *decayed*
// weight: bounds bracket decayed truth, and the a-posteriori error bound is
// within N_decayed / (0.33 k). (The proof is Theorem 4 applied verbatim to
// the inflated stream, then divided by the inflation factor.)
TEST(FadingPolicy, Theorem4EnvelopeOnDecayedWeight) {
    const double rho = 0.8;
    constexpr std::uint32_t k = 128;
    fading_f64 s(sketch_config{.max_counters = k, .seed = 5, .decay = rho});
    exact_fading_counter exact(rho);
    xoshiro256ss rng(23);
    zipf_distribution zipf(3'000, 1.1);
    for (int epoch = 0; epoch < 10; ++epoch) {
        for (int i = 0; i < 30'000; ++i) {
            const std::uint64_t id = zipf(rng);
            const double w = 1.0 + static_cast<double>(rng.below(20));
            s.update(id, w);
            exact.update(id, w);
        }
        s.tick();
        exact.tick();
    }
    EXPECT_GT(s.num_decrements(), 0u);
    EXPECT_NEAR(s.total_weight(), exact.total(), 1e-6 * exact.total());
    const double tol = 1e-6 * exact.total();
    for (const auto& [id, f] : exact.counts()) {
        EXPECT_LE(s.lower_bound(id), f + tol) << id;
        EXPECT_GE(s.upper_bound(id), f - tol) << id;
    }
    EXPECT_LE(s.maximum_error(), exact.total() / (0.33 * k) + tol);
}

// Enough ticks to cross the 2^40 renormalization threshold several times:
// the landmark rebase must be value-preserving.
TEST(FadingPolicy, RenormalizationIsLossless) {
    const double rho = 0.5;  // inflation doubles per tick -> renorm every ~40 ticks
    fading_f64 s(sketch_config{.max_counters = 512, .seed = 2, .decay = rho});
    exact_fading_counter exact(rho);
    xoshiro256ss rng(3);
    for (int epoch = 0; epoch < 150; ++epoch) {
        for (int i = 0; i < 50; ++i) {
            const std::uint64_t id = rng.below(64);
            s.update(id, 10.0);
            exact.update(id, 10.0);
        }
        s.tick();
        exact.tick();
    }
    ASSERT_LT(s.policy().inflation(), exponential_fading::renorm_threshold * 2.0);
    EXPECT_NEAR(s.total_weight(), exact.total(), 1e-6 * exact.total());
    for (std::uint64_t id = 0; id < 64; ++id) {
        const double f = exact.frequency(id);
        EXPECT_NEAR(s.estimate(id), f, 1e-6 * (1.0 + f)) << id;
    }
}

// A bulk tick(n) must be equivalent to n single ticks (it takes the one-pass
// landmark-rebase path instead of looping), including across the
// renormalization threshold.
TEST(FadingPolicy, BulkTickMatchesSingleTicks) {
    const double rho = 0.5;  // threshold crossed every ~40 ticks
    const sketch_config cfg{.max_counters = 256, .seed = 12, .decay = rho};
    fading_f64 bulk(cfg);
    fading_f64 stepped(cfg);
    for (std::uint64_t id = 0; id < 50; ++id) {
        bulk.update(id, 1e12);
        stepped.update(id, 1e12);
    }
    constexpr std::uint64_t jump = 95;
    bulk.tick(jump);
    for (std::uint64_t e = 0; e < jump; ++e) {
        stepped.tick();
    }
    EXPECT_EQ(bulk.policy().now(), stepped.policy().now());
    EXPECT_NEAR(bulk.total_weight(), stepped.total_weight(),
                1e-9 * (1.0 + stepped.total_weight()));
    for (std::uint64_t id = 0; id < 50; ++id) {
        EXPECT_NEAR(bulk.estimate(id), stepped.estimate(id),
                    1e-9 * (1.0 + stepped.estimate(id)))
            << id;
    }
}

// The span path must leave the same real-valued total as item-by-item
// updates, bit for bit, however the stream is cut into spans: a sharded
// engine drains its ring in timing-dependent batches, and saved envelopes
// must not depend on that timing.
TEST(FadingPolicy, TotalWeightBitsIndependentOfSpanSplits) {
    const sketch_config cfg{.max_counters = 128, .seed = 4, .decay = 0.9};
    fading_f64 whole(cfg);
    fading_f64 split(cfg);
    fading_f64 items(cfg);
    xoshiro256ss rng(31);
    zipf_distribution zipf(5'000, 1.1);
    update_stream<std::uint64_t, double> epoch;
    for (int e = 0; e < 8; ++e) {
        epoch.clear();
        for (int i = 0; i < 20'000; ++i) {
            epoch.push_back({zipf(rng), 1.0 + 20.0 * rng.unit_real()});
        }
        const std::span<const update<std::uint64_t, double>> all(epoch.data(),
                                                                  epoch.size());
        whole.update(all);
        for (std::size_t at = 0; at < all.size();) {
            const std::size_t n = std::min<std::size_t>(1 + rng.below(700), all.size() - at);
            split.update(all.subspan(at, n));
            at += n;
        }
        for (const auto& u : epoch) {
            items.update(u.id, u.weight);
        }
        whole.tick();
        split.tick();
        items.tick();
    }
    ASSERT_GT(items.num_decrements(), 0u);
    const double totals[3] = {whole.total_weight(), split.total_weight(),
                              items.total_weight()};
    EXPECT_EQ(std::memcmp(&totals[0], &totals[2], sizeof(double)), 0)
        << totals[0] << " vs " << totals[2];
    EXPECT_EQ(std::memcmp(&totals[1], &totals[2], sizeof(double)), 0)
        << totals[1] << " vs " << totals[2];
}

// A jump so large that rho^epochs underflows decays every counter below any
// representable weight: the sketch must come back empty, in O(k) — not
// O(epochs).
TEST(FadingPolicy, HugeBulkTickDecaysEverything) {
    fading_f64 s(sketch_config{.max_counters = 64, .seed = 1, .decay = 0.5});
    s.update(1, 1e30);
    s.tick(10'000'000);
    EXPECT_EQ(s.policy().now(), 10'000'000u);
    EXPECT_EQ(s.total_weight(), 0.0);
    EXPECT_EQ(s.estimate(1), 0.0);
    EXPECT_TRUE(s.empty());
    s.update(2, 5.0);  // the sketch keeps working after the wipe
    EXPECT_NEAR(s.estimate(2), 5.0, 1e-12);
}

// merge() aligns the two logical clocks: merging a sketch that is behind in
// time decays its contribution by the tick difference; merging one that is
// ahead fast-forwards the target first. Against brute force on both orders.
TEST(FadingPolicy, MergeAlignsLogicalClocks) {
    const double rho = 0.5;
    const sketch_config cfg{.max_counters = 1024, .seed = 4, .decay = rho};
    auto make_pair_case = [&](bool merge_newer_into_older) {
        fading_f64 a(cfg);
        fading_f64 b(sketch_config{.max_counters = 1024, .seed = 77, .decay = rho});
        // a: 100 units on id 1 at epoch 0, clock stops at 3.
        a.update(1, 100.0);
        a.tick(3);
        // b: 80 units on id 2 at epoch 5; clock runs ahead to 7.
        b.tick(5);
        b.update(2, 80.0);
        b.tick(2);
        if (merge_newer_into_older) {
            a.merge(b);  // a (now=3) must fast-forward to 7
            return std::pair<double, double>(a.estimate(1), a.estimate(2));
        }
        b.merge(a);  // a's counters decay by the 4-tick gap on entry
        return std::pair<double, double>(b.estimate(1), b.estimate(2));
    };
    const double f1 = 100.0 * std::pow(rho, 7);  // id 1: 7 ticks of decay
    const double f2 = 80.0 * std::pow(rho, 2);   // id 2: 2 ticks of decay
    for (const bool order : {true, false}) {
        const auto [e1, e2] = make_pair_case(order);
        EXPECT_NEAR(e1, f1, 1e-9 * (1.0 + f1)) << "order=" << order;
        EXPECT_NEAR(e2, f2, 1e-9 * (1.0 + f2)) << "order=" << order;
    }
}

// Merging sketches with different decay factors is a contract violation.
TEST(FadingPolicy, MergeRequiresEqualDecay) {
    fading_f64 a(sketch_config{.max_counters = 8, .decay = 0.5});
    fading_f64 b(sketch_config{.max_counters = 8, .decay = 0.9});
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// The Theorem 5 merge envelope on decayed weight: partition a stream across
// two fading sketches with the same tick schedule, merge, and the combined
// offset stays within N_decayed / (0.33 k).
TEST(FadingPolicy, MergeStaysWithinDecayedEnvelope) {
    const double rho = 0.9;
    constexpr std::uint32_t k = 128;
    fading_f64 a(sketch_config{.max_counters = k, .seed = 10, .decay = rho});
    fading_f64 b(sketch_config{.max_counters = k, .seed = 11, .decay = rho});
    exact_fading_counter exact(rho);
    xoshiro256ss rng(31);
    zipf_distribution zipf(2'000, 1.1);
    for (int epoch = 0; epoch < 6; ++epoch) {
        for (int i = 0; i < 25'000; ++i) {
            const std::uint64_t id = zipf(rng);
            const double w = 1.0 + static_cast<double>(rng.below(10));
            ((id & 1) ? a : b).update(id, w);
            exact.update(id, w);
        }
        a.tick();
        b.tick();
        exact.tick();
    }
    a.merge(b);
    const double tol = 1e-6 * exact.total();
    EXPECT_NEAR(a.total_weight(), exact.total(), tol);
    EXPECT_LE(a.maximum_error(), exact.total() / (0.33 * k) + tol);
    for (const auto& [id, f] : exact.counts()) {
        EXPECT_LE(a.lower_bound(id), f + tol) << id;
        EXPECT_GE(a.upper_bound(id), f - tol) << id;
    }
}

// --- epoch window -------------------------------------------------------------

// Eviction is exact: with k large enough that every epoch summary is exact,
// the window total equals the exact sum over the last `window` epochs, and
// items last seen before the window report 0.
TEST(WindowPolicy, EvictionDropsExpiredEpochsExactly) {
    constexpr std::uint32_t window = 3;
    windowed_u64 s(sketch_config{.max_counters = 4096, .seed = 1, .window_epochs = window});
    std::vector<std::uint64_t> epoch_weight;
    for (std::uint64_t epoch = 0; epoch < 10; ++epoch) {
        // Epoch e touches ids [1000e, 1000e + 500): disjoint across epochs.
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < 500; ++i) {
            const std::uint64_t w = 1 + (i % 7);
            s.update(1000 * epoch + i, w);
            total += w;
        }
        epoch_weight.push_back(total);

        // Window covers epochs (epoch - window, epoch].
        std::uint64_t expect = 0;
        for (std::uint64_t e = epoch >= window - 1 ? epoch - (window - 1) : 0; e <= epoch;
             ++e) {
            expect += epoch_weight[e];
        }
        ASSERT_EQ(s.total_weight(), expect) << "epoch " << epoch;

        // Ids of the epoch that just slid out vanish entirely.
        if (epoch >= window) {
            const std::uint64_t expired = 1000 * (epoch - window);
            ASSERT_EQ(s.estimate(expired), 0u);
            ASSERT_EQ(s.upper_bound(expired), 0u);  // no offsets: exact epochs
        }
        // Ids still inside the window report their exact weight.
        ASSERT_EQ(s.lower_bound(1000 * epoch), 1u + 0);
        s.tick();
    }
    EXPECT_EQ(s.now(), 10u);
    EXPECT_EQ(s.window_epochs(), window);
}

// Window queries under counter pressure: bounds bracket the exact windowed
// counts and the summed per-epoch offsets obey the summed envelope
// N_window / (0.33 k).
TEST(WindowPolicy, WindowQueriesWithinSummedEnvelope) {
    constexpr std::uint32_t window = 4;
    constexpr std::uint32_t k = 256;
    windowed_u64 s(sketch_config{.max_counters = k, .seed = 6, .window_epochs = window});
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> per_epoch;
    xoshiro256ss rng(8);
    zipf_distribution zipf(5'000, 1.1);
    constexpr int total_epochs = 9;
    for (int epoch = 0; epoch < total_epochs; ++epoch) {
        per_epoch.emplace_back();
        for (int i = 0; i < 40'000; ++i) {
            const std::uint64_t id = zipf(rng);
            const std::uint64_t w = 1 + rng.below(8);
            s.update(id, w);
            per_epoch.back()[id] += w;
        }
        if (epoch + 1 < total_epochs) {
            s.tick();
        }
    }
    // Exact counts over the final window (last `window` epochs).
    std::unordered_map<std::uint64_t, std::uint64_t> exact;
    std::uint64_t exact_total = 0;
    for (int e = total_epochs - window; e < total_epochs; ++e) {
        for (const auto& [id, w] : per_epoch[e]) {
            exact[id] += w;
            exact_total += w;
        }
    }
    EXPECT_EQ(s.total_weight(), exact_total);
    for (const auto& [id, f] : exact) {
        ASSERT_LE(s.lower_bound(id), f) << id;
        ASSERT_GE(s.upper_bound(id), f) << id;
    }
    EXPECT_LE(static_cast<double>(s.maximum_error()),
              static_cast<double>(exact_total) / (0.33 * k));

    // The merged-on-query summary agrees with the per-point bounds.
    const auto folded = s.summarize();
    EXPECT_EQ(folded.total_weight(), exact_total);
    for (const auto& [id, f] : exact) {
        ASSERT_GE(folded.upper_bound(id), f) << id;
    }
    // Heavy hitters over the window honour the no-false-negatives contract.
    const std::uint64_t threshold =
        std::max(exact_total / 50, static_cast<std::uint64_t>(s.maximum_error()));
    std::vector<std::uint64_t> reported;
    for (const auto& r : s.frequent_items(error_type::no_false_negatives, threshold)) {
        reported.push_back(r.id);
    }
    for (const auto& [id, f] : exact) {
        if (f > threshold) {
            EXPECT_NE(std::find(reported.begin(), reported.end(), id), reported.end())
                << "missed windowed heavy hitter " << id;
        }
    }
}

// Epoch-aligned merge: epochs with the same absolute number fold together;
// epochs that have already slid out of the target's window are dropped.
TEST(WindowPolicy, MergeAlignsAndDropsExpiredEpochs) {
    constexpr std::uint32_t window = 3;
    const sketch_config cfg{.max_counters = 1024, .seed = 2, .window_epochs = window};
    const sketch_config cfg_b{.max_counters = 1024, .seed = 40, .window_epochs = window};

    // a holds epochs 3..5 (now = 5); b holds epochs 0..2 (now = 2).
    windowed_u64 a(cfg);
    for (std::uint64_t e = 0; e <= 5; ++e) {
        if (e >= 3) {
            a.update(e, 10 * e);
        }
        if (e < 5) {
            a.tick();
        }
    }
    windowed_u64 b(cfg_b);
    for (std::uint64_t e = 0; e <= 2; ++e) {
        b.update(100 + e, 7);
        if (e < 2) {
            b.tick();
        }
    }
    const std::uint64_t a_total = a.total_weight();

    // All of b's epochs predate a's window: merging adds nothing.
    windowed_u64 a_copy = a;
    a_copy.merge(b);
    EXPECT_EQ(a_copy.now(), 5u);
    EXPECT_EQ(a_copy.total_weight(), a_total);
    EXPECT_EQ(a_copy.estimate(100), 0u);

    // Merging a into b fast-forwards b to epoch 5, evicting b's own history
    // before folding a's live epochs.
    b.merge(a);
    EXPECT_EQ(b.now(), 5u);
    EXPECT_EQ(b.total_weight(), a_total);
    EXPECT_EQ(b.estimate(100), 0u);
    EXPECT_EQ(b.estimate(4), 40u);

    // Same-clock merge folds epoch-wise: totals add.
    windowed_u64 c(cfg_b);
    c.tick(5);
    c.update(4, 5);
    c.merge(a);
    EXPECT_EQ(c.total_weight(), a_total + 5);
    EXPECT_EQ(c.estimate(4), 45u);
}

// A jump of >= window epochs replaces the whole ring in O(window): all old
// epochs evict, the clock lands exactly, and subsequent epoch-aligned
// merges still line up.
TEST(WindowPolicy, BulkTickReplacesWholeRing) {
    constexpr std::uint32_t window = 3;
    const sketch_config cfg{.max_counters = 64, .seed = 3, .window_epochs = window};
    windowed_u64 s(cfg);
    s.update(1, 100);
    s.tick();
    s.update(2, 200);
    s.tick(1'000'000);  // O(window), not O(epochs)
    EXPECT_EQ(s.now(), 1'000'001u);
    EXPECT_EQ(s.total_weight(), 0u);
    EXPECT_EQ(s.estimate(1), 0u);
    s.update(3, 50);
    EXPECT_EQ(s.total_weight(), 50u);

    // Epoch alignment survives the jump: a same-clock peer merges in place.
    windowed_u64 peer(sketch_config{.max_counters = 64, .seed = 9, .window_epochs = window});
    peer.tick(1'000'001);
    peer.update(3, 25);
    s.merge(peer);
    EXPECT_EQ(s.estimate(3), 75u);
}

TEST(WindowPolicy, MergeRequiresEqualWindow) {
    windowed_u64 a(sketch_config{.max_counters = 8, .window_epochs = 2});
    windowed_u64 b(sketch_config{.max_counters = 8, .window_epochs = 3});
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- adapters -----------------------------------------------------------------

// The string adapter exposes the fading policy: word counts decay per tick.
TEST(Adapters, StringSketchFades) {
    string_frequent_items<double, exponential_fading> s(
        sketch_config{.max_counters = 64, .seed = 1, .decay = 0.5});
    s.update("alpha", 8.0);
    s.update("beta", 2.0);
    s.tick(2);
    s.update("beta", 3.0);
    EXPECT_NEAR(s.estimate("alpha"), 2.0, 1e-9);
    EXPECT_NEAR(s.estimate("beta"), 3.5, 1e-9);
    EXPECT_NEAR(s.total_weight(), 5.5, 1e-9);
    const auto rows = s.frequent_items(error_type::no_false_negatives, 0.0);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].item, "beta");
}

// The string adapter exposes the window policy: old epochs age out whole.
TEST(Adapters, StringSketchWindowed) {
    string_frequent_items<double, epoch_window> s(
        sketch_config{.max_counters = 64, .seed = 1, .window_epochs = 2});
    s.update("old", 5.0);
    s.tick();
    s.update("new", 3.0);
    EXPECT_DOUBLE_EQ(s.estimate("old"), 5.0);  // still inside the 2-epoch window
    s.tick();
    EXPECT_DOUBLE_EQ(s.estimate("old"), 0.0);  // evicted exactly
    EXPECT_DOUBLE_EQ(s.estimate("new"), 3.0);
}

// The signed adapter ticks both halves together, so net estimates decay.
TEST(Adapters, SignedSketchFades) {
    signed_frequent_items<std::uint64_t, double, exponential_fading> s(
        sketch_config{.max_counters = 64, .seed = 1, .decay = 0.5});
    s.update(1, 12.0);
    s.update(1, -4.0);
    EXPECT_NEAR(s.estimate(1), 8.0, 1e-9);
    s.tick();
    EXPECT_NEAR(s.estimate(1), 4.0, 1e-9);
    EXPECT_NEAR(s.net_weight(), 4.0, 1e-9);
    EXPECT_NEAR(s.gross_weight(), 8.0, 1e-9);
}

}  // namespace
}  // namespace freq
