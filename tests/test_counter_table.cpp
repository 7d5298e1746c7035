#include "table/counter_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "hashing/hash.h"
#include "random/xoshiro.h"
#include "select/quickselect.h"

namespace freq {
namespace {

using table_u64 = counter_table<std::uint64_t, std::uint64_t>;

/// Structural invariant of §2.3.3: every occupied slot's state equals its
/// probe distance + 1, and the probe path from the key's preferred slot to
/// its current slot contains no empty cell (reachability).
template <typename K, typename W>
void check_invariants(const counter_table<K, W>& t) {
    std::uint32_t active = 0;
    for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
        if (!t.slot_occupied(s)) {
            continue;
        }
        ++active;
        const std::uint32_t home = t.home_slot(t.slot_key(s));
        const std::uint32_t dist = (s - home) & (t.num_slots() - 1);
        ASSERT_EQ(t.slot_state(s), dist + 1) << "state mismatch at slot " << s;
        for (std::uint32_t d = 0; d < dist; ++d) {
            ASSERT_TRUE(t.slot_occupied((home + d) & (t.num_slots() - 1)))
                << "probe path broken for slot " << s;
        }
        ASSERT_GT(t.slot_value(s), W{0}) << "non-positive counter survived";
    }
    ASSERT_EQ(active, t.size());
}

TEST(CounterTable, RejectsBadCapacity) {
    EXPECT_THROW(table_u64(0), std::invalid_argument);
}

TEST(CounterTable, SlotCountFollowsPaperRule) {
    // L = ceil_pow2(4k/3): k=24576 -> 32768 slots -> 18*32768 bytes, the
    // paper's "24 * k bytes" (§2.3.3).
    table_u64 t(24576);
    EXPECT_EQ(t.num_slots(), 32768u);
    EXPECT_EQ(t.memory_bytes(), 18u * 32768u);
    EXPECT_EQ(t.memory_bytes(), 24u * 24576u);
    EXPECT_EQ(table_u64::bytes_for(24576), 24u * 24576u);
}

TEST(CounterTable, BytesForMatchesActualAllocation) {
    for (const std::uint32_t k : {1u, 2u, 3u, 7u, 100u, 1024u, 10'000u}) {
        EXPECT_EQ(table_u64(k).memory_bytes(), table_u64::bytes_for(k)) << "k=" << k;
    }
}

TEST(CounterTable, InsertFindRoundTrip) {
    table_u64 t(16);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(42), nullptr);
    EXPECT_TRUE(t.upsert(42, 7));
    ASSERT_NE(t.find(42), nullptr);
    EXPECT_EQ(*t.find(42), 7u);
    EXPECT_FALSE(t.upsert(42, 3));  // existing key accumulates
    EXPECT_EQ(*t.find(42), 10u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(CounterTable, FillToCapacity) {
    table_u64 t(100);
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_FALSE(t.full());
        t.upsert(i * 1000 + 1, i + 1);
    }
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        ASSERT_NE(t.find(i * 1000 + 1), nullptr);
        EXPECT_EQ(*t.find(i * 1000 + 1), i + 1);
    }
    check_invariants(t);
}

TEST(CounterTable, DecrementAllRemovesNonPositive) {
    table_u64 t(8);
    t.upsert(1, 5);
    t.upsert(2, 10);
    t.upsert(3, 3);
    t.upsert(4, 3);
    const auto erased = t.decrement_all(3);
    EXPECT_EQ(erased, 2u);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.find(3), nullptr);
    EXPECT_EQ(t.find(4), nullptr);
    EXPECT_EQ(*t.find(1), 2u);
    EXPECT_EQ(*t.find(2), 7u);
    check_invariants(t);
}

TEST(CounterTable, DecrementAllOnEmptyTable) {
    table_u64 t(8);
    EXPECT_EQ(t.decrement_all(5), 0u);
}

TEST(CounterTable, DecrementEntireContents) {
    table_u64 t(32);
    for (std::uint64_t i = 1; i <= 32; ++i) {
        t.upsert(i, 4);
    }
    EXPECT_EQ(t.decrement_all(4), 32u);
    EXPECT_TRUE(t.empty());
    check_invariants(t);
    // The table must be fully reusable afterwards.
    for (std::uint64_t i = 100; i < 132; ++i) {
        t.upsert(i, 1);
    }
    EXPECT_EQ(t.size(), 32u);
    check_invariants(t);
}

TEST(CounterTable, EraseSingleKey) {
    table_u64 t(16);
    for (std::uint64_t i = 0; i < 16; ++i) {
        t.upsert(i, i + 1);
    }
    EXPECT_TRUE(t.erase(7));
    EXPECT_FALSE(t.erase(7));
    EXPECT_EQ(t.find(7), nullptr);
    EXPECT_EQ(t.size(), 15u);
    for (std::uint64_t i = 0; i < 16; ++i) {
        if (i != 7) {
            ASSERT_NE(t.find(i), nullptr) << i;
        }
    }
    check_invariants(t);
}

TEST(CounterTable, ForEachVisitsEverythingOnce) {
    table_u64 t(64);
    std::uint64_t expected_sum = 0;
    for (std::uint64_t i = 1; i <= 64; ++i) {
        t.upsert(i * 7919, i);
        expected_sum += i;
    }
    std::uint64_t sum = 0;
    std::uint32_t visits = 0;
    t.for_each([&](std::uint64_t, std::uint64_t c) {
        sum += c;
        ++visits;
    });
    EXPECT_EQ(sum, expected_sum);
    EXPECT_EQ(visits, 64u);
}

TEST(CounterTable, ForEachFromWrapsAround) {
    table_u64 t(16);
    for (std::uint64_t i = 1; i <= 16; ++i) {
        t.upsert(i, i);
    }
    for (std::uint32_t start = 0; start < t.num_slots(); start += 5) {
        std::uint32_t visits = 0;
        t.for_each_from(start, [&](std::uint64_t, std::uint64_t) { ++visits; });
        EXPECT_EQ(visits, 16u) << "start=" << start;
    }
}

TEST(CounterTable, SeedChangesSlotAssignment) {
    counter_table<std::uint64_t, std::uint64_t> a(1024, /*hash_seed=*/1);
    counter_table<std::uint64_t, std::uint64_t> b(1024, /*hash_seed=*/2);
    int differing = 0;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        differing += a.home_slot(k) != b.home_slot(k);
    }
    EXPECT_GT(differing, 950);
}

TEST(CounterTable, DoubleWeightsWork) {
    counter_table<std::uint64_t, double> t(8);
    t.upsert(1, 0.5);
    t.upsert(2, 1.25);
    t.decrement_all(0.5);
    EXPECT_EQ(t.find(1), nullptr);  // exactly zero is non-positive
    ASSERT_NE(t.find(2), nullptr);
    EXPECT_DOUBLE_EQ(*t.find(2), 0.75);
}

TEST(CounterTable, ClearEmptiesTable) {
    table_u64 t(8);
    t.upsert(1, 1);
    t.upsert(2, 2);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(1), nullptr);
    t.upsert(3, 3);
    EXPECT_EQ(t.size(), 1u);
}

// Regression for the decrement_all start-slot search: it used to scan
// unmasked from slot 0 every call, which on a table whose front is one long
// occupied cluster pays O(cluster) extra per decrement; the sweep now starts
// from the slot the previous decrement provably left empty. Churn a table at
// full capacity (load exactly 3/4, empty slots sparse and moving) through
// many decrement/refill cycles, so a stale or mistracked hint would either
// trip the scan bound or corrupt the compaction.
TEST(CounterTable, DecrementNearFullClusterChurn) {
    const std::uint32_t k = 768;  // L = 1024: capacity is exactly 3/4 load
    table_u64 t(k);
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    xoshiro256ss rng(20260808);
    const auto refill = [&] {
        while (oracle.size() < k) {
            const std::uint64_t key = rng.below(4 * k);
            const std::uint64_t w = rng.between(1, 40);
            if (oracle.count(key) != 0 || oracle.size() < k) {
                t.upsert(key, w);
                oracle[key] += w;
            }
        }
    };
    refill();
    for (int round = 0; round < 60; ++round) {
        const std::uint64_t amount = rng.between(1, 12);
        const auto erased = t.decrement_all(amount);
        std::size_t oracle_erased = 0;
        for (auto it = oracle.begin(); it != oracle.end();) {
            if (it->second <= amount) {
                it = oracle.erase(it);
                ++oracle_erased;
            } else {
                it->second -= amount;
                ++it;
            }
        }
        ASSERT_EQ(erased, oracle_erased) << "round " << round;
        check_invariants(t);
        refill();
        ASSERT_EQ(t.size(), k) << "round " << round;
    }
    for (const auto& [key, w] : oracle) {
        const std::uint64_t* found = t.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, w);
    }
}

// scale_all's underflow cleanup is now a single decrement_all(0) compaction
// pass instead of a rescan plus per-key erase. Force genuine underflow with
// the minimum denormal (x * 0.25 rounds to zero) amid live neighbors and
// check the dead counters vanish while survivors scale and stay reachable.
TEST(CounterTable, ScaleAllUnderflowCompactsInOnePass) {
    counter_table<std::uint64_t, double> t(64);
    std::unordered_map<std::uint64_t, double> oracle;
    for (std::uint64_t i = 0; i < 48; ++i) {
        const double v = (i % 3 == 0) ? 4.9406564584124654e-324  // min denormal
                                      : static_cast<double>(i + 1);
        t.upsert(i, v);
        oracle[i] = v;
    }
    t.scale_all(0.25);
    std::size_t live = 0;
    for (auto& [key, v] : oracle) {
        v *= 0.25;
        const double* found = t.find(key);
        if (v > 0.0) {
            ++live;
            ASSERT_NE(found, nullptr) << key;
            EXPECT_EQ(*found, v) << key;
        } else {
            EXPECT_EQ(found, nullptr) << key;
        }
    }
    EXPECT_EQ(t.size(), live);
    EXPECT_LT(live, 48u);  // the denormals really did underflow
    check_invariants(t);
    // Table stays fully usable: refill over the compacted layout.
    for (std::uint64_t i = 100; i < 116; ++i) {
        t.upsert(i, 1.0);
    }
    check_invariants(t);
}

TEST(CounterTable, FindBatchAgreesWithFind) {
    table_u64 t(512, 9);
    xoshiro256ss rng(77);
    for (int i = 0; i < 400; ++i) {
        t.upsert(rng.below(1000), rng.between(1, 9));
    }
    std::uint64_t keys[33];
    std::uint64_t* results[33];
    for (int round = 0; round < 2'000; ++round) {
        const std::size_t n = 1 + rng.below(33);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = rng.below(2000);  // ~half absent
        }
        t.find_batch(keys, n, results);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(results[i], t.find(keys[i])) << "key " << keys[i];
        }
        if (results[0] != nullptr) {
            // probe_length_of must agree with the structural state.
            const auto state = t.probe_length_of(results[0]);
            ASSERT_GE(state, 1u);
        }
    }
}

/// Reference decrement round, kept in the form the table and the sketch
/// used before the occupancy-mask sweep: a rejection sampler that redraws
/// until it hits an occupied slot, a sort-based quantile, and a sweep that
/// tests every slot and re-places every survivor by re-hashing its key. It
/// mirrors the table's slot layout so the two can be compared slot by slot,
/// empty slots' stale key and value bits included.
template <typename W>
struct reference_round {
    std::vector<std::uint64_t> keys;
    std::vector<W> values;
    std::vector<std::uint16_t> states;
    std::uint32_t mask = 0;
    std::uint32_t active = 0;
    std::uint32_t empty_hint = 0;  ///< carried across calls, as in the table
    std::uint64_t seed = 0;

    explicit reference_round(const counter_table<std::uint64_t, W>& t)
        : keys(t.num_slots()),
          values(t.num_slots()),
          states(t.num_slots()),
          mask(t.num_slots() - 1),
          seed(t.hash_seed()) {}

    /// Takes over the table's slots (after upserts, which both agree on).
    void assign_from(const counter_table<std::uint64_t, W>& t) {
        for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
            keys[s] = t.slot_key(s);
            values[s] = t.slot_value(s);
            states[s] = t.slot_state(s);
        }
        active = t.size();
    }

    void sample(xoshiro256ss& rng, std::vector<W>& out) const {
        for (auto& v : out) {
            std::uint32_t s;
            do {
                s = static_cast<std::uint32_t>(rng.below(states.size()));
            } while (states[s] == 0);
            v = values[s];
        }
    }

    static W quantile(std::vector<W> v, double q) {
        std::sort(v.begin(), v.end());
        const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
        return v[std::min(rank, v.size() - 1)];
    }

    std::uint32_t decrement_all(W amount) {
        if (active == 0) {
            return 0;
        }
        std::uint32_t start = empty_hint;
        while (states[start] != 0) {
            start = (start + 1) & mask;
        }
        std::uint32_t erased = 0;
        std::uint32_t idx = (start + 1) & mask;
        for (std::uint32_t step = 1; step <= mask; ++step, idx = (idx + 1) & mask) {
            if (states[idx] == 0) {
                continue;
            }
            const std::uint64_t key = keys[idx];
            const W value = values[idx];
            states[idx] = 0;
            if (value <= amount) {
                --active;
                ++erased;
                continue;
            }
            std::uint32_t target = static_cast<std::uint32_t>(table_hash(key, seed)) & mask;
            std::uint32_t dist = 0;
            while (states[target] != 0) {
                target = (target + 1) & mask;
                ++dist;
            }
            keys[target] = key;
            values[target] = value - amount;
            states[target] = static_cast<std::uint16_t>(dist + 1);
        }
        empty_hint = start;
        return erased;
    }
};

template <typename W>
void expect_same_slots(const counter_table<std::uint64_t, W>& t, const reference_round<W>& ref,
                       int step) {
    ASSERT_EQ(t.size(), ref.active) << "step " << step;
    for (std::uint32_t s = 0; s < t.num_slots(); ++s) {
        ASSERT_EQ(t.slot_state(s), ref.states[s]) << "step " << step << " slot " << s;
        ASSERT_EQ(t.slot_key(s), ref.keys[s]) << "step " << step << " slot " << s;
        ASSERT_EQ(t.slot_value(s), ref.values[s]) << "step " << step << " slot " << s;
    }
}

// The library's decrement round (branch-free sampler, std::nth_element
// selection, occupancy-mask sweep with its in-place home-slot path) must
// leave exactly the layout the reference round leaves: same draws, same
// c*, same state/key/value in every slot, with the empty-slot hint carried
// across calls. Half the keys are homed in the last few slots, so clusters
// wrap past L-1; amounts equal to a live value check that value == amount
// erases; decrement_all(0) is the pass scale_all runs after underflow.
template <typename W>
void differential_rounds(std::uint32_t k) {
    counter_table<std::uint64_t, W> t(k, k + 17);
    reference_round<W> ref(t);
    const std::uint32_t L = t.num_slots();
    xoshiro256ss ops(k * 7919 + 3);
    xoshiro256ss lib_rng(k + 99);
    xoshiro256ss ref_rng(k + 99);

    std::vector<std::uint64_t> pool;
    const std::uint32_t tail = std::max<std::uint32_t>(2, L / 64);
    for (std::uint64_t key = 1; pool.size() < 2 * std::size_t{k} + 4; ++key) {
        if (t.home_slot(key) >= L - tail) {
            pool.push_back(key);
        }
    }
    for (std::uint32_t i = 0; i < 2 * k + 4; ++i) {
        pool.push_back(ops());
    }
    const auto draw = [&] {
        W w = static_cast<W>(ops.between(1, 40));
        if constexpr (std::is_floating_point_v<W>) {
            w += static_cast<W>(ops.unit_real());
        }
        return w;
    };

    const double quantiles[] = {0.0, 0.5, 0.9};
    std::vector<W> lib_sample;
    std::vector<W> ref_sample;
    for (int step = 0; step < 300; ++step) {
        const std::uint32_t fill = 1 + static_cast<std::uint32_t>(ops.below(k));
        while (t.size() < fill) {
            t.upsert(pool[ops.below(pool.size())], draw());
        }
        ref.assign_from(t);
        std::uint32_t lib_erased = 0;
        std::uint32_t ref_erased = 0;
        switch (ops.below(4)) {
            case 0: {  // a full sampled round, as the sketch runs it
                const double q = quantiles[ops.below(3)];
                const std::size_t l = 1 + ops.below(1024);
                lib_sample.assign(l, W{0});
                ref_sample.assign(l, W{0});
                t.sample_values(lib_rng, lib_sample);
                ref.sample(ref_rng, ref_sample);
                ASSERT_EQ(lib_sample, ref_sample) << "step " << step;
                const W cstar = quickselect_quantile(std::span<W>(lib_sample), q);
                ASSERT_EQ(cstar, reference_round<W>::quantile(ref_sample, q)) << "step " << step;
                ASSERT_EQ(lib_rng(), ref_rng()) << "step " << step;
                lib_erased = t.decrement_all(cstar);
                ref_erased = ref.decrement_all(cstar);
                break;
            }
            case 1: {  // an amount equal to a live counter
                std::uint32_t s = static_cast<std::uint32_t>(ops.below(L));
                while (!t.slot_occupied(s)) {
                    s = (s + 1) & (L - 1);
                }
                const W amount = t.slot_value(s);
                lib_erased = t.decrement_all(amount);
                ref_erased = ref.decrement_all(amount);
                ASSERT_GE(lib_erased, 1u) << "step " << step;
                break;
            }
            case 2:
                lib_erased = t.decrement_all(W{0});
                ref_erased = ref.decrement_all(W{0});
                break;
            default: {
                const W amount = draw();
                lib_erased = t.decrement_all(amount);
                ref_erased = ref.decrement_all(amount);
                break;
            }
        }
        ASSERT_EQ(lib_erased, ref_erased) << "step " << step;
        expect_same_slots(t, ref, step);
        check_invariants(t);
    }
}

/// (capacity k, real-valued weights)
class DecrementRoundDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(DecrementRoundDifferential, MatchesReferenceRoundSlotForSlot) {
    const auto [k, real] = GetParam();
    if (real) {
        differential_rounds<double>(k);
    } else {
        differential_rounds<std::uint64_t>(k);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, DecrementRoundDifferential,
                         ::testing::Combine(::testing::Values(1, 3, 64, 4096),
                                            ::testing::Bool()));

// Fuzz the full operation mix against a std::unordered_map oracle, checking
// structural invariants as we go. This is the key correctness argument for
// the in-place decrement-and-compact pass. Real-valued weights also mix in
// scale_all; the oracle applies the same floating-point operations to each
// key in the same order, so counters must match exactly.
template <typename W>
void fuzz_against_oracle(std::uint32_t k) {
    constexpr bool real = std::is_floating_point_v<W>;
    counter_table<std::uint64_t, W> t(k);
    std::unordered_map<std::uint64_t, W> oracle;
    xoshiro256ss rng(k * 1234567 + 1);
    // Keys drawn from a small pool force collisions and long probe runs.
    const std::uint64_t key_pool = k * 2 + 3;
    // Real weights get a fractional part so sums and differences round.
    const auto draw = [&](std::uint64_t hi) {
        W w = static_cast<W>(rng.between(1, hi));
        if constexpr (real) {
            w += static_cast<W>(rng.unit_real());
        }
        return w;
    };

    for (int step = 0; step < 30'000; ++step) {
        const auto op = rng.below(100);
        if (op < 70) {  // upsert
            const std::uint64_t key = rng.below(key_pool);
            const W w = draw(50);
            if (oracle.count(key) != 0 || oracle.size() < k) {
                t.upsert(key, w);
                oracle[key] += w;
            }
        } else if (op < 85) {  // decrement_all
            const W amount = draw(30);
            const auto erased = t.decrement_all(amount);
            std::size_t oracle_erased = 0;
            for (auto it = oracle.begin(); it != oracle.end();) {
                if (it->second <= amount) {
                    it = oracle.erase(it);
                    ++oracle_erased;
                } else {
                    it->second -= amount;
                    ++it;
                }
            }
            ASSERT_EQ(erased, oracle_erased) << "step " << step;
        } else if (op < 95) {  // erase
            const std::uint64_t key = rng.below(key_pool);
            ASSERT_EQ(t.erase(key), oracle.erase(key) > 0) << "step " << step;
        } else if (real && op < 97) {  // scale_all
            if constexpr (real) {
                const double factor = static_cast<double>(rng.between(1, 48)) / 32.0;
                t.scale_all(factor);
                for (auto it = oracle.begin(); it != oracle.end();) {
                    it->second = static_cast<W>(it->second * factor);
                    it = it->second > W{0} ? std::next(it) : oracle.erase(it);
                }
            }
        } else {  // point lookups
            for (int probe = 0; probe < 5; ++probe) {
                const std::uint64_t key = rng.below(key_pool);
                const auto it = oracle.find(key);
                const W* found = t.find(key);
                if (it == oracle.end()) {
                    ASSERT_EQ(found, nullptr) << "step " << step;
                } else {
                    ASSERT_NE(found, nullptr) << "step " << step;
                    ASSERT_EQ(*found, it->second) << "step " << step;
                }
            }
        }
        if (step % 500 == 0) {
            check_invariants(t);
            ASSERT_EQ(t.size(), oracle.size());
        }
    }
    // Final full comparison.
    check_invariants(t);
    ASSERT_EQ(t.size(), oracle.size());
    for (const auto& [key, w] : oracle) {
        const W* found = t.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, w);
    }
}

/// (capacity k, real-valued weights)
class CounterTableFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(CounterTableFuzz, MatchesOracleUnderRandomOperations) {
    const auto [k, real] = GetParam();
    if (real) {
        fuzz_against_oracle<double>(k);
    } else {
        fuzz_against_oracle<std::uint64_t>(k);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, CounterTableFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 31, 64, 257, 1024),
                       ::testing::Bool()));

}  // namespace
}  // namespace freq
