#ifndef FREQ_TABLE_COUNTER_TABLE_H
#define FREQ_TABLE_COUNTER_TABLE_H

/// \file counter_table.h
/// The hash table of §2.3.3 of the paper: an open-addressing, linear-probing
/// map from 64-bit item identifiers to counters, laid out as three parallel
/// arrays (keys, values, states) of length L = ceil_pow2(4k/3) where k is the
/// maximum number of live counters.
///
/// A state of 0 marks an empty slot; a positive state equals the probe
/// distance of the stored key from its preferred slot, plus one. States fit
/// in 16 bits: at load factor <= 3/4 the probability that any probe sequence
/// ever exceeds 2^14 is negligible (the paper reports < 1e-250), and the
/// implementation checks the bound explicitly.
///
/// Beyond find/upsert, the table supports the one operation that makes the
/// paper's algorithms fast: decrement_all(c*), which subtracts c* from every
/// counter and removes the non-positive ones *in place*, in a single pass,
/// with no scratch memory. Removal uses run-local backward shifting: the
/// sweep starts just past an empty slot, so when a slot is processed every
/// occupied slot between any key's preferred slot and its current slot has
/// already been re-placed, and re-probing from the preferred slot restores
/// the linear-probing reachability invariant.
///
/// At 8-byte keys, 8-byte values and 2-byte states the table costs
/// 18 * ceil_pow2(4k/3) bytes — the paper's "24k bytes" figure when 4k/3
/// lands on a power of two.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/contracts.h"
#include "hashing/hash.h"

namespace freq {

template <typename K = std::uint64_t, typename W = std::uint64_t>
class counter_table {
    static_assert(std::is_integral_v<K> && sizeof(K) <= 8,
                  "counter_table keys are integral identifiers (fingerprint other types)");
    static_assert(std::is_arithmetic_v<W>, "counter weights must be arithmetic");

public:
    using key_type = K;
    using weight_type = W;
    using state_type = std::uint16_t;

    /// \param max_items  k — the largest number of simultaneously tracked
    ///                   counters; the slot array is sized ceil_pow2(4k/3).
    /// \param hash_seed  seeds the slot hash so distinct tables can use
    ///                   independent hash functions (see §3.2's merge note).
    explicit counter_table(std::uint32_t max_items, std::uint64_t hash_seed = 0)
        : max_items_(max_items), hash_seed_(hash_seed) {
        FREQ_REQUIRE(max_items >= 1, "counter_table needs capacity for at least one counter");
        FREQ_REQUIRE(max_items <= (1u << 28), "counter_table capacity limited to 2^28 counters");
        const std::uint64_t want = (static_cast<std::uint64_t>(max_items) * 4 + 2) / 3;
        num_slots_ = static_cast<std::uint32_t>(ceil_pow2(want));
        mask_ = num_slots_ - 1;
        keys_.resize(num_slots_);
        values_.resize(num_slots_);
        states_.assign(num_slots_, 0);
    }

    std::uint32_t capacity() const noexcept { return max_items_; }   ///< k
    std::uint32_t num_slots() const noexcept { return num_slots_; }  ///< L
    std::uint32_t size() const noexcept { return num_active_; }
    bool empty() const noexcept { return num_active_ == 0; }
    bool full() const noexcept { return num_active_ == max_items_; }
    std::uint64_t hash_seed() const noexcept { return hash_seed_; }

    /// Bytes consumed by the parallel arrays — the quantity the paper's
    /// equal-space comparisons (§4.3) equalize across algorithms.
    std::size_t memory_bytes() const noexcept {
        return static_cast<std::size_t>(num_slots_) *
               (sizeof(K) + sizeof(W) + sizeof(state_type));
    }

    /// Storage cost of a hypothetical table with capacity \p max_items,
    /// computed without allocating (the equal-space harnesses probe large k).
    static std::size_t bytes_for(std::uint32_t max_items) noexcept {
        const std::uint64_t want = (static_cast<std::uint64_t>(max_items) * 4 + 2) / 3;
        return static_cast<std::size_t>(ceil_pow2(want)) *
               (sizeof(K) + sizeof(W) + sizeof(state_type));
    }

    /// Pointer to the counter for \p key, or nullptr when untracked.
    const W* find(K key) const noexcept {
        std::uint32_t idx = home_slot(key);
        while (states_[idx] != 0) {
            if (keys_[idx] == key) {
                return &values_[idx];
            }
            idx = (idx + 1) & mask_;
        }
        return nullptr;
    }

    W* find(K key) noexcept {
        return const_cast<W*>(static_cast<const counter_table*>(this)->find(key));
    }

    /// Probes a block of keys, writing results[i] = counter pointer for
    /// keys[i] or nullptr when untracked. Issues the home-slot prefetches for
    /// the whole block up front, then probes each key, so the block's probe
    /// cache misses overlap instead of serializing. The library itself does
    /// not call it: the sketch's span update runs one find per item, as
    /// update(id, weight) does. It stays for its one caller, the
    /// benchmark's table layer (perfbench's `table.find_ns`).
    ///
    /// The returned pointers obey the same invalidation rule as find():
    /// upsert never moves entries (the arrays never reallocate), only
    /// decrement_all / erase / scale_all do.
    void find_batch(const K* keys, std::size_t n, W** results) noexcept {
        for (std::size_t i = 0; i < n; ++i) {
            prefetch(keys[i]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = find(keys[i]);
        }
    }

    /// Probe length (state value, distance-plus-one) of the slot holding
    /// \p counter, which must be a pointer previously returned by
    /// find/find_batch and still valid. Feeds the probe-length telemetry
    /// (sampled on the sketch's hit branch) without a second probe.
    state_type probe_length_of(const W* counter) const noexcept {
        return states_[static_cast<std::size_t>(counter - values_.data())];
    }

    /// Prefetches the cache lines a probe for \p key will touch first.
    /// find_batch is its only caller.
    void prefetch(K key) const noexcept {
        const std::uint32_t idx = home_slot(key);
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(&states_[idx], 0, 3);
        __builtin_prefetch(&keys_[idx], 0, 3);
        __builtin_prefetch(&values_[idx], 1, 3);
#endif
    }

    /// Adds \p weight to the counter for \p key, inserting the key if absent.
    /// Returns true when a new counter was created.
    /// Precondition: if the key is absent, the table must not be full —
    /// callers (the sketch algorithms) decrement-and-compact first.
    bool upsert(K key, W weight) {
        const std::uint32_t home = home_slot(key);
        std::uint32_t idx = home;
        while (states_[idx] != 0) {
            if (keys_[idx] == key) {
                values_[idx] += weight;
                return false;
            }
            idx = (idx + 1) & mask_;
        }
        insert_at(idx, home, key, weight);
        return true;
    }

    /// Subtracts \p amount from every counter and erases the counters that
    /// become non-positive, compacting probe runs in place. Returns the
    /// number of erased counters. O(L) single pass, no allocation.
    ///
    /// The sweep starts just past an empty slot, located from the slot the
    /// previous decrement (or erase) left empty rather than by scanning from
    /// slot 0 — on a near-full table whose front is one long cluster the
    /// old scan was O(cluster) extra work per decrement.
    std::uint32_t decrement_all(W amount) {
        if (num_active_ == 0) {
            return 0;
        }
        // A load factor <= 3/4 guarantees an empty slot exists; the hint
        // may have been refilled since, so scan (wrapping) from it.
        std::uint32_t start = empty_hint_;
        std::uint32_t scanned = 0;
        while (states_[start] != 0) {
            start = (start + 1) & mask_;
            ++scanned;
            FREQ_EXPECTS(scanned <= num_slots_);
        }
        std::uint32_t erased = 0;
        std::uint32_t idx = (start + 1) & mask_;
        for (std::uint32_t step = 1; step < num_slots_; ++step) {
            if (states_[idx] != 0) {
                sweep_occupied(idx, amount, erased);
            }
            idx = (idx + 1) & mask_;
        }
        // The start slot was empty before the sweep and no re-placement can
        // reach it (its original probe paths never crossed it), so it is
        // still empty — the next decrement starts its scan here.
        empty_hint_ = start;
        return erased;
    }

    /// Multiplies every counter by \p factor (> 0) in place — the
    /// renormalization pass of the forward-decay lifetime policy, which
    /// periodically rebases its landmark so inflated counters keep
    /// floating-point headroom. Slot placement is key-driven, so scaling
    /// itself never moves entries; in the (denormal-only) event that some
    /// counter underflows to zero, one decrement_all(0) pass drops the dead
    /// counters and compacts the probe runs — a single O(L) sweep instead
    /// of the former rescan-then-erase-per-key cleanup.
    void scale_all(double factor) {
        static_assert(std::is_floating_point_v<W>,
                      "scale_all is meaningful only for floating-point counters");
        FREQ_REQUIRE(factor > 0.0, "scale_all factor must be positive");
        bool underflow = false;
        for (std::uint32_t i = 0; i < num_slots_; ++i) {
            if (states_[i] != 0) {
                values_[i] = static_cast<W>(values_[i] * factor);
                underflow |= !(values_[i] > W{0});
            }
        }
        if (underflow) {
            decrement_all(W{0});
        }
    }

    /// Removes \p key if present, restoring the probing invariant by the
    /// standard backward-shift technique (no tombstones). Returns true when
    /// the key was present. Used by the RAP Space-Saving variant, which
    /// reassigns (rather than decrements) counters.
    bool erase(K key) {
        std::uint32_t idx = home_slot(key);
        while (states_[idx] != 0) {
            if (keys_[idx] == key) {
                states_[idx] = 0;
                --num_active_;
                empty_hint_ = backward_shift(idx);
                return true;
            }
            idx = (idx + 1) & mask_;
        }
        return false;
    }

    /// Visits every live (key, counter) pair in slot order.
    template <typename F>
    void for_each(F&& f) const {
        for (std::uint32_t i = 0; i < num_slots_; ++i) {
            if (states_[i] != 0) {
                f(keys_[i], values_[i]);
            }
        }
    }

    /// Visits every live pair starting at \p start_slot and wrapping — used
    /// by the merge procedure to iterate the source summary in a randomized
    /// order, avoiding the front-of-table overpopulation hazard of §3.2.
    template <typename F>
    void for_each_from(std::uint32_t start_slot, F&& f) const {
        FREQ_REQUIRE(num_slots_ == 0 || start_slot < num_slots_, "start slot out of range");
        std::uint32_t idx = start_slot;
        for (std::uint32_t step = 0; step < num_slots_; ++step, idx = (idx + 1) & mask_) {
            if (states_[idx] != 0) {
                f(keys_[idx], values_[idx]);
            }
        }
    }

    // --- raw slot access (sampling during SMED decrements) -----------------

    bool slot_occupied(std::uint32_t slot) const noexcept { return states_[slot] != 0; }
    K slot_key(std::uint32_t slot) const noexcept { return keys_[slot]; }
    W slot_value(std::uint32_t slot) const noexcept { return values_[slot]; }
    state_type slot_state(std::uint32_t slot) const noexcept { return states_[slot]; }

    /// Preferred slot of a key — exposed for invariant checking in tests.
    std::uint32_t home_slot(K key) const noexcept {
        return static_cast<std::uint32_t>(
                   table_hash(static_cast<std::uint64_t>(key), hash_seed_)) &
               mask_;
    }

    void clear() noexcept {
        states_.assign(num_slots_, 0);
        num_active_ = 0;
        empty_hint_ = 0;
    }

private:
    void insert_at(std::uint32_t slot, std::uint32_t home, K key, W weight) {
        const std::uint32_t dist = (slot - home) & mask_;
        FREQ_EXPECTS(num_active_ < max_items_);
        FREQ_EXPECTS(dist + 1 <= max_state);
        keys_[slot] = key;
        values_[slot] = weight;
        states_[slot] = static_cast<state_type>(dist + 1);
        ++num_active_;
    }

    /// One occupied-slot step of the decrement sweep. Vacates \p idx, then
    /// either drops the counter or re-places it by probing from its
    /// preferred slot. Every occupied slot this probe can traverse has
    /// already been processed, so the probe ends at or before the slot just
    /// vacated. Compare before subtracting: unsigned weights must not wrap.
    void sweep_occupied(std::uint32_t idx, W amount, std::uint32_t& erased) {
        const K key = keys_[idx];
        const W value = values_[idx];
        states_[idx] = 0;
        if (value <= amount) {
            --num_active_;
            ++erased;
        } else {
            const W remaining = value - amount;
            std::uint32_t target = home_slot(key);
            std::uint32_t dist = 0;
            while (states_[target] != 0) {
                target = (target + 1) & mask_;
                ++dist;
            }
            FREQ_EXPECTS(dist + 1 <= max_state);
            keys_[target] = key;
            values_[target] = remaining;
            states_[target] = static_cast<state_type>(dist + 1);
        }
    }

    /// After vacating \p hole, slide each subsequent cluster element one
    /// step closer to its preferred slot when doing so keeps it reachable.
    /// Returns the slot left empty, which the next decrement_all uses as
    /// its empty-slot hint.
    std::uint32_t backward_shift(std::uint32_t hole) {
        std::uint32_t idx = (hole + 1) & mask_;
        while (states_[idx] != 0) {
            const std::uint32_t dist = states_[idx] - 1u;
            const std::uint32_t gap = (idx - hole) & mask_;
            if (dist >= gap) {
                // The element's preferred slot is at or before the hole, so
                // it may occupy the hole without breaking its probe chain.
                keys_[hole] = keys_[idx];
                values_[hole] = values_[idx];
                states_[hole] = static_cast<state_type>(dist - gap + 1);
                states_[idx] = 0;
                hole = idx;
            }
            idx = (idx + 1) & mask_;
        }
        return hole;
    }

    static constexpr state_type max_state = 0xffff;

    std::uint32_t max_items_;
    std::uint32_t num_slots_ = 0;
    std::uint32_t mask_ = 0;
    std::uint32_t num_active_ = 0;
    std::uint32_t empty_hint_ = 0;
    std::uint64_t hash_seed_;
    std::vector<K> keys_;
    std::vector<W> values_;
    std::vector<state_type> states_;
};

}  // namespace freq

#endif  // FREQ_TABLE_COUNTER_TABLE_H
