#ifndef FREQ_CORE_SPELLING_DICTIONARY_H
#define FREQ_CORE_SPELLING_DICTIONARY_H

/// \file spelling_dictionary.h
/// The detachable identification half of a fingerprint-counted summary.
///
/// The paper's sketch is key-type-agnostic: it counts 64-bit identifiers
/// and needs the original key only to *report* items. Splitting that
/// identification state into its own component lets the counting substrate
/// run anywhere fingerprints flow — a standalone adapter keeps one
/// dictionary next to its sketch, while the sharded engine gives each shard
/// the dictionary slice for the fingerprints routed to it and unions slices
/// at snapshot-merge time (the same counting/identification separation
/// FDCMSS-style systems and witness-reporting schemes make).
///
/// Memory discipline (unchanged from the original string adapter): the map
/// holds at most prune_limit = 4 × (simultaneously trackable fingerprints)
/// entries; overflowing triggers a prune() sweep that drops every spelling
/// whose fingerprint the counting core no longer tracks. Because tracked
/// fingerprints survive sweeps, the footprint is O(k · avg key size) while
/// admission churn stays amortized O(1) per note().

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/contracts.h"

namespace freq {

template <typename Item = std::string>
class spelling_dictionary {
public:
    using item_type = Item;

    spelling_dictionary() = default;

    /// Sizes the prune budget: \p trackable is the number of fingerprints
    /// the counting core can track simultaneously (k, or k · window_epochs
    /// for a windowed core — a per-epoch budget would leave the dictionary
    /// permanently over limit and re-sweep on nearly every note()).
    explicit spelling_dictionary(std::uint64_t trackable) { configure(trackable); }

    void configure(std::uint64_t trackable) {
        FREQ_REQUIRE(trackable >= 1, "spelling dictionary needs a positive budget");
        prune_limit_ = 4ull * trackable;
        // Modest upfront reservation only: a windowed sharded config can make
        // the *budget* large (k · window per shard), but sparse streams
        // should not pay the worst-case bucket array before any key arrives.
        map_.reserve(static_cast<std::size_t>(
            trackable < (1ull << 14) ? 2 * trackable : (1ull << 15)));
    }

    bool contains(std::uint64_t fp) const { return map_.contains(fp); }

    /// The spelling of \p fp, or nullptr when unknown (never tracked, or
    /// pruned while untracked).
    const Item* find(std::uint64_t fp) const {
        const auto it = map_.find(fp);
        return it == map_.end() ? nullptr : &it->second;
    }

    /// Remembers \p item as the spelling of \p fp (first writer wins — the
    /// fingerprint determines the spelling up to 64-bit collisions). Returns
    /// true when the dictionary is over budget and due for a prune(); the
    /// owner supplies the tracked-predicate, so the sweep stays here while
    /// the liveness notion stays with the counting core.
    template <typename V>
    bool note(std::uint64_t fp, V&& item) {
        map_.try_emplace(fp, std::forward<V>(item));
        return map_.size() > prune_limit_;
    }

    /// Drops every spelling whose fingerprint \p tracked rejects. O(size).
    template <typename TrackedPred>
    void prune(TrackedPred&& tracked) {
        for (auto it = map_.begin(); it != map_.end();) {
            if (tracked(it->first)) {
                ++it;
            } else {
                it = map_.erase(it);
            }
        }
    }

    /// Unions \p other's spellings into this dictionary (Algorithm 5's
    /// identification half). Returns true when the union overflowed the
    /// budget and a prune() is due.
    bool merge_union(const spelling_dictionary& other) {
        for (const auto& [fp, spelling] : other.map_) {
            map_.try_emplace(fp, spelling);
        }
        return map_.size() > prune_limit_;
    }

    /// Drops every spelling and adopts \p budget_of's prune budget, keeping
    /// the bucket array for the refill that follows
    /// (fingerprint_frequent_items::copy_tracked_into).
    void reset_like(const spelling_dictionary& budget_of) {
        map_.clear();
        prune_limit_ = budget_of.prune_limit_;
    }

    std::size_t size() const noexcept { return map_.size(); }
    bool empty() const noexcept { return map_.empty(); }

    /// 4 × the simultaneously trackable fingerprints (see configure()).
    std::uint64_t prune_limit() const noexcept { return prune_limit_; }
    bool over_budget() const noexcept { return map_.size() > prune_limit_; }

    /// Visits every (fingerprint, spelling) pair in unspecified order.
    template <typename F>
    void for_each(F&& f) const {
        for (const auto& [fp, spelling] : map_) {
            f(fp, spelling);
        }
    }

    /// Keys + node overhead + owned string storage (strings report their
    /// heap capacity; other item types their object size).
    std::size_t memory_bytes() const noexcept {
        std::size_t bytes = map_.bucket_count() * sizeof(void*);
        for (const auto& [fp, item] : map_) {
            bytes += sizeof(fp) + sizeof(Item) + 2 * sizeof(void*);
            if constexpr (std::is_same_v<Item, std::string>) {
                bytes += item.capacity();
            }
        }
        return bytes;
    }

private:
    std::unordered_map<std::uint64_t, Item> map_;
    std::uint64_t prune_limit_ = 4;  ///< 4 × simultaneously trackable fingerprints
};

}  // namespace freq

#endif  // FREQ_CORE_SPELLING_DICTIONARY_H
