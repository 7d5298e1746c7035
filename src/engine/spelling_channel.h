#ifndef FREQ_ENGINE_SPELLING_CHANNEL_H
#define FREQ_ENGINE_SPELLING_CHANNEL_H

/// \file spelling_channel.h
/// The identification side-lane of the sharded engine's text/generic key
/// path. The hot path stays fixed-size — producers ship (fingerprint,
/// weight) records through the wait-free SPSC rings — while the
/// variable-size spellings travel here: a bounded, mutex-guarded MPSC queue
/// per shard that the shard's worker drains into its sketch's
/// spelling_dictionary alongside the ring batches.
///
/// Why a mutex is fine on this lane: spellings are sent once per key
/// first-sight (and again only after a producer's recently-sent filter
/// evicts the fingerprint), so traffic is proportional to *distinct-key
/// churn*, not stream length. A producer stages the spellings of each
/// shard next to that shard's update run and hands them over in one
/// try_push_batch() when it publishes the run, so the lock is taken once
/// per published run, not once per first-sight push. The worker's idle
/// poll does not lock at all: drain() returns at once when every accepted
/// spelling has been applied. The queue is bounded; a full channel rejects
/// the rest of a batch and the producer forgets those fingerprints in its
/// filter, so each rejected spelling is retried on the key's next
/// occurrence instead of blocking the hot path.
///
/// The pushed()/applied() counters mirror the rings' cursors so the
/// engine's flush() barrier can cover identification state too: after a
/// flush, every spelling that was accepted into a channel has reached its
/// shard dictionary.
///
/// spelling_filter is the producer-side dedupe: a direct-mapped
/// recently-sent cache (one word per slot). Collisions between distinct
/// keys simply cause re-sends — which doubles as the healing mechanism for
/// spellings the shard swept while their fingerprint was untracked.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/contracts.h"
#include "obs/pipeline_metrics.h"

namespace freq {

template <typename Item>
class spelling_channel {
public:
    struct entry {
        std::uint64_t fp;
        Item item;
    };

    /// Channel holding at most \p capacity pending spellings.
    explicit spelling_channel(std::size_t capacity) : capacity_(capacity) {
        FREQ_REQUIRE(capacity >= 1, "spelling channel needs at least one slot");
        queue_.reserve(capacity < 4096 ? capacity : 4096);
    }

    /// Any producer thread. Moves the longest prefix of \p batch that fits
    /// into the channel, under one lock, and returns its length. The
    /// entries past it are rejected and left untouched — the caller must
    /// then *not* treat their fingerprints as sent, so each spelling is
    /// retried later instead of being lost.
    std::size_t try_push_batch(std::span<entry> batch) {
        std::size_t accepted = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            accepted = std::min(batch.size(), capacity_ - queue_.size());
            for (std::size_t i = 0; i < accepted; ++i) {
                queue_.push_back(std::move(batch[i]));
            }
            pushed_.fetch_add(accepted, std::memory_order_release);
        }
        auto& m = obs::pipeline();
        m.spelling_enqueued.add(accepted);
        m.spelling_rejects.add(batch.size() - accepted);
        return accepted;
    }

    /// Consumer side (the shard worker): swaps every pending entry into
    /// \p out (cleared first) and returns the count. The caller applies the
    /// entries to its sketch, then acknowledges with mark_applied() so the
    /// flush barrier can observe completion. Returns 0 without locking when
    /// every accepted spelling has been applied (the idle poll); a push
    /// racing that check is taken by the next call.
    std::size_t drain(std::vector<entry>& out) {
        out.clear();
        if (pushed() == applied()) {
            return 0;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.swap(out);
        return out.size();
    }

    void mark_applied(std::size_t n) {
        applied_.fetch_add(n, std::memory_order_release);
    }

    /// Spellings ever accepted / ever applied to the shard dictionary —
    /// monotonic cursors for the engine's flush barrier.
    std::uint64_t pushed() const noexcept { return pushed_.load(std::memory_order_acquire); }
    std::uint64_t applied() const noexcept {
        return applied_.load(std::memory_order_acquire);
    }

private:
    mutable std::mutex mutex_;
    std::vector<entry> queue_;
    std::size_t capacity_;
    std::atomic<std::uint64_t> pushed_{0};
    std::atomic<std::uint64_t> applied_{0};
};

/// Direct-mapped recently-sent cache: one fingerprint per slot, no
/// tombstones. contains() + insert() are one array access each; distinct
/// fingerprints mapping to the same slot evict each other, which is part
/// of the intended re-send pressure (see file comment).
///
/// Collisions alone cannot be relied on for healing — a workload that
/// settles on few hot keys may never collide again, permanently hiding a
/// spelling the shard swept while its fingerprint was untracked. evict_next()
/// exists for that: the owner calls it on a fixed cadence to clear one slot
/// round-robin, so *every* slot is emptied at least once per
/// (cadence × slot count) pushes and a still-occurring key re-sends its
/// spelling within one full sweep.
class spelling_filter {
public:
    explicit spelling_filter(std::size_t min_slots) {
        FREQ_REQUIRE(min_slots >= 2, "spelling filter needs at least two slots");
        slots_.resize(static_cast<std::size_t>(ceil_pow2(min_slots)), empty_slot);
        mask_ = slots_.size() - 1;
    }

    bool recently_sent(std::uint64_t fp) const noexcept {
        return slots_[static_cast<std::size_t>(fp) & mask_] == fp;
    }

    void mark_sent(std::uint64_t fp) noexcept {
        slots_[static_cast<std::size_t>(fp) & mask_] = fp;
    }

    /// Un-marks \p fp if its slot still holds it, so the key's next
    /// occurrence sends its spelling again (a rejected hand-off).
    void forget(std::uint64_t fp) noexcept {
        auto& slot = slots_[static_cast<std::size_t>(fp) & mask_];
        if (slot == fp) {
            slot = empty_slot;
        }
    }

    /// Clears the next slot round-robin (the rolling refresh; O(1)).
    void evict_next() noexcept {
        slots_[cursor_++ & mask_] = empty_slot;
    }

    std::size_t num_slots() const noexcept { return slots_.size(); }

private:
    // A real fingerprint equal to the sentinel is re-sent every time —
    // harmless (the dictionary dedupes).
    static constexpr std::uint64_t empty_slot = ~std::uint64_t{0};

    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
    std::size_t cursor_ = 0;  ///< evict_next round-robin position
};

}  // namespace freq

#endif  // FREQ_ENGINE_SPELLING_CHANNEL_H
