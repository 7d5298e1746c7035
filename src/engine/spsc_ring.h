#ifndef FREQ_ENGINE_SPSC_RING_H
#define FREQ_ENGINE_SPSC_RING_H

/// \file spsc_ring.h
/// Bounded single-producer / single-consumer ring buffer — the wait-free
/// hand-off lane between one ingestion thread and one shard worker in the
/// sharded engine (see stream_engine.h).
///
/// Design (the classic Lamport queue plus two standard refinements):
///  * head_ (consumer cursor) and tail_ (producer cursor) are *monotonic*
///    64-bit counters; slot index = counter & mask. Monotonic cursors make
///    fill level, total-pushed and total-popped trivially observable, which
///    the engine's flush barrier relies on.
///  * Each cursor lives on its own cache line, and each side keeps a local
///    cached copy of the opposite cursor, refreshed only when the ring
///    appears full (producer) or empty (consumer). Steady-state operation
///    therefore touches one shared cache line per side instead of two.
///  * Push and pop are *batched*: one acquire load, one bulk copy, one
///    release store per span, amortizing the synchronization over the whole
///    batch. This is the producer half of the engine's "batched updates"
///    fast path.
///
/// Progress: both operations are wait-free (they never loop); a full ring
/// pushes back by returning a short count, and the caller decides how to
/// wait (the engine yields).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/contracts.h"

namespace freq {

template <typename T>
class spsc_ring {
    static_assert(std::is_trivially_copyable_v<T>,
                  "spsc_ring elements are copied as raw slots");

public:
    /// Ring with capacity ceil_pow2(\p min_capacity) slots.
    explicit spsc_ring(std::size_t min_capacity) {
        FREQ_REQUIRE(min_capacity >= 2, "spsc_ring needs at least two slots");
        FREQ_REQUIRE(min_capacity <= (std::size_t{1} << 30),
                     "spsc_ring capacity limited to 2^30 slots");
        capacity_ = static_cast<std::size_t>(ceil_pow2(min_capacity));
        mask_ = capacity_ - 1;
        buf_.resize(capacity_);
    }

    spsc_ring(const spsc_ring&) = delete;
    spsc_ring& operator=(const spsc_ring&) = delete;

    std::size_t capacity() const noexcept { return capacity_; }

    // --- producer side (exactly one thread) ---------------------------------

    /// Appends as many elements of \p in as fit; returns how many were
    /// pushed (possibly 0 when full). Wait-free.
    std::size_t try_push(std::span<const T> in) noexcept {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t free = capacity_ - static_cast<std::size_t>(tail - head_cache_);
        if (free < in.size()) {
            head_cache_ = head_.load(std::memory_order_acquire);
            free = capacity_ - static_cast<std::size_t>(tail - head_cache_);
        }
        const std::size_t n = free < in.size() ? free : in.size();
        for (std::size_t i = 0; i < n; ++i) {
            buf_[static_cast<std::size_t>(tail + i) & mask_] = in[i];
        }
        tail_.store(tail + n, std::memory_order_release);
        return n;
    }

    /// Single-element convenience push. Returns false when full.
    bool try_push(const T& v) noexcept { return try_push(std::span<const T>(&v, 1)) == 1; }

    // --- consumer side (exactly one thread) ---------------------------------

    /// Pops up to \p max elements into \p out; returns how many were popped
    /// (possibly 0 when empty). Wait-free.
    std::size_t try_pop(T* out, std::size_t max) noexcept {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
        if (avail == 0) {
            tail_cache_ = tail_.load(std::memory_order_acquire);
            avail = static_cast<std::size_t>(tail_cache_ - head);
        }
        const std::size_t n = avail < max ? avail : max;
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = buf_[static_cast<std::size_t>(head + i) & mask_];
        }
        head_.store(head + n, std::memory_order_release);
        return n;
    }

    /// Single-element convenience pop. Returns false when empty.
    bool try_pop(T& out) noexcept { return try_pop(&out, 1) == 1; }

    // --- observers (any thread) ---------------------------------------------

    /// Total elements ever pushed / popped — monotonic, exact. The engine's
    /// flush barrier waits for applied-count >= pushed().
    std::uint64_t pushed() const noexcept { return tail_.load(std::memory_order_acquire); }
    std::uint64_t popped() const noexcept { return head_.load(std::memory_order_acquire); }

    /// Instantaneous fill level (racy but clamped: never negative, never
    /// exceeds capacity). The two cursors cannot be read atomically
    /// together, so a concurrent push/pop between the loads can make the
    /// raw difference negative or larger than the ring; clamping keeps the
    /// documented contract for any-thread observers.
    std::size_t size() const noexcept {
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        const std::uint64_t head = head_.load(std::memory_order_acquire);
        const std::int64_t diff = static_cast<std::int64_t>(tail - head);
        if (diff <= 0) {
            return 0;
        }
        const auto n = static_cast<std::size_t>(diff);
        return n < capacity_ ? n : capacity_;
    }

    bool empty() const noexcept { return size() == 0; }

private:
    // Immutable after construction and read by both sides: lives on its own
    // read-only-shared line ahead of the mutable cursors.
    std::size_t capacity_ = 0;
    std::size_t mask_ = 0;
    std::vector<T> buf_;

    // Cache-line separation: shared cursors on their own lines, each side's
    // private cached copy of the opposite cursor on another. The struct's
    // 64-byte alignment pads the tail so no hot field shares a line with
    // an adjacent object.
    alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
    alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
    alignas(64) std::uint64_t head_cache_ = 0;        ///< producer's view of head_
    alignas(64) std::uint64_t tail_cache_ = 0;        ///< consumer's view of tail_
};

}  // namespace freq

#endif  // FREQ_ENGINE_SPSC_RING_H
