#ifndef FREQ_BASELINES_RAP_SPACE_SAVING_H
#define FREQ_BASELINES_RAP_SPACE_SAVING_H

/// \file rap_space_saving.h
/// The Space-Saving variant of Sivaraman et al. [21] sketched in §5 of the
/// paper (HashPipe's admission policy): when an untracked item arrives and
/// all counters are taken, sample ℓ counters at random, reassign the
/// *sample minimum* to the new item, and increment it by Δ. With constant ℓ
/// every update costs O(1) worst case and touches a bounded number of
/// memory locations — the property switch hardware needs — at the price of
/// weaker error guarantees than SMED (§5: "may have larger error than our
/// proposals"). No bench compares it; only tests/test_rap_space_saving.cpp
/// exercises it.
///
/// The paper leaves the detailed comparison to future work. Interpretation
/// notes: the sample minimum is the natural reading of "this counter" in §5
/// (matching SS, which evicts the global minimum), and untracked items
/// estimate 0 since no global minimum is maintained.

#include <cstdint>

#include "common/contracts.h"
#include "random/xoshiro.h"
#include "stream/update.h"
#include "table/counter_table.h"

namespace freq {

template <typename K = std::uint64_t, typename W = std::uint64_t>
class rap_space_saving {
public:
    using key_type = K;
    using weight_type = W;

    /// \param sample_size  ℓ — counters sampled per eviction (O(1) constant).
    explicit rap_space_saving(std::uint32_t max_counters, std::uint32_t sample_size = 2,
                              std::uint64_t seed = 0)
        : table_(max_counters, seed),
          sample_size_(sample_size),
          rng_(mix64(seed ^ 0xbb67ae8584caa73bULL)) {
        FREQ_REQUIRE(max_counters >= 1, "rap_space_saving needs at least one counter");
        FREQ_REQUIRE(sample_size >= 1, "sample size must be >= 1");
    }

    void update(K id, W weight = W{1}) {
        if constexpr (std::is_signed_v<W> || std::is_floating_point_v<W>) {
            FREQ_REQUIRE(weight >= W{0}, "update weights must be non-negative");
        }
        if (weight == W{0}) {
            return;
        }
        total_weight_ += weight;
        if (W* c = table_.find(id)) {
            *c += weight;
            return;
        }
        if (!table_.full()) {
            table_.upsert(id, weight);
            return;
        }
        // Sample ℓ live counters; evict the sample minimum.
        std::uint32_t victim_slot = sample_occupied_slot();
        W victim_value = table_.slot_value(victim_slot);
        for (std::uint32_t j = 1; j < sample_size_; ++j) {
            const std::uint32_t s = sample_occupied_slot();
            if (table_.slot_value(s) < victim_value) {
                victim_slot = s;
                victim_value = table_.slot_value(s);
            }
        }
        const K victim = table_.slot_key(victim_slot);
        table_.erase(victim);
        table_.upsert(id, victim_value + weight);
        ++num_evictions_;
    }

    void consume(const update_stream<K, W>& stream) {
        for (const auto& u : stream) {
            update(u.id, u.weight);
        }
    }

    /// SS-style estimate: the (over-counting) counter when tracked, else 0.
    W estimate(K id) const {
        const W* c = table_.find(id);
        return c != nullptr ? *c : W{0};
    }

    W total_weight() const noexcept { return total_weight_; }
    std::uint32_t capacity() const noexcept { return table_.capacity(); }
    std::uint32_t num_counters() const noexcept { return table_.size(); }
    std::uint64_t num_evictions() const noexcept { return num_evictions_; }
    std::size_t memory_bytes() const noexcept { return table_.memory_bytes(); }

    template <typename F>
    void for_each(F&& f) const {
        table_.for_each(std::forward<F>(f));
    }

private:
    std::uint32_t sample_occupied_slot() {
        std::uint32_t s;
        do {
            s = static_cast<std::uint32_t>(rng_.below(table_.num_slots()));
        } while (!table_.slot_occupied(s));
        return s;
    }

    counter_table<K, W> table_;
    std::uint32_t sample_size_;
    xoshiro256ss rng_;
    W total_weight_{0};
    std::uint64_t num_evictions_ = 0;
};

}  // namespace freq

#endif  // FREQ_BASELINES_RAP_SPACE_SAVING_H
