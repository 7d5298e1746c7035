#ifndef FREQ_CORE_FREQUENT_ITEMS_SKETCH_H
#define FREQ_CORE_FREQUENT_ITEMS_SKETCH_H

/// \file frequent_items_sketch.h
/// The paper's primary contribution: the Reduce-By-Sample-Median (SMED)
/// extension of Misra-Gries to weighted streams — Algorithm 4 plus the §2.3
/// implementation details — with the O(k) in-place merge of Algorithm 5.
///
/// Summary of the algorithm:
///  * k counters live in a linear-probing hash table (counter_table).
///  * update(i, Δ): increment i's counter, or claim a free counter, or — if
///    all k counters are live — run DecrementCounters(): sample l counters,
///    take the q-quantile c* of the sample (q = 0.5 by default), subtract c*
///    from every counter, discard the non-positive ones, and give i a
///    counter of Δ − c* when Δ > c*. Amortized O(1) per update (Theorem 3).
///  * Estimates use the §2.3.1 offset hybrid: `offset` accumulates all c*
///    values, tracked items report c(i) + offset (the SS-style aggressive
///    estimate, exact for items never evicted), untracked items report 0
///    (the MG-style estimate, exact for items never seen).
///  * merge(other): feed the other summary's raw counters through update()
///    starting at a random slot, then add its offset (Algorithm 5 +
///    Theorem 5). In place, O(k), zero allocation.
///
/// Accuracy (Theorem 4): with q = 0.5 and l = 1024, for any j < k/3,
///     0 ≤ f_i − lower_bound(i) ≤ N^res(j) / (0.33·k − j)
/// with probability ≥ 1 − 1.5e-8 for streams of length up to 1e20 (§2.3.2).
///
/// The maintenance loop itself — claim/increment/decrement-by-sample-median,
/// purge, merge — lives in the policy-templated core
/// (core/basic_frequent_items.h); this class is the plain-lifetime
/// instantiation (bit-identical to the pre-policy implementation) plus the
/// portable serialization and raw-row construction the merge architecture
/// uses. Time-fading and sliding-window lifetimes are the same core under
/// exponential_fading / epoch_window (see core/lifetime_policy.h).

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/contracts.h"
#include "core/basic_frequent_items.h"
#include "core/sketch_config.h"

namespace freq {

template <typename K = std::uint64_t, typename W = std::uint64_t>
class frequent_items_sketch : public basic_frequent_items<K, W, plain_lifetime> {
    using base = basic_frequent_items<K, W, plain_lifetime>;

public:
    using key_type = K;
    using weight_type = W;
    using row = typename base::row;

    /// Sketch with k = \p max_counters and the paper's default policy
    /// (sample median of l = 1024, i.e. SMED).
    explicit frequent_items_sketch(std::uint32_t max_counters) : base(max_counters) {}

    explicit frequent_items_sketch(const sketch_config& cfg) : base(cfg) {}

    // --- serialization ---------------------------------------------------------

    /// Portable little-endian encoding; stable across platforms.
    std::vector<std::uint8_t> serialize() const {
        byte_writer w;
        const sketch_config& cfg = this->config();
        w.reserve(48 + static_cast<std::size_t>(this->num_counters()) * (sizeof(K) + 8));
        w.put_u32(serde_magic);
        w.put_u8(serde_version);
        w.put_u8(sizeof(K));
        w.put_u8(weight_code());
        w.put_u8(0);  // reserved flags
        w.put_u32(cfg.max_counters);
        w.put_u32(cfg.sample_size);
        w.put_f64(cfg.decrement_quantile);
        w.put_u64(cfg.seed);
        put_weight(w, this->offset_);
        put_weight(w, this->total_weight_);
        w.put_u32(this->num_counters());
        this->for_each([&](K id, W c) {
            w.put_u64(static_cast<std::uint64_t>(id));
            put_weight(w, c);
        });
        return std::move(w).take();
    }

    /// Reconstructs a sketch from bytes. \p max_accepted_counters guards
    /// resource consumption when the bytes are untrusted (the §3 merging
    /// architecture ships sketches across machines): an image whose declared
    /// capacity exceeds the bound is rejected *before* any table allocation,
    /// so hostile input cannot force multi-gigabyte allocations.
    static frequent_items_sketch deserialize(const std::uint8_t* data, std::size_t size,
                                             std::uint32_t max_accepted_counters = 1u << 28) {
        byte_reader r(data, size);
        FREQ_REQUIRE(r.get_u32() == serde_magic, "not a frequent_items_sketch image");
        FREQ_REQUIRE(r.get_u8() == serde_version, "unsupported sketch serialization version");
        FREQ_REQUIRE(r.get_u8() == sizeof(K), "sketch image has a different key width");
        FREQ_REQUIRE(r.get_u8() == weight_code(), "sketch image has a different weight type");
        r.get_u8();  // reserved
        sketch_config cfg;
        cfg.max_counters = r.get_u32();
        FREQ_REQUIRE(cfg.max_counters <= max_accepted_counters,
                     "sketch image capacity exceeds the caller's acceptance bound");
        cfg.sample_size = r.get_u32();
        cfg.decrement_quantile = r.get_f64();
        cfg.seed = r.get_u64();
        frequent_items_sketch s(cfg);
        s.offset_ = get_weight(r);
        s.total_weight_ = get_weight(r);
        const std::uint32_t n = r.get_u32();
        FREQ_REQUIRE(n <= cfg.max_counters, "sketch image counter count exceeds capacity");
        for (std::uint32_t i = 0; i < n; ++i) {
            const K id = static_cast<K>(r.get_u64());
            const W c = get_weight(r);
            FREQ_REQUIRE(c > W{0}, "sketch image contains a non-positive counter");
            FREQ_REQUIRE(s.table_.find(id) == nullptr, "sketch image contains a duplicate id");
            s.table_.upsert(id, c);
        }
        return s;
    }

    static frequent_items_sketch deserialize(const std::vector<std::uint8_t>& bytes) {
        return deserialize(bytes.data(), bytes.size());
    }

    /// Builds a sketch directly from raw (id, counter) rows, bypassing the
    /// update path — used by the §3.1 merge baselines, which compute the
    /// merged counter set themselves. Rows must hold distinct ids and
    /// positive counters, and there must be at most cfg.max_counters of them.
    static frequent_items_sketch from_raw(const sketch_config& cfg,
                                          std::span<const std::pair<K, W>> rows, W offset,
                                          W total_weight) {
        FREQ_REQUIRE(rows.size() <= cfg.max_counters,
                     "from_raw row count exceeds sketch capacity");
        frequent_items_sketch s(cfg);
        for (const auto& [id, c] : rows) {
            FREQ_REQUIRE(c > W{0}, "from_raw counters must be positive");
            FREQ_REQUIRE(s.table_.find(id) == nullptr, "from_raw ids must be distinct");
            s.table_.upsert(id, c);
        }
        s.offset_ = offset;
        s.total_weight_ = total_weight;
        return s;
    }

    /// One-line human-readable summary (examples / debugging).
    std::string to_string() const {
        return "frequent_items_sketch(k=" + std::to_string(this->config().max_counters) +
               ", counters=" + std::to_string(this->num_counters()) +
               ", N=" + std::to_string(static_cast<double>(this->total_weight())) +
               ", max_error=" + std::to_string(static_cast<double>(this->maximum_error())) +
               ", decrements=" + std::to_string(this->num_decrements()) + ")";
    }

private:
    static constexpr std::uint32_t serde_magic = 0x4b535146;  // "FQSK"
    static constexpr std::uint8_t serde_version = 1;

    static constexpr std::uint8_t weight_code() {
        return std::is_floating_point_v<W> ? 1 : 0;
    }

    static void put_weight(byte_writer& w, W v) {
        if constexpr (std::is_floating_point_v<W>) {
            w.put_f64(static_cast<double>(v));
        } else {
            w.put_u64(static_cast<std::uint64_t>(v));
        }
    }

    static W get_weight(byte_reader& r) {
        if constexpr (std::is_floating_point_v<W>) {
            return static_cast<W>(r.get_f64());
        } else {
            return static_cast<W>(r.get_u64());
        }
    }
};

/// The deployed configuration (k counters, sample median): SMED of §4.
template <typename K = std::uint64_t, typename W = std::uint64_t>
frequent_items_sketch<K, W> make_smed(std::uint32_t k, std::uint64_t seed = 0) {
    return frequent_items_sketch<K, W>(
        sketch_config{.max_counters = k, .decrement_quantile = 0.5, .seed = seed});
}

/// The sample-minimum variant: SMIN of §4 (slow but nearly RBMC-accurate).
template <typename K = std::uint64_t, typename W = std::uint64_t>
frequent_items_sketch<K, W> make_smin(std::uint32_t k, std::uint64_t seed = 0) {
    return frequent_items_sketch<K, W>(
        sketch_config{.max_counters = k, .decrement_quantile = 0.0, .seed = seed});
}

}  // namespace freq

#endif  // FREQ_CORE_FREQUENT_ITEMS_SKETCH_H
