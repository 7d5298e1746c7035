#ifndef FREQ_CORE_GENERIC_FREQUENT_ITEMS_H
#define FREQ_CORE_GENERIC_FREQUENT_ITEMS_H

/// \file generic_frequent_items.h
/// Frequent items over arbitrary item types — the shape of Apache
/// DataSketches' `frequent_items_sketch<T>`, for identifiers that do not
/// reduce to 64-bit integers (tuples, flow 5-tuples, arbitrary structs).
///
/// Same algorithm family as the core sketch, different storage trade:
/// counters live in a `std::unordered_map<T, W>`, and DecrementCounters()
/// subtracts the *exact* median of all counters (Algorithm 3 with k* = k/2)
/// rather than a sampled quantile — with a node-based map the decrement
/// pass already touches every entry, so the extra Quickselect pass the
/// paper optimizes away (§2.2) is no longer the bottleneck, and exactness
/// buys the deterministic Theorem 2 bound:
///     0 ≤ f_i − lower_bound(i) ≤ N^res(j)/(k/2 − j)   for all j < k/2.
///
/// Use `frequent_items_sketch` (64-bit keys) or `string_frequent_items`
/// (fingerprinted strings) when they fit — they are several times faster.
/// Arbitrary key types that can tolerate 64-bit fingerprint identification
/// now also have a fast route: `fingerprint_frequent_items<Item, ...>`
/// (core/fingerprint_frequent_items.h) runs them on the table-backed core
/// and through the sharded engine; this map-backed core remains the choice
/// when exact key identity or the deterministic Theorem 2 bound matters.
///
/// The claim/increment/reduce admission step is the shared skeleton of
/// core/counter_maintenance.h (the same loop the counter_table-backed core
/// runs), and the map-backed core takes the same LifetimePolicy parameter
/// (core/lifetime_policy.h) as basic_frequent_items: plain_lifetime keeps
/// the historical behavior bit-identically, exponential_fading ages counts
/// by forward decay (tick() is O(1); queries divide by the accumulated
/// inflation). epoch_window is a counter_table-ring construction and is not
/// offered here — use the table-backed core for sliding windows.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/contracts.h"
#include "core/counter_maintenance.h"
#include "core/lifetime_policy.h"
#include "core/sketch_config.h"
#include "select/quickselect.h"

namespace freq {

struct summary_serde_access;

template <typename T, typename W = std::uint64_t, typename Hash = std::hash<T>,
          typename Equal = std::equal_to<T>, typename Lifetime = plain_lifetime>
class generic_frequent_items {
    static_assert(!Lifetime::windowed,
                  "epoch_window is a counter_table ring construction; use "
                  "basic_frequent_items<K, W, epoch_window> for sliding windows");
    static_assert(!Lifetime::decaying || std::is_floating_point_v<W>,
                  "exponential_fading requires a floating-point weight type "
                  "(decayed counts are fractional)");

public:
    using item_type = T;
    using weight_type = W;
    using lifetime_policy = Lifetime;

    struct row {
        T item;
        W estimate;
        W lower_bound;
        W upper_bound;
    };

    explicit generic_frequent_items(std::uint32_t max_counters)
        : generic_frequent_items(sketch_config{.max_counters = max_counters}) {}

    /// Full-config constructor — needed to reach the lifetime knobs
    /// (sketch_config::decay). The sampling knobs (sample_size,
    /// decrement_quantile) do not apply: this core decrements by the exact
    /// median.
    explicit generic_frequent_items(const sketch_config& cfg) : cfg_(cfg) {
        FREQ_REQUIRE(cfg.max_counters >= 1, "sketch needs at least one counter");
        policy_.configure(cfg);
        counters_.reserve(cfg.max_counters + 1);
        scratch_.reserve(cfg.max_counters);
    }

    void update(const T& item, W weight = W{1}) {
        if constexpr (std::is_signed_v<W> || std::is_floating_point_v<W>) {
            FREQ_REQUIRE(weight >= W{0}, "update weights must be non-negative");
        }
        if (weight == W{0}) {
            return;
        }
        if constexpr (Lifetime::decaying) {
            weight = static_cast<W>(weight * policy_.inflation());
        }
        total_weight_ += weight;
        ingest(item, weight);
    }

    /// Advances the policy's logical clock (no-op for plain; same contract
    /// as basic_frequent_items::tick, including the single-pass bulk jump).
    void tick(std::uint64_t epochs = 1) {
        if constexpr (Lifetime::decaying) {
            if (epochs == 0) {
                return;
            }
            if (epochs == 1) {
                if (policy_.tick()) {
                    renormalize();
                }
                return;
            }
            const double rebase = policy_.renormalize();
            policy_.jump(epochs);
            const double factor =
                rebase * std::pow(policy_.decay(), static_cast<double>(epochs));
            if (!(factor > 0.0)) {
                counters_.clear();
                offset_ = W{0};
                total_weight_ = W{0};
            } else if (factor < 1.0) {
                scale_all(factor);
            }
        } else {
            (void)epochs;
        }
    }

    const Lifetime& policy() const noexcept { return policy_; }

    W estimate(const T& item) const {
        const auto it = counters_.find(item);
        return it == counters_.end() ? W{0} : present(it->second + offset_);
    }

    W lower_bound(const T& item) const {
        const auto it = counters_.find(item);
        return it == counters_.end() ? W{0} : present(it->second);
    }

    W upper_bound(const T& item) const {
        const auto it = counters_.find(item);
        return present(it == counters_.end() ? offset_ : it->second + offset_);
    }

    W maximum_error() const noexcept { return present(offset_); }
    W total_weight() const noexcept { return present(total_weight_); }
    std::uint32_t capacity() const noexcept { return cfg_.max_counters; }
    std::size_t num_counters() const noexcept { return counters_.size(); }
    std::uint64_t num_decrements() const noexcept { return num_decrements_; }
    const sketch_config& config() const noexcept { return cfg_; }

    /// Approximate footprint of the counter map (node-based storage: per
    /// entry one node of key + counter + bucket pointer).
    std::size_t memory_bytes() const noexcept {
        return counters_.bucket_count() * sizeof(void*) +
               counters_.size() * (sizeof(std::pair<const T, W>) + 2 * sizeof(void*));
    }

    std::vector<row> frequent_items(error_type et, W threshold) const {
        std::vector<row> out;
        for (const auto& [item, c] : counters_) {
            const W lb = present(c);
            const W ub = present(c + offset_);
            const W bound = et == error_type::no_false_positives ? lb : ub;
            if (bound > threshold) {
                out.push_back(row{item, ub, lb, ub});
            }
        }
        std::sort(out.begin(), out.end(),
                  [](const row& a, const row& b) { return a.estimate > b.estimate; });
        return out;
    }

    std::vector<row> frequent_items(error_type et) const {
        return frequent_items(et, maximum_error());
    }

    /// Visits every tracked (item, raw_counter) pair. Raw counters are in
    /// storage units: under a fading policy divide by policy().inflation()
    /// for decayed values (the bound accessors do this for you).
    template <typename F>
    void for_each(F&& f) const {
        for (const auto& [item, c] : counters_) {
            f(item, c);
        }
    }

    /// Algorithm 5, generically: feed the other summary's counters through
    /// update(), then add offsets. std::unordered_map iteration order is
    /// hash-driven, which provides the §3.2 iteration-order randomization
    /// for free when the maps are differently sized or seeded. Under a
    /// fading policy the summaries are first aligned on the later logical
    /// clock, exactly as in basic_frequent_items::merge.
    void merge(const generic_frequent_items& other) {
        FREQ_REQUIRE(&other != this, "cannot merge a sketch into itself");
        if constexpr (Lifetime::decaying) {
            FREQ_REQUIRE(policy_.decay() == other.policy_.decay(),
                         "merging fading sketches requires equal decay factors");
            if (other.policy_.now() > policy_.now()) {
                tick(other.policy_.now() - policy_.now());
            }
            const double f = policy_.align_factor(other.policy_);
            const W combined_weight =
                total_weight_ + static_cast<W>(other.total_weight_ * f);
            for (const auto& [item, c] : other.counters_) {
                const W v = static_cast<W>(c * f);
                if (v > W{0}) {
                    ingest(item, v);
                }
            }
            offset_ += static_cast<W>(other.offset_ * f);
            total_weight_ = combined_weight;
        } else {
            const W combined_weight = total_weight_ + other.total_weight_;
            for (const auto& [item, c] : other.counters_) {
                ingest(item, c);
            }
            offset_ += other.offset_;
            total_weight_ = combined_weight;
        }
    }

    /// One-line human-readable summary (examples / debugging).
    std::string to_string() const {
        return "generic_frequent_items(k=" + std::to_string(cfg_.max_counters) +
               ", counters=" + std::to_string(counters_.size()) +
               ", N=" + std::to_string(static_cast<double>(total_weight())) +
               ", max_error=" + std::to_string(static_cast<double>(maximum_error())) + ")";
    }

private:
    friend struct summary_serde_access;

    /// Storage-units value -> query-units value (identity for plain).
    W present(W stored) const noexcept {
        if constexpr (Lifetime::decaying) {
            return static_cast<W>(stored / policy_.inflation());
        } else {
            return stored;
        }
    }

    /// Adapts the node-based map to the storage concept of the shared
    /// maintenance skeleton (core/counter_maintenance.h): full /
    /// upsert-of-absent-id.
    struct map_store {
        std::unordered_map<T, W, Hash, Equal>& counters;
        std::uint32_t max_counters;

        bool full() const { return counters.size() >= max_counters; }
        void upsert(const T& item, W weight) { counters.emplace(item, weight); }
    };

    void ingest(const T& item, W weight) {
        if (const auto it = counters_.find(item); it != counters_.end()) {
            it->second += weight;
            return;
        }
        map_store store{counters_, cfg_.max_counters};
        detail::claim_or_reduce(store, item, weight, [&] { return decrement_counters(); });
    }

    W decrement_counters() {
        scratch_.clear();
        for (const auto& [item, c] : counters_) {
            scratch_.push_back(c);
        }
        const W cstar = quickselect_largest(std::span<W>(scratch_),
                                            std::max<std::size_t>(1, scratch_.size() / 2) - 1);
        for (auto it = counters_.begin(); it != counters_.end();) {
            if (it->second <= cstar) {
                it = counters_.erase(it);
            } else {
                it->second -= cstar;
                ++it;
            }
        }
        offset_ += cstar;
        ++num_decrements_;
        FREQ_ENSURES(cstar > W{0});
        return cstar;
    }

    /// Forward-decay landmark rebase over the map — the node-based analogue
    /// of counter_table::scale_all.
    void renormalize() { scale_all(policy_.renormalize()); }

    void scale_all(double factor) {
        for (auto it = counters_.begin(); it != counters_.end();) {
            it->second = static_cast<W>(it->second * factor);
            if (it->second > W{0}) {
                ++it;
            } else {
                it = counters_.erase(it);  // underflowed below representability
            }
        }
        offset_ = static_cast<W>(offset_ * factor);
        total_weight_ = static_cast<W>(total_weight_ * factor);
    }

    sketch_config cfg_;
    std::unordered_map<T, W, Hash, Equal> counters_;
    std::vector<W> scratch_;
    W offset_{0};
    W total_weight_{0};
    std::uint64_t num_decrements_ = 0;
    [[no_unique_address]] Lifetime policy_{};
};

/// Ergonomic spelling of the fading map-backed core.
template <typename T, typename W = double, typename Hash = std::hash<T>,
          typename Equal = std::equal_to<T>>
using fading_generic_frequent_items =
    generic_frequent_items<T, W, Hash, Equal, exponential_fading>;

}  // namespace freq

#endif  // FREQ_CORE_GENERIC_FREQUENT_ITEMS_H
