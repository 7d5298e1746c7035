#ifndef FREQ_CORE_BASIC_FREQUENT_ITEMS_H
#define FREQ_CORE_BASIC_FREQUENT_ITEMS_H

/// \file basic_frequent_items.h
/// The shared counter-maintenance core of every frequent-items summary in
/// this codebase: Algorithm 4's claim/increment/decrement-by-sampled-median
/// loop, the O(L) purge, and the O(k) in-place merge of Algorithm 5 — written
/// once over counter_table and parameterized by a LifetimePolicy
/// (lifetime_policy.h) that decides how tracked weight ages:
///
///   basic_frequent_items<K, W, plain_lifetime>     — the paper's sketch;
///       every policy hook compiles away, so this is bit-identical (same RNG
///       consumption, same table state) to the pre-policy implementation.
///   basic_frequent_items<K, W, exponential_fading> — FDCMSS-style
///       time-fading counts via forward decay; requires a floating-point W.
///   basic_frequent_items<K, W, epoch_window>       — sliding window as a
///       ring of plain sub-summaries (partial specialization below) with
///       O(k·window) merge-on-query and exact epoch eviction.
///
/// frequent_items_sketch derives from the plain instantiation and adds
/// serialization; string/signed adapters choose their policy per template
/// parameter; the sharded engine (engine/stream_engine.h) is templated on
/// the sketch type, so all three lifetimes ingest through the same
/// SPSC-ring/batched-drain path.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "core/counter_maintenance.h"
#include "core/lifetime_policy.h"
#include "obs/pipeline_metrics.h"
#include "core/sketch_config.h"
#include "random/xoshiro.h"
#include "select/quickselect.h"
#include "stream/update.h"
#include "table/counter_table.h"

namespace freq {

/// Raw-state accessor of the versioned serde envelope (api/summary_bytes.h):
/// the one friend through which serialization reads and restores counter
/// tables, offsets and policy clocks without widening the public surface.
struct summary_serde_access;

template <typename K = std::uint64_t, typename W = std::uint64_t,
          typename LifetimePolicy = plain_lifetime>
class basic_frequent_items {
    static_assert(!LifetimePolicy::windowed,
                  "epoch_window instantiates the ring specialization below");
    static_assert(!LifetimePolicy::decaying || std::is_floating_point_v<W>,
                  "exponential_fading requires a floating-point weight type "
                  "(decayed counts are fractional)");

public:
    using key_type = K;
    using weight_type = W;
    using lifetime_policy = LifetimePolicy;

    /// One reported heavy hitter (see frequent_items()).
    struct row {
        K id;
        W estimate;     ///< §2.3.1 hybrid estimate (= upper bound for tracked items)
        W lower_bound;  ///< raw counter: never exceeds the true frequency
        W upper_bound;  ///< counter + offset: never below the true frequency

        friend bool operator==(const row&, const row&) = default;
    };

    /// Sketch with k = \p max_counters and the paper's default policy
    /// (sample median of l = 1024, i.e. SMED).
    explicit basic_frequent_items(std::uint32_t max_counters)
        : basic_frequent_items(sketch_config{.max_counters = max_counters}) {}

    explicit basic_frequent_items(const sketch_config& cfg)
        : cfg_(cfg),
          table_(cfg.max_counters, cfg.seed),
          rng_(mix64(cfg.seed ^ 0xa076'1d64'78bd'642fULL)) {
        FREQ_REQUIRE(cfg.max_counters >= 1, "sketch needs at least one counter");
        FREQ_REQUIRE(cfg.decrement_quantile >= 0.0 && cfg.decrement_quantile < 1.0,
                     "decrement quantile must be in [0, 1)");
        // The upper bound keeps hostile serialized images (untrusted input in
        // the §3 merging architecture) from driving huge allocations.
        FREQ_REQUIRE(cfg.sample_size >= 1 && cfg.sample_size <= (1u << 20),
                     "sample size must be in [1, 2^20]");
        sample_buf_.resize(cfg.sample_size);
        policy_.configure(cfg);
    }

    // --- stream ingestion ---------------------------------------------------

    /// Processes the weighted update (id, weight). Amortized O(1).
    /// weight = 0 is a no-op; negative weights are rejected (§1.3's note:
    /// handle deletions with a second sketch, not negative updates).
    void update(K id, W weight) {
        if constexpr (std::is_signed_v<W> || std::is_floating_point_v<W>) {
            FREQ_REQUIRE(weight >= W{0}, "update weights must be non-negative");
        }
        if (weight == W{0}) {
            return;
        }
        if constexpr (LifetimePolicy::decaying) {
            weight = static_cast<W>(weight * policy_.inflation());
        }
        total_weight_ += weight;
        ingest(id, weight);
    }

    /// Unit-weight convenience overload.
    void update(K id) { update(id, W{1}); }

    /// Batched ingest: validates the whole batch, then runs each element
    /// through the same ingest step as update(id, weight), with the total
    /// weight kept in a register and stored back once. The register starts
    /// at the current total and adds each weight in stream order, so a
    /// real-valued total does not depend on where a stream is split into
    /// batches. Semantically identical to calling update(id, weight) for each
    /// element in order (same table state, same RNG consumption, same total);
    /// this is the path the sharded engine's workers drain ring batches
    /// through.
    void update(std::span<const freq::update<K, W>> batch) {
        // Validate the whole batch before touching any state, so a rejected
        // weight cannot leave the sketch with counters not yet reflected in
        // total_weight_ (the element-wise path validates-then-mutates per
        // element; this keeps the all-or-nothing boundary at the batch).
        if constexpr (std::is_signed_v<W> || std::is_floating_point_v<W>) {
            for (const auto& u : batch) {
                FREQ_REQUIRE(u.weight >= W{0}, "update weights must be non-negative");
            }
        }
        W total = total_weight_;
        for (const auto& u : batch) {
            W weight = u.weight;
            if (weight == W{0}) {
                continue;
            }
            if constexpr (LifetimePolicy::decaying) {
                weight = static_cast<W>(weight * policy_.inflation());
            }
            total += weight;
            ingest(u.id, weight);
        }
        total_weight_ = total;
    }

    void consume(const update_stream<K, W>& stream) {
        update(std::span<const freq::update<K, W>>(stream.data(), stream.size()));
    }

    // --- lifetime ------------------------------------------------------------

    /// Advances the policy's logical clock by \p epochs ticks. A no-op for
    /// the plain policy; O(1) per single tick for exponential_fading
    /// (amortizing the rare O(L) renormalization pass), and one O(L) pass
    /// total for a bulk jump of any size.
    void tick(std::uint64_t epochs = 1) {
        if constexpr (LifetimePolicy::decaying) {
            if (epochs == 0) {
                return;
            }
            if (epochs == 1) {
                if (policy_.tick()) {
                    renormalize();
                }
                return;
            }
            // Bulk jump (catch-up after idle, merge clock alignment): fold
            // the landmark rebase and the rho^epochs decay into one O(L)
            // pass — per-tick looping would renormalize O(epochs / 40)
            // times, and separate rebase + decay passes would sweep twice.
            const double rebase = policy_.renormalize();
            policy_.jump(epochs);
            const double factor =
                rebase * std::pow(policy_.decay(), static_cast<double>(epochs));
            if (!(factor > 0.0)) {
                // rho^epochs underflowed: every counter decays below any
                // representable weight.
                table_.clear();
                offset_ = W{0};
                total_weight_ = W{0};
            } else if (factor < 1.0) {
                table_.scale_all(factor);
                offset_ = static_cast<W>(offset_ * factor);
                total_weight_ = static_cast<W>(total_weight_ * factor);
            }
        } else {
            (void)epochs;
        }
    }

    const LifetimePolicy& policy() const noexcept { return policy_; }

    // --- queries -------------------------------------------------------------

    /// The §2.3.1 hybrid estimate: c(i) + offset when tracked, else 0 — in
    /// decayed units under a fading policy.
    W estimate(K id) const {
        const W* c = table_.find(id);
        return c != nullptr ? present(*c + offset_) : W{0};
    }

    /// Never exceeds the true (policy-aged) frequency f_i.
    W lower_bound(K id) const {
        const W* c = table_.find(id);
        return c != nullptr ? present(*c) : W{0};
    }

    /// Never below the true (policy-aged) frequency f_i.
    W upper_bound(K id) const {
        const W* c = table_.find(id);
        return present(c != nullptr ? *c + offset_ : offset_);
    }

    /// The accumulated offset: an a-posteriori bound on the error of any
    /// estimate (upper_bound − lower_bound ≤ maximum_error() always).
    W maximum_error() const noexcept { return present(offset_); }

    /// N — total weight of all processed updates (including merged streams);
    /// the total *decayed* weight under a fading policy.
    W total_weight() const noexcept { return present(total_weight_); }

    std::uint32_t num_counters() const noexcept { return table_.size(); }
    std::uint32_t capacity() const noexcept { return table_.capacity(); }
    bool empty() const noexcept { return table_.empty(); }
    const sketch_config& config() const noexcept { return cfg_; }

    /// Bytes of counter storage (the equal-space comparisons of §4.3 budget
    /// on this figure; the sample buffer is excluded as the paper's space
    /// accounting counts summary state, and the buffer is O(l) = O(1)).
    std::size_t memory_bytes() const noexcept { return table_.memory_bytes(); }

    /// Storage cost for a hypothetical sketch with k counters — used by the
    /// benches to size algorithms for equal-space comparisons.
    static std::size_t bytes_for(std::uint32_t k) noexcept {
        return counter_table<K, W>::bytes_for(k);
    }

    /// Number of DecrementCounters() executions so far (instrumentation:
    /// Lemma 3 / Theorem 3 assert this is O(n/k)).
    std::uint64_t num_decrements() const noexcept { return num_decrements_; }

    /// All items whose bound (chosen by \p et) strictly exceeds \p threshold,
    /// sorted by descending estimate. With et = no_false_negatives and
    /// threshold = φ·N this returns every (φ, ε)-heavy hitter (§1.2).
    std::vector<row> frequent_items(error_type et, W threshold) const {
        std::vector<row> out;
        table_.for_each([&](K id, W c) {
            const W lb = present(c);
            const W ub = present(c + offset_);
            const W bound = et == error_type::no_false_positives ? lb : ub;
            if (bound > threshold) {
                out.push_back(row{id, ub, lb, ub});
            }
        });
        std::sort(out.begin(), out.end(),
                  [](const row& a, const row& b) { return a.estimate > b.estimate; });
        return out;
    }

    /// Threshold-free overload using maximum_error() as the threshold, the
    /// tightest value for which the chosen guarantee is meaningful.
    std::vector<row> frequent_items(error_type et) const {
        return frequent_items(et, maximum_error());
    }

    /// The (up to) m tracked items with the largest estimates, in descending
    /// order — the "top talkers" convenience query. No threshold guarantee:
    /// ranks within maximum_error() of each other may be swapped relative to
    /// the true ordering.
    std::vector<row> top_items(std::size_t m) const {
        std::vector<row> out;
        out.reserve(table_.size());
        table_.for_each([&](K id, W c) {
            out.push_back(row{id, present(c + offset_), present(c), present(c + offset_)});
        });
        std::sort(out.begin(), out.end(),
                  [](const row& a, const row& b) { return a.estimate > b.estimate; });
        if (out.size() > m) {
            out.resize(m);
        }
        return out;
    }

    /// Visits every tracked (id, raw_counter) pair. Raw counters are in
    /// storage units: for a fading policy divide by policy().inflation() to
    /// obtain decayed values (the bound accessors do this for you).
    template <typename F>
    void for_each(F&& f) const {
        table_.for_each(std::forward<F>(f));
    }

    // --- merging (Algorithm 5) -----------------------------------------------

    /// Merges \p other into this sketch: each of the other summary's raw
    /// counters becomes one weighted update here, iterated from a random
    /// slot (§3.2's note — front-to-back iteration with a shared hash
    /// function would overpopulate the front of this table), then offsets
    /// add. O(k) time, no allocation, arbitrary aggregation trees supported
    /// (Theorem 5). Under a fading policy the two summaries are first
    /// aligned on the later logical clock, so the merged sketch is exactly
    /// the fading summary of the interleaved streams.
    void merge(const basic_frequent_items& other) {
        FREQ_REQUIRE(&other != this, "cannot merge a sketch into itself");
        if constexpr (LifetimePolicy::decaying) {
            FREQ_REQUIRE(policy_.decay() == other.policy_.decay(),
                         "merging fading sketches requires equal decay factors");
            if (other.policy_.now() > policy_.now()) {
                tick(other.policy_.now() - policy_.now());
            }
            const double f = policy_.align_factor(other.policy_);
            const W combined_weight =
                total_weight_ + static_cast<W>(other.total_weight_ * f);
            if (!other.table_.empty()) {
                const auto start =
                    static_cast<std::uint32_t>(rng_.below(other.table_.num_slots()));
                other.table_.for_each_from(start, [&](K id, W c) {
                    const W v = static_cast<W>(c * f);
                    if (v > W{0}) {
                        ingest(id, v);
                    }
                });
            }
            offset_ += static_cast<W>(other.offset_ * f);
            total_weight_ = combined_weight;
        } else {
            const W combined_weight = total_weight_ + other.total_weight_;
            if (!other.table_.empty()) {
                const auto start =
                    static_cast<std::uint32_t>(rng_.below(other.table_.num_slots()));
                other.table_.for_each_from(start, [&](K id, W c) { ingest(id, c); });
            }
            offset_ += other.offset_;
            total_weight_ = combined_weight;
        }
    }

    /// Builds a summary directly from raw (id, counter) rows, bypassing the
    /// update path — the §3.1 merge baselines (merge_baselines.h) compute
    /// the merged counter set themselves. Rows must hold distinct ids and
    /// positive counters (at most cfg.max_counters), all in RAW storage
    /// units; under a fading policy the (now, inflation) pair names the
    /// landmark those units are relative to.
    static basic_frequent_items from_raw(const sketch_config& cfg,
                                         std::span<const std::pair<K, W>> rows, W offset,
                                         W total_weight, std::uint64_t now = 0,
                                         double inflation = 1.0) {
        FREQ_REQUIRE(rows.size() <= cfg.max_counters,
                     "from_raw row count exceeds sketch capacity");
        basic_frequent_items s(cfg);
        if constexpr (LifetimePolicy::decaying) {
            s.policy_.restore(now, inflation);
        } else {
            FREQ_REQUIRE(now == 0 && inflation == 1.0,
                         "plain summaries carry no lifetime clock");
        }
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
        return "basic_frequent_items(k=" + std::to_string(cfg_.max_counters) +
               ", counters=" + std::to_string(table_.size()) +
               ", N=" + std::to_string(static_cast<double>(total_weight())) +
               ", max_error=" + std::to_string(static_cast<double>(maximum_error())) +
               ", decrements=" + std::to_string(num_decrements_) + ")";
    }

protected:
    friend struct summary_serde_access;

    /// Storage-units value -> query-units value (identity for plain).
    W present(W stored) const noexcept {
        if constexpr (LifetimePolicy::decaying) {
            return static_cast<W>(stored / policy_.inflation());
        } else {
            return stored;
        }
    }

    /// Algorithm 4's Update(), minus N bookkeeping (merge() feeds raw
    /// counters through this path without double-counting stream weight).
    /// A tracked id bumps its counter here; every 16th such hit records its
    /// probe length, read from the slot find() already resolved. An
    /// untracked id takes the shared claim_or_reduce skeleton; only the c*
    /// selection (sampled quantile over table slots) lives here.
    void ingest(K id, W weight) {
        if (W* c = table_.find(id)) {
            *c += weight;
            if ((++hits_ & 15u) == 0) {
                obs::pipeline().table_probe_length.record(table_.probe_length_of(c) - 1u);
            }
            return;
        }
        detail::claim_or_reduce(table_, id, weight, [&] { return decrement_counters(); });
    }

    /// Algorithm 4's DecrementCounters(): sample l live counters with
    /// replacement, subtract the configured sample quantile from every
    /// counter, and drop the non-positive ones. Returns c*.
    W decrement_counters() {
        const std::uint32_t slots = table_.num_slots();
        for (auto& sample : sample_buf_) {
            std::uint32_t s;
            do {
                s = static_cast<std::uint32_t>(rng_.below(slots));
            } while (!table_.slot_occupied(s));
            sample = table_.slot_value(s);
        }
        const W cstar = quickselect_quantile(std::span<W>(sample_buf_), cfg_.decrement_quantile);
        FREQ_ENSURES(cstar > W{0});
        const std::uint32_t evicted = table_.decrement_all(cstar);
        obs::pipeline().sketch_evictions.add(evicted);
        offset_ += cstar;
        ++num_decrements_;
        return cstar;
    }

    /// Forward-decay landmark rebase: O(L), runs once every ~2^40-fold of
    /// accumulated inflation.
    void renormalize() {
        const double factor = policy_.renormalize();
        table_.scale_all(factor);
        offset_ = static_cast<W>(offset_ * factor);
        total_weight_ = static_cast<W>(total_weight_ * factor);
        obs::pipeline().sketch_renormalizations.add(1);
    }

    sketch_config cfg_;
    counter_table<K, W> table_;
    xoshiro256ss rng_;
    std::vector<W> sample_buf_;
    W offset_{0};
    W total_weight_{0};
    std::uint64_t num_decrements_ = 0;
    std::uint32_t hits_ = 0;  ///< tracked hits, for probe-length sampling only
    [[no_unique_address]] LifetimePolicy policy_{};
};

/// ---------------------------------------------------------------------------
/// epoch_window specialization: a ring of sketch_config::window_epochs plain
/// cores, one per logical tick. update() lands in the current epoch; tick()
/// rotates the ring, evicting the epoch that falls out of the window exactly
/// (the "summary per 1-hour period" deployment of §3, with the deque that
/// examples/rolling_window.cpp used to hand-roll now behind the sketch API).
/// Point queries sum per-epoch bounds in O(window); set queries (and engine
/// snapshots) fold the live epochs with the O(k) Algorithm 5 merge.
/// ---------------------------------------------------------------------------
template <typename K, typename W>
class basic_frequent_items<K, W, epoch_window> {
public:
    using key_type = K;
    using weight_type = W;
    using lifetime_policy = epoch_window;
    using epoch_sketch = basic_frequent_items<K, W, plain_lifetime>;
    using row = typename epoch_sketch::row;

    explicit basic_frequent_items(std::uint32_t max_counters)
        : basic_frequent_items(sketch_config{.max_counters = max_counters}) {}

    explicit basic_frequent_items(const sketch_config& cfg) : cfg_(cfg) {
        FREQ_REQUIRE(cfg.window_epochs >= 1, "epoch_window needs at least one epoch");
        FREQ_REQUIRE(cfg.window_epochs <= 4096, "epoch_window ring limited to 4096 epochs");
        ring_.reserve(cfg.window_epochs);
        slot_epoch_.reserve(cfg.window_epochs);
        for (std::uint32_t e = 0; e < cfg.window_epochs; ++e) {
            ring_.emplace_back(epoch_cfg(e));
            slot_epoch_.push_back(e);
        }
    }

    // --- stream ingestion ----------------------------------------------------

    void update(K id, W weight) { current().update(id, weight); }
    void update(K id) { current().update(id); }
    void update(std::span<const freq::update<K, W>> batch) { current().update(batch); }

    void consume(const update_stream<K, W>& stream) { current().consume(stream); }

    // --- lifetime ------------------------------------------------------------

    /// Closes the current epoch and opens a fresh one, evicting the epoch
    /// that slides out of the window. O(1) amortized per tick (the evicted
    /// slot's table is re-allocated, not swept); a jump of >= window epochs
    /// replaces the whole ring — O(window), never O(epochs).
    void tick(std::uint64_t epochs = 1) {
        const std::uint64_t window = ring_.size();
        if (epochs >= window) {
            // Every live epoch slides out: reset each slot to its absolute
            // epoch in the new window directly.
            now_ += epochs;
            for (std::uint64_t a = now_ + 1 - window; a <= now_; ++a) {
                const std::uint32_t slot = static_cast<std::uint32_t>(a % window);
                ring_[slot] = epoch_sketch(epoch_cfg(a));
                slot_epoch_[slot] = a;
            }
            return;
        }
        for (std::uint64_t e = 0; e < epochs; ++e) {
            ++now_;
            const std::uint32_t slot = static_cast<std::uint32_t>(now_ % ring_.size());
            if (slot_epoch_[slot] != now_) {
                ring_[slot] = epoch_sketch(epoch_cfg(now_));
                slot_epoch_[slot] = now_;
            }
        }
    }

    /// Current absolute epoch number (ticks since construction).
    std::uint64_t now() const noexcept { return now_; }

    /// The sub-summary receiving updates this epoch — O(1) access for
    /// callers (e.g. the string adapter's dictionary admission check) that
    /// only care about state this epoch could have changed.
    const epoch_sketch& current_epoch() const noexcept {
        return ring_[static_cast<std::uint32_t>(now_ % ring_.size())];
    }
    std::uint32_t window_epochs() const noexcept {
        return static_cast<std::uint32_t>(ring_.size());
    }

    // --- queries (over the whole window) -------------------------------------

    /// Epoch sub-streams partition the window's stream, so per-epoch bounds
    /// sum to valid window bounds (the Theorem 5 argument, degenerately).
    W estimate(K id) const {
        W sum{0};
        for (const auto& e : ring_) {
            sum += e.estimate(id);
        }
        return sum;
    }

    W lower_bound(K id) const {
        W sum{0};
        for (const auto& e : ring_) {
            sum += e.lower_bound(id);
        }
        return sum;
    }

    W upper_bound(K id) const {
        W sum{0};
        for (const auto& e : ring_) {
            sum += e.upper_bound(id);
        }
        return sum;
    }

    /// Sum of live epoch offsets — the window analogue of the a-posteriori
    /// error bound.
    W maximum_error() const noexcept {
        W sum{0};
        for (const auto& e : ring_) {
            sum += e.maximum_error();
        }
        return sum;
    }

    /// Total weight currently inside the window (evicted epochs excluded).
    W total_weight() const noexcept {
        W sum{0};
        for (const auto& e : ring_) {
            sum += e.total_weight();
        }
        return sum;
    }

    /// Counters held across live epochs (an id tracked in several epochs
    /// counts once per epoch).
    std::uint32_t num_counters() const noexcept {
        std::uint32_t sum = 0;
        for (const auto& e : ring_) {
            sum += e.num_counters();
        }
        return sum;
    }

    std::uint32_t capacity() const noexcept { return cfg_.max_counters; }
    bool empty() const noexcept { return total_weight() == W{0}; }
    const sketch_config& config() const noexcept { return cfg_; }

    std::size_t memory_bytes() const noexcept {
        std::size_t sum = 0;
        for (const auto& e : ring_) {
            sum += e.memory_bytes();
        }
        return sum;
    }

    std::uint64_t num_decrements() const noexcept {
        std::uint64_t sum = 0;
        for (const auto& e : ring_) {
            sum += e.num_decrements();
        }
        return sum;
    }

    /// Folds the live epochs into one plain summary of the window's stream
    /// (O(k·window), Algorithm 5 per epoch) — the handle for set queries and
    /// for shipping a window summary elsewhere.
    epoch_sketch summarize() const {
        sketch_config scratch = cfg_;
        scratch.seed = cfg_.seed ^ 0x5769'6e64'6f77'5371ULL;  // independent table hash
        epoch_sketch out(scratch);
        for (const auto& e : ring_) {
            if (!e.empty()) {
                out.merge(e);
            }
        }
        return out;
    }

    std::vector<row> frequent_items(error_type et, W threshold) const {
        return summarize().frequent_items(et, threshold);
    }

    std::vector<row> frequent_items(error_type et) const {
        return summarize().frequent_items(et);
    }

    std::vector<row> top_items(std::size_t m) const { return summarize().top_items(m); }

    /// Visits every (id, raw_counter) pair of every live epoch; ids tracked
    /// in several epochs are visited once per epoch.
    template <typename F>
    void for_each(F&& f) const {
        for (const auto& e : ring_) {
            e.for_each(f);
        }
    }

    // --- merging -------------------------------------------------------------

    /// Epoch-aligned merge: epochs with the same absolute number fold
    /// together (Algorithm 5); \p other's epochs that have already slid out
    /// of this sketch's window are dropped — exactly what eviction would
    /// have done. The engine's snapshot uses this to combine windowed shards
    /// even when a tick lands between two shard clones.
    void merge(const basic_frequent_items& other) {
        FREQ_REQUIRE(&other != this, "cannot merge a sketch into itself");
        FREQ_REQUIRE(ring_.size() == other.ring_.size(),
                     "merging windowed sketches requires equal window sizes");
        if (other.now_ > now_) {
            tick(other.now_ - now_);
        }
        const std::uint64_t window = ring_.size();
        const std::uint64_t lo_this = now_ + 1 >= window ? now_ + 1 - window : 0;
        const std::uint64_t lo_other =
            other.now_ + 1 >= window ? other.now_ + 1 - window : 0;
        for (std::uint64_t a = std::max(lo_this, lo_other); a <= other.now_; ++a) {
            const auto& src = other.ring_[a % window];
            if (!src.empty()) {
                ring_[a % window].merge(src);
            }
        }
    }

    std::string to_string() const {
        return "windowed_frequent_items(k=" + std::to_string(cfg_.max_counters) +
               ", window=" + std::to_string(ring_.size()) +
               ", epoch=" + std::to_string(now_) +
               ", N=" + std::to_string(static_cast<double>(total_weight())) +
               ", max_error=" + std::to_string(static_cast<double>(maximum_error())) + ")";
    }

private:
    friend struct summary_serde_access;

    epoch_sketch& current() noexcept {
        return ring_[static_cast<std::uint32_t>(now_ % ring_.size())];
    }

    /// Per-epoch config: each absolute epoch gets its own seed so epoch
    /// tables use independent hash functions (§3.2's merge note — the query
    /// path merges epochs constantly).
    sketch_config epoch_cfg(std::uint64_t epoch) const {
        sketch_config c = cfg_;
        c.seed = cfg_.seed + 0x9e37'79b9'7f4a'7c15ULL * epoch;
        return c;
    }

    sketch_config cfg_;
    std::vector<epoch_sketch> ring_;       ///< slot e holds absolute epoch slot_epoch_[e]
    std::vector<std::uint64_t> slot_epoch_;
    std::uint64_t now_ = 0;
};

/// Ergonomic spellings of the non-plain instantiations.
template <typename K = std::uint64_t, typename W = double>
using fading_frequent_items = basic_frequent_items<K, W, exponential_fading>;

template <typename K = std::uint64_t, typename W = std::uint64_t>
using windowed_frequent_items = basic_frequent_items<K, W, epoch_window>;

}  // namespace freq

#endif  // FREQ_CORE_BASIC_FREQUENT_ITEMS_H
