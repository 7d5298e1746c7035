/// \file builder.cpp
/// Every summary instantiation the façade can materialize, compiled once:
/// the two erased wrappers (standalone and sharded, each taking its u64 or
/// text keys from the sketch type), the one descriptor → sketch-type table,
/// and the factory and restore path declared in api/builder.h.

#include "api/builder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/result_set.h"
#include "api/summarizer.h"
#include "api/summary_bytes.h"
#include "baselines/backend_summaries.h"
#include "common/contracts.h"
#include "core/basic_frequent_items.h"
#include "core/generic_frequent_items.h"
#include "core/lifetime_policy.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "stream/update.h"

namespace freq {

namespace detail {

// --- shared conversions ------------------------------------------------------

template <typename W>
W facade_weight(double w) {
    FREQ_REQUIRE(std::isfinite(w) && w >= 0.0, "weights must be finite and non-negative");
    if constexpr (std::is_floating_point_v<W>) {
        return static_cast<W>(w);
    } else {
        FREQ_REQUIRE(w < 18446744073709551616.0, "weight exceeds the counts range");
        FREQ_REQUIRE(w == std::floor(w), "counts summaries take integer weights");
        return static_cast<W>(w);
    }
}

template <typename W>
W facade_threshold(double t) {
    FREQ_REQUIRE(std::isfinite(t) && t >= 0.0,
                 "thresholds must be finite and non-negative");
    if constexpr (std::is_floating_point_v<W>) {
        return static_cast<W>(t);
    } else {
        // bound > t  ⟺  bound > floor(t) for integer bounds, so flooring
        // preserves the strict-threshold semantics exactly.
        if (t >= 18446744073709551615.0) {
            return ~std::uint64_t{0};
        }
        return static_cast<W>(t);
    }
}

/// Core rows (id-keyed) -> façade rows. The table cores call the key `id`,
/// the map core calls it `item`; both are 64-bit here.
template <typename Rows>
std::vector<result_row> u64_rows(const Rows& in) {
    auto key_of = [](const auto& r) {
        if constexpr (requires { r.id; }) {
            return static_cast<std::uint64_t>(r.id);
        } else {
            return static_cast<std::uint64_t>(r.item);
        }
    };
    std::vector<result_row> out;
    out.reserve(in.size());
    for (const auto& r : in) {
        const std::uint64_t key = key_of(r);
        out.push_back(result_row{key, std::to_string(key),
                                 static_cast<double>(r.estimate),
                                 static_cast<double>(r.lower_bound),
                                 static_cast<double>(r.upper_bound)});
    }
    return out;
}

/// Spelled rows (fingerprint-counted cores) -> façade rows: `id` is the
/// 64-bit fingerprint the core actually counted (correct even while a
/// spelling is still "<unknown>"), `item` the human-readable key.
template <typename Rows>
std::vector<result_row> text_rows(const Rows& in) {
    std::vector<result_row> out;
    out.reserve(in.size());
    for (const auto& r : in) {
        out.push_back(result_row{r.fingerprint, r.item, static_cast<double>(r.estimate),
                                 static_cast<double>(r.lower_bound),
                                 static_cast<double>(r.upper_bound)});
    }
    return out;
}

/// The error envelope a result_set reports: at least the summary's own
/// a-posteriori bound, widened to cover every returned row — a windowed
/// summary answers set queries through an epoch fold (Algorithm 5 per
/// epoch) whose decrements can stretch row envelopes past the point-query
/// bound.
double result_error(double summary_error, const std::vector<result_row>& rows) {
    for (const auto& r : rows) {
        summary_error = std::max(summary_error, r.upper_bound - r.lower_bound);
    }
    return summary_error;
}

// --- the key kind, a compile-time fact of the sketch type --------------------

template <typename Sketch>
inline constexpr bool text_keyed = summary_traits<Sketch>::keys == key_kind::text;

template <typename Sketch>
inline constexpr bool map_backed = summary_traits<Sketch>::backend == backend_kind::map;

/// The key type \p Sketch counts by: a string for text, an id otherwise.
template <typename Sketch>
using key_of = std::conditional_t<text_keyed<Sketch>, std::string_view, std::uint64_t>;

/// Rejects a call keyed by the other kind than \p Sketch's.
template <typename Sketch>
[[noreturn]] void wrong_key_kind() {
    const char* have = text_keyed<Sketch> ? "text" : "u64";
    const char* got = text_keyed<Sketch> ? "u64" : "text";
    throw std::invalid_argument(std::string("libfreq: this summarizer has ") + have +
                                " keys; " + got + "-keyed call rejected");
}

/// \p key when it is of \p Sketch's key kind; otherwise the call is
/// rejected before it touches any state.
template <typename Sketch, typename K>
key_of<Sketch> own_key(K key) {
    if constexpr (std::is_same_v<K, key_of<Sketch>>) {
        return key;
    } else {
        wrong_key_kind<Sketch>();
    }
}

/// Core rows -> façade rows, by the sketch's key kind.
template <typename Sketch, typename Rows>
std::vector<result_row> rows_of(const Rows& in) {
    if constexpr (text_keyed<Sketch>) {
        return text_rows(in);
    } else {
        return u64_rows(in);
    }
}

/// Lifetime-policy clock of a core summary (0 for plain). The text cores
/// keep their own.
template <typename Sketch>
std::uint64_t clock_of(const Sketch& s) {
    using P = typename Sketch::lifetime_policy;
    if constexpr (P::windowed || text_keyed<Sketch>) {
        return s.now();
    } else if constexpr (P::decaying) {
        return s.policy().now();
    } else {
        return 0;
    }
}

/// Two summaries may merge when their tags agree and the policy parameters
/// the template layer insists on (equal decay / equal window) match; seeds
/// and capacities may differ — §3.2 even recommends distinct hash seeds.
void require_merge_compatible(const summary_descriptor& a,
                                     const summary_descriptor& b) {
    FREQ_REQUIRE(a.algorithm == b.algorithm && a.keys == b.keys &&
                     a.weights == b.weights && a.lifetime == b.lifetime &&
                     a.backend == b.backend,
                 "merging summarizers requires identical "
                 "algorithm/key/weight/lifetime/storage");
    if (a.lifetime == lifetime_kind::fading) {
        FREQ_REQUIRE(a.sketch.decay == b.sketch.decay,
                     "merging fading summarizers requires equal decay factors");
    }
    if (a.lifetime == lifetime_kind::windowed) {
        FREQ_REQUIRE(a.sketch.window_epochs == b.sketch.window_epochs,
                     "merging windowed summarizers requires equal window sizes");
    }
}

// --- feeders -----------------------------------------------------------------

/// A feeder over a standalone (unsharded) summary: forwards straight to the
/// impl. Single-threaded like the summary itself.
class standalone_feeder final : public feeder_impl {
public:
    explicit standalone_feeder(summarizer_impl* owner) : owner_(owner) {}
    void push(std::uint64_t id, double weight) override { owner_->update(id, weight); }
    void push(std::string_view item, double weight) override { owner_->update(item, weight); }
    void flush() override {}

private:
    summarizer_impl* owner_;
};

/// A feeder over a sharded summary: one engine producer of its own.
template <typename Sketch>
class engine_feeder final : public feeder_impl {
public:
    using W = typename Sketch::weight_type;
    using producer = typename stream_engine<std::uint64_t, W, Sketch>::producer;

    explicit engine_feeder(producer p) : producer_(std::move(p)) {}
    void push(std::uint64_t id, double weight) override { put(id, weight); }
    void push(std::string_view item, double weight) override { put(item, weight); }
    void flush() override { producer_.flush(); }

private:
    template <typename K>
    void put(K key, double weight) {
        const auto k = own_key<Sketch>(key);
        producer_.push(k, facade_weight<W>(weight));
    }

    producer producer_;
};

// --- the query verbs, written once -------------------------------------------

/// What both wrappers answer alike: every query verb runs over the view
/// `Derived::with_view(f)` hands it — the sketch itself for a standalone
/// summary, a published or freshly folded snapshot for a sharded one.
template <typename Derived, typename Sketch>
class summary_queries : public summarizer_impl {
public:
    using W = typename Sketch::weight_type;
    using key_type = key_of<Sketch>;

    explicit summary_queries(summary_descriptor desc) : desc_(std::move(desc)) {}

    const summary_descriptor& descriptor() const noexcept override { return desc_; }

    double estimate(std::uint64_t id) const override { return estimate_of(id); }
    double estimate(std::string_view item) const override { return estimate_of(item); }
    double lower_bound(std::uint64_t id) const override { return lower_bound_of(id); }
    double lower_bound(std::string_view item) const override { return lower_bound_of(item); }
    double upper_bound(std::uint64_t id) const override { return upper_bound_of(id); }
    double upper_bound(std::string_view item) const override { return upper_bound_of(item); }

    double total_weight() const override {
        return view([](const Sketch& s) { return static_cast<double>(s.total_weight()); });
    }
    double maximum_error() const override {
        return view([](const Sketch& s) { return static_cast<double>(s.maximum_error()); });
    }
    std::uint32_t num_counters() const override {
        return view([](const Sketch& s) { return static_cast<std::uint32_t>(s.num_counters()); });
    }

    result_set frequent_items(error_mode mode, double threshold) const override {
        return view([&](const Sketch& s) {
            return answer(mode, threshold, s,
                          rows_of<Sketch>(s.frequent_items(mode, facade_threshold<W>(threshold))));
        });
    }
    result_set top_items(std::size_t m) const override {
        return view([&](const Sketch& s) {
            return answer(error_mode::no_false_negatives, 0.0, s, top_rows(s, m));
        });
    }

protected:
    template <typename F>
    auto view(F&& f) const {
        return static_cast<const Derived&>(*this).with_view(std::forward<F>(f));
    }

    summary_descriptor desc_;

private:
    // A wrong-kind key throws before any view is pinned or folded.
    template <typename K>
    double estimate_of(K key) const {
        const key_type k = own_key<Sketch>(key);
        return view([&](const Sketch& s) { return static_cast<double>(s.estimate(k)); });
    }
    template <typename K>
    double lower_bound_of(K key) const {
        const key_type k = own_key<Sketch>(key);
        return view([&](const Sketch& s) { return static_cast<double>(s.lower_bound(k)); });
    }
    template <typename K>
    double upper_bound_of(K key) const {
        const key_type k = own_key<Sketch>(key);
        return view([&](const Sketch& s) { return static_cast<double>(s.upper_bound(k)); });
    }

    static std::vector<result_row> top_rows(const Sketch& s, std::size_t m) {
        if constexpr (map_backed<Sketch>) {
            // The map core has no top_items(); every tracked item clears an
            // upper-bound threshold of 0, and rows arrive estimate-sorted.
            auto rows = s.frequent_items(error_mode::no_false_negatives, W{0});
            if (rows.size() > m) {
                rows.resize(m);
            }
            return rows_of<Sketch>(rows);
        } else {
            return rows_of<Sketch>(s.top_items(m));
        }
    }

    static result_set answer(error_mode mode, double threshold, const Sketch& s,
                             std::vector<result_row> rows) {
        const double err = result_error(static_cast<double>(s.maximum_error()), rows);
        return result_set(mode, threshold, static_cast<double>(s.total_weight()), err,
                          std::move(rows));
    }
};

// --- standalone summaries ----------------------------------------------------

/// Wraps any core summary (basic_frequent_items of any policy, the
/// map-backed generic core, a text core, or a baseline adapter) behind the
/// erased interface.
template <typename Sketch>
class standalone_summarizer final
    : public summary_queries<standalone_summarizer<Sketch>, Sketch> {
public:
    using W = typename Sketch::weight_type;

    standalone_summarizer(summary_descriptor desc, Sketch sketch)
        : summary_queries<standalone_summarizer, Sketch>(std::move(desc)),
          sketch_(std::move(sketch)) {}

    bool sharded() const noexcept override { return false; }

    void update(std::uint64_t id, double weight) override { ingest(id, weight); }
    void update(std::string_view item, double weight) override { ingest(item, weight); }
    void update(std::span<const update64> batch) override {
        if constexpr (text_keyed<Sketch>) {
            wrong_key_kind<Sketch>();
        } else if constexpr (std::is_same_v<W, std::uint64_t> && !map_backed<Sketch>) {
            sketch_.update(batch);  // the template layer's span path
        } else {
            for (const auto& u : batch) {
                sketch_.update(u.id, facade_weight<W>(static_cast<double>(u.weight)));
            }
        }
    }
    std::unique_ptr<feeder_impl> make_feeder() override {
        return std::make_unique<standalone_feeder>(this);
    }
    void flush() override {}

    void tick(std::uint64_t epochs) override { sketch_.tick(epochs); }
    std::uint64_t now() const override { return clock_of(sketch_); }

    std::uint32_t capacity() const override { return sketch_.capacity(); }
    std::size_t memory_bytes() const override { return sketch_.memory_bytes(); }

    summary_bytes save() override { return envelope_save(sketch_); }

    void merge_from(const summarizer_impl& other) override {
        const auto* peer = dynamic_cast<const standalone_summarizer*>(&other);
        FREQ_REQUIRE(peer != nullptr && peer != this,
                     text_keyed<Sketch>
                         ? "merge requires a distinct standalone summarizer of the same "
                           "instantiation"
                         : "merge requires a distinct standalone summarizer of the same "
                           "instantiation (snapshot() a sharded one first)");
        require_merge_compatible(this->desc_, peer->desc_);
        sketch_.merge(peer->sketch_);
    }

    std::unique_ptr<summarizer_impl> snapshot() const override {
        return std::make_unique<standalone_summarizer>(this->desc_, sketch_);
    }

    std::string to_string() const override {
        if constexpr (text_keyed<Sketch>) {
            return "text_summarizer(k=" + std::to_string(sketch_.capacity()) +
                   ", counters=" + std::to_string(sketch_.num_counters()) +
                   ", N=" + std::to_string(static_cast<double>(sketch_.total_weight())) + ")";
        } else {
            return sketch_.to_string();
        }
    }

private:
    friend summary_queries<standalone_summarizer, Sketch>;

    template <typename F>
    auto with_view(F&& f) const { return f(sketch_); }

    template <typename K>
    void ingest(K key, double weight) {
        const auto k = own_key<Sketch>(key);
        sketch_.update(k, facade_weight<W>(weight));
    }

    Sketch sketch_;
};

// --- engine-sharded summaries ------------------------------------------------

/// A stream_engine behind the erased interface. For text keys producers
/// fingerprint keys and feed the engine's ring hot path, each shard owns
/// its spelling-dictionary slice, and every read view (fold-on-demand or
/// the cached published snapshot) is a full string summary — so
/// estimate("alice") and top_items() answer with spellings straight off
/// the view.
template <typename Sketch>
class sharded_summarizer final : public summary_queries<sharded_summarizer<Sketch>, Sketch> {
public:
    using W = typename Sketch::weight_type;
    using engine_type = stream_engine<std::uint64_t, W, Sketch>;

    sharded_summarizer(summary_descriptor desc, const engine_config& cfg)
        : summary_queries<sharded_summarizer, Sketch>(std::move(desc)), engine_(cfg) {}

    bool sharded() const noexcept override { return true; }

    // Ingestion routes through a lazily-created internal producer; queries
    // see what has been applied — call flush() for a stream-complete view,
    // exactly like the raw engine API.
    void update(std::uint64_t id, double weight) override { ingest(id, weight); }
    void update(std::string_view item, double weight) override { ingest(item, weight); }
    void update(std::span<const update64> batch) override {
        if constexpr (text_keyed<Sketch>) {
            wrong_key_kind<Sketch>();
        } else if constexpr (std::is_same_v<W, std::uint64_t>) {
            main().push(batch);
        } else {
            auto& p = main();
            for (const auto& u : batch) {
                p.push(u.id, facade_weight<W>(static_cast<double>(u.weight)));
            }
        }
    }
    std::unique_ptr<feeder_impl> make_feeder() override {
        return std::make_unique<engine_feeder<Sketch>>(engine_.make_producer());
    }
    void flush() override {
        if (main_.has_value()) {
            main_->flush();
        }
        engine_.flush();
    }

    // An exact epoch boundary for everything this summarizer staged and
    // every feeder already flushed: drain first, then tick — otherwise
    // staged updates would age under the wrong epoch. (Feeders still
    // holding staged runs on other threads follow the raw engine's
    // discipline: their updates belong to the epoch of their flush.)
    void tick(std::uint64_t epochs) override {
        flush();
        engine_.advance_epoch(epochs);
        now_ += epochs;
    }
    std::uint64_t now() const override { return now_; }

    // With the snapshot service on, queries answer from the cached
    // double-buffered view (engine/snapshot_service.h); otherwise each call
    // folds a fresh O(k·S) snapshot on this thread — cache one per query
    // batch through snapshot() when querying many ids without the service.
    void enable_snapshot_service(std::chrono::microseconds interval) override {
        engine_.enable_snapshot_service(interval);
    }
    void disable_snapshot_service() override { engine_.disable_snapshot_service(); }
    bool snapshot_service_enabled() const noexcept override {
        return engine_.snapshot_service_enabled();
    }
    std::uint64_t snapshot_epoch() const override { return engine_.snapshot_epoch(); }

    std::uint32_t capacity() const override { return this->desc_.sketch.max_counters; }
    std::size_t memory_bytes() const override {
        return with_view([&](const Sketch& s) -> std::size_t {
            if constexpr (text_keyed<Sketch>) {
                // Counter tables exist once per shard; the view's dictionary is
                // already the *union* of the per-shard slices, so count it once.
                const std::size_t dict = s.dictionary().memory_bytes();
                return (s.memory_bytes() - dict) * engine_.num_shards() + dict;
            } else {
                return s.memory_bytes() * engine_.num_shards();
            }
        });
    }

    // The documented save() contract is a *stream-complete* standalone
    // summary: drain the internal producer and the rings before folding.
    // With the service on, flush() already republished a stream-complete
    // view — serialize from it instead of folding a second time. For text
    // keys that is the canonical image (single unioned dictionary segment),
    // byte-identical to what the restored standalone summary re-saves.
    summary_bytes save() override {
        flush();
        if (engine_.snapshot_service_enabled()) {
            return envelope_save(*engine_.acquire_snapshot());
        }
        return envelope_save(engine_.snapshot());
    }

    void merge_from(const summarizer_impl&) override {
        FREQ_REQUIRE(false,
                     "sharded summarizers ingest through feeders; merge their "
                     "snapshot() instead");
    }

    std::unique_ptr<summarizer_impl> snapshot() const override {
        return std::make_unique<standalone_summarizer<Sketch>>(this->desc_, engine_.snapshot());
    }

    std::string to_string() const override {
        const auto st = engine_.stats();
        std::string spellings;
        if constexpr (text_keyed<Sketch>) {
            spellings = ", spellings=" + std::to_string(st.spellings_applied);
        }
        return std::string(text_keyed<Sketch> ? "sharded_text" : "sharded") +
               "_summarizer(shards=" + std::to_string(engine_.num_shards()) +
               ", k=" + std::to_string(this->desc_.sketch.max_counters) +
               ", applied=" + std::to_string(st.updates_applied) + spellings +
               ", stalls=" + std::to_string(st.ring_full_stalls) + ")";
    }

private:
    friend summary_queries<sharded_summarizer, Sketch>;

    typename engine_type::producer& main() {
        if (!main_.has_value()) {
            main_.emplace(engine_.make_producer());
        }
        return *main_;
    }

    template <typename K>
    void ingest(K key, double weight) {
        const auto k = own_key<Sketch>(key);  // reject before claiming a producer
        main().push(k, facade_weight<W>(weight));
    }

    /// Runs \p f over the freshest consistent view: the cached published
    /// snapshot when the service is on (pinned for the duration of the
    /// call), a fold-on-demand snapshot otherwise.
    template <typename F>
    auto with_view(F&& f) const {
        if (engine_.snapshot_service_enabled()) {
            const auto view = engine_.acquire_snapshot();
            return f(*view);
        }
        const Sketch snap = engine_.snapshot();
        return f(snap);
    }

    engine_type engine_;
    std::optional<typename engine_type::producer> main_;  ///< scalar-update handle
    std::uint64_t now_ = 0;
};

// --- the descriptor -> sketch-type table ------------------------------------

/// Calls \p f with `std::type_identity<Sketch>` for the sketch type \p d
/// names — the only place the descriptor's tags become a type. \p d must
/// have passed build()'s or parse_header's combination checks: fading is
/// real-weighted, and the map storage and the baselines have no window.
template <typename F>
std::unique_ptr<summarizer_impl> visit_sketch_type(const summary_descriptor& d, F&& f) {
    using std::type_identity;
    using u64 = std::uint64_t;
    const bool real = d.weights == weight_kind::real;
    const bool fading = d.lifetime == lifetime_kind::fading;
    const bool windowed = d.lifetime == lifetime_kind::windowed;
    auto by_weight = [&](auto counts, auto reals) { return real ? f(reals) : f(counts); };
    switch (d.algorithm) {
        case algo::count_min:
            return fading ? f(type_identity<count_min_summary<double, exponential_fading>>{})
                          : by_weight(type_identity<count_min_summary<u64, plain_lifetime>>{},
                                      type_identity<count_min_summary<double, plain_lifetime>>{});
        case algo::count_sketch:
            return f(type_identity<count_sketch_summary>{});
        case algo::space_saving:
            return fading
                       ? f(type_identity<space_saving_summary<double, exponential_fading>>{})
                       : by_weight(type_identity<space_saving_summary<u64, plain_lifetime>>{},
                                   type_identity<space_saving_summary<double, plain_lifetime>>{});
        default:  // algo::paper
            break;
    }
    if (d.keys == key_kind::text) {
        if (fading) {
            return f(type_identity<string_frequent_items<double, exponential_fading>>{});
        }
        return windowed ? by_weight(type_identity<string_frequent_items<u64, epoch_window>>{},
                                    type_identity<string_frequent_items<double, epoch_window>>{})
                        : by_weight(type_identity<string_frequent_items<u64, plain_lifetime>>{},
                                    type_identity<string_frequent_items<double, plain_lifetime>>{});
    }
    if (d.backend == backend_kind::map) {
        using hash = std::hash<u64>;
        using eq = std::equal_to<u64>;
        return fading
                   ? f(type_identity<
                         generic_frequent_items<u64, double, hash, eq, exponential_fading>>{})
                   : by_weight(
                         type_identity<generic_frequent_items<u64, u64, hash, eq, plain_lifetime>>{},
                         type_identity<
                             generic_frequent_items<u64, double, hash, eq, plain_lifetime>>{});
    }
    if (fading) {
        return f(type_identity<basic_frequent_items<u64, double, exponential_fading>>{});
    }
    return windowed ? by_weight(type_identity<basic_frequent_items<u64, u64, epoch_window>>{},
                                type_identity<basic_frequent_items<u64, double, epoch_window>>{})
                    : by_weight(type_identity<basic_frequent_items<u64, u64, plain_lifetime>>{},
                                type_identity<basic_frequent_items<u64, double, plain_lifetime>>{});
}

std::unique_ptr<summarizer_impl> make_summarizer(const summary_descriptor& d,
                                                 const engine_config* engine) {
    return visit_sketch_type(d, [&]<typename Sketch>(std::type_identity<Sketch>)
                                    -> std::unique_ptr<summarizer_impl> {
        if (engine == nullptr) {
            return std::make_unique<standalone_summarizer<Sketch>>(d, Sketch(d.sketch));
        }
        if constexpr (map_backed<Sketch>) {
            FREQ_REQUIRE(false, "sharded ingestion requires the table storage");
            return nullptr;
        } else {
            return std::make_unique<sharded_summarizer<Sketch>>(d, *engine);
        }
    });
}

}  // namespace detail

// --- envelope -> summarizer --------------------------------------------------

summarizer restore_summary(const summary_bytes& b, std::uint32_t max_accepted_counters) {
    return summarizer(detail::visit_sketch_type(
        b.descriptor(), [&]<typename Sketch>(std::type_identity<Sketch>)
                            -> std::unique_ptr<detail::summarizer_impl> {
            return std::make_unique<detail::standalone_summarizer<Sketch>>(
                b.descriptor(), envelope_load<Sketch>(b, max_accepted_counters));
        }));
}

summarizer restore_summary(std::vector<std::uint8_t> bytes,
                           std::uint32_t max_accepted_counters) {
    return restore_summary(summary_bytes::wrap(std::move(bytes)), max_accepted_counters);
}

}  // namespace freq
