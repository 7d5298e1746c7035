#ifndef FREQ_API_BUILDER_H
#define FREQ_API_BUILDER_H

/// \file builder.h
/// The fluent runtime configurator of the façade: `freq::builder` picks the
/// algorithm (the paper's sketch or one of the §1.3 baselines), key type,
/// weight type, k / sketch knobs, lifetime policy (with its decay or window
/// parameters), counter storage and optional engine sharding *at runtime* —
/// from config, flags or a wire descriptor — and materializes the matching
/// template instantiation behind a `freq::summarizer` handle:
///
///   auto s = freq::builder()
///                .text_keys()
///                .max_counters(4096)
///                .fading(0.97)
///                .build();
///   s.update("alice", 3.0);
///   s.tick();
///   for (const auto& row : s.frequent_items(
///            freq::error_mode::no_false_negatives, 0.01 * s.total_weight()))
///       ...
///
/// `restore_summary` is the inverse of summarizer::save(): it reads the
/// envelope's descriptor (api/summary_bytes.h) and rebuilds the right
/// instantiation from bytes alone — the receiving service needs no
/// compile-time knowledge of what the sender ran.
///
/// The algorithm axis selects *what is computed*, the storage axis *how the
/// paper sketch stores counters*:
///
///   auto cm = freq::builder()
///                 .algorithm(freq::algo::count_min)
///                 .max_counters(1024)
///                 .build();
///
/// runs a Count-Min sketch (baselines/backend_summaries.h) behind the same
/// handle — same update()/frequent_items()/save() surface, same sharded
/// engine, same envelope wire format (with an algorithm tag). The baselines
/// count u64 keys in table storage; count_min and space_saving also accept
/// fading(), count_sketch is plain/counts only.
///
/// Unsupported combinations are rejected at build() with a precise message:
/// fading requires real weights, and the map storage has no sliding window
/// and no sharding. Text keys shard like integer ones: the engine counts
/// fingerprints on the ring hot path and each shard owns the spelling
/// dictionary slice for the keys routed to it (engine/stream_engine.h), so
/// `.text_keys().sharded(4)` materializes a concurrent text summarizer
/// whose reports carry full spellings.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
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
#include "core/sketch_config.h"
#include "core/string_frequent_items.h"
#include "engine/stream_engine.h"
#include "hashing/hash.h"
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

/// The error envelope a result_set reports: at least the summary's own
/// a-posteriori bound, widened to cover every returned row — a windowed
/// summary answers set queries through an epoch fold (Algorithm 5 per
/// epoch) whose decrements can stretch row envelopes past the point-query
/// bound.
inline double result_error(double summary_error, const std::vector<result_row>& rows) {
    for (const auto& r : rows) {
        summary_error = std::max(summary_error, r.upper_bound - r.lower_bound);
    }
    return summary_error;
}

[[noreturn]] inline void wrong_key_kind(const char* have, const char* got) {
    throw std::invalid_argument(std::string("libfreq: this summarizer has ") + have +
                                " keys; " + got + "-keyed call rejected");
}

/// A feeder over a standalone (unsharded) summary: forwards straight to the
/// impl. Single-threaded like the summary itself.
class standalone_feeder final : public feeder_impl {
public:
    explicit standalone_feeder(summarizer_impl* owner) : owner_(owner) {}
    void push(std::uint64_t id, double weight) override { owner_->update(id, weight); }
    void push(std::string_view item, double weight) override {
        owner_->update(item, weight);
    }
    void flush() override {}

private:
    summarizer_impl* owner_;
};

/// Lifetime-policy clock of a core summary (0 for plain).
template <typename Sketch>
std::uint64_t clock_of(const Sketch& s) {
    using P = typename Sketch::lifetime_policy;
    if constexpr (P::windowed) {
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
inline void require_merge_compatible(const summary_descriptor& a,
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

// --- standalone u64-keyed summaries (table- or map-backed) -------------------

/// Wraps any id-keyed core summary (basic_frequent_items of any policy, or
/// the map-backed generic core) behind the erased interface. \p TopItems
/// exists because the map core exposes no top_items(); see map_top_items.
template <typename Sketch>
class u64_summarizer final : public summarizer_impl {
public:
    using W = typename Sketch::weight_type;

    u64_summarizer(summary_descriptor desc, Sketch sketch)
        : desc_(std::move(desc)), sketch_(std::move(sketch)) {}

    const summary_descriptor& descriptor() const noexcept override { return desc_; }
    bool sharded() const noexcept override { return false; }

    void update(std::uint64_t id, double weight) override {
        sketch_.update(id, facade_weight<W>(weight));
    }
    void update(std::string_view, double) override { wrong_key_kind("u64", "text"); }
    void update(std::span<const update64> batch) override {
        if constexpr (std::is_same_v<W, std::uint64_t> && !is_map_backed) {
            sketch_.update(batch);  // the template layer's prefetching span path
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

    double estimate(std::uint64_t id) const override {
        return static_cast<double>(sketch_.estimate(id));
    }
    double lower_bound(std::uint64_t id) const override {
        return static_cast<double>(sketch_.lower_bound(id));
    }
    double upper_bound(std::uint64_t id) const override {
        return static_cast<double>(sketch_.upper_bound(id));
    }
    double estimate(std::string_view) const override { wrong_key_kind("u64", "text"); }
    double lower_bound(std::string_view) const override { wrong_key_kind("u64", "text"); }
    double upper_bound(std::string_view) const override { wrong_key_kind("u64", "text"); }

    double total_weight() const override {
        return static_cast<double>(sketch_.total_weight());
    }
    double maximum_error() const override {
        return static_cast<double>(sketch_.maximum_error());
    }
    std::uint32_t num_counters() const override {
        return static_cast<std::uint32_t>(sketch_.num_counters());
    }
    std::uint32_t capacity() const override { return sketch_.capacity(); }
    std::size_t memory_bytes() const override { return sketch_.memory_bytes(); }

    result_set frequent_items(error_mode mode, double threshold) const override {
        auto rows = u64_rows(sketch_.frequent_items(mode, facade_threshold<W>(threshold)));
        const double err = result_error(maximum_error(), rows);
        return result_set(mode, threshold, total_weight(), err, std::move(rows));
    }
    result_set top_items(std::size_t m) const override {
        auto rows = sketch_top_items(m);
        const double err = result_error(maximum_error(), rows);
        return result_set(error_mode::no_false_negatives, 0.0, total_weight(), err,
                          std::move(rows));
    }

    summary_bytes save() override { return envelope_save(sketch_); }

    void merge_from(const summarizer_impl& other) override {
        const auto* peer = dynamic_cast<const u64_summarizer*>(&other);
        FREQ_REQUIRE(peer != nullptr && peer != this,
                     "merge requires a distinct standalone summarizer of the same "
                     "instantiation (snapshot() a sharded one first)");
        require_merge_compatible(desc_, peer->desc_);
        sketch_.merge(peer->sketch_);
    }

    std::unique_ptr<summarizer_impl> snapshot() const override {
        return std::make_unique<u64_summarizer>(desc_, sketch_);
    }

    std::string to_string() const override { return sketch_.to_string(); }

private:
    static constexpr bool is_map_backed =
        summary_traits<Sketch>::backend == backend_kind::map;

    std::vector<result_row> sketch_top_items(std::size_t m) const {
        if constexpr (is_map_backed) {
            // The map core has no top_items(); every tracked item clears an
            // upper-bound threshold of 0, and rows arrive estimate-sorted.
            auto rows = sketch_.frequent_items(error_mode::no_false_negatives, W{0});
            if (rows.size() > m) {
                rows.resize(m);
            }
            return u64_rows(rows);
        } else {
            return u64_rows(sketch_.top_items(m));
        }
    }

    summary_descriptor desc_;
    Sketch sketch_;
};

// --- standalone text-keyed summaries -----------------------------------------

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

template <typename W, typename L>
class text_summarizer final : public summarizer_impl {
public:
    using sketch_type = string_frequent_items<W, L>;

    text_summarizer(summary_descriptor desc, sketch_type sketch)
        : desc_(std::move(desc)), sketch_(std::move(sketch)) {}

    const summary_descriptor& descriptor() const noexcept override { return desc_; }
    bool sharded() const noexcept override { return false; }

    void update(std::uint64_t, double) override { wrong_key_kind("text", "u64"); }
    void update(std::string_view item, double weight) override {
        sketch_.update(item, facade_weight<W>(weight));
    }
    void update(std::span<const update64>) override { wrong_key_kind("text", "u64"); }
    std::unique_ptr<feeder_impl> make_feeder() override {
        return std::make_unique<standalone_feeder>(this);
    }
    void flush() override {}

    void tick(std::uint64_t epochs) override { sketch_.tick(epochs); }
    std::uint64_t now() const override { return sketch_.now(); }

    double estimate(std::uint64_t) const override { wrong_key_kind("text", "u64"); }
    double lower_bound(std::uint64_t) const override { wrong_key_kind("text", "u64"); }
    double upper_bound(std::uint64_t) const override { wrong_key_kind("text", "u64"); }
    double estimate(std::string_view item) const override {
        return static_cast<double>(sketch_.estimate(item));
    }
    double lower_bound(std::string_view item) const override {
        return static_cast<double>(sketch_.lower_bound(item));
    }
    double upper_bound(std::string_view item) const override {
        return static_cast<double>(sketch_.upper_bound(item));
    }

    double total_weight() const override {
        return static_cast<double>(sketch_.total_weight());
    }
    double maximum_error() const override {
        return static_cast<double>(sketch_.maximum_error());
    }
    std::uint32_t num_counters() const override { return sketch_.num_counters(); }
    std::uint32_t capacity() const override { return sketch_.capacity(); }
    std::size_t memory_bytes() const override { return sketch_.memory_bytes(); }

    result_set frequent_items(error_mode mode, double threshold) const override {
        auto rows =
            text_rows(sketch_.frequent_items(mode, facade_threshold<W>(threshold)));
        const double err = result_error(maximum_error(), rows);
        return result_set(mode, threshold, total_weight(), err, std::move(rows));
    }
    result_set top_items(std::size_t m) const override {
        auto rows = text_rows(sketch_.top_items(m));
        const double err = result_error(maximum_error(), rows);
        return result_set(error_mode::no_false_negatives, 0.0, total_weight(), err,
                          std::move(rows));
    }

    summary_bytes save() override { return envelope_save(sketch_); }

    void merge_from(const summarizer_impl& other) override {
        const auto* peer = dynamic_cast<const text_summarizer*>(&other);
        FREQ_REQUIRE(peer != nullptr && peer != this,
                     "merge requires a distinct standalone summarizer of the same "
                     "instantiation");
        require_merge_compatible(desc_, peer->desc_);
        sketch_.merge(peer->sketch_);
    }

    std::unique_ptr<summarizer_impl> snapshot() const override {
        return std::make_unique<text_summarizer>(desc_, sketch_);
    }

    std::string to_string() const override {
        return "text_summarizer(k=" + std::to_string(sketch_.capacity()) +
               ", counters=" + std::to_string(sketch_.num_counters()) +
               ", N=" + std::to_string(static_cast<double>(sketch_.total_weight())) + ")";
    }

private:
    summary_descriptor desc_;
    sketch_type sketch_;
};

// --- engine-sharded u64-keyed summaries --------------------------------------

template <typename Sketch>
class engine_summarizer final : public summarizer_impl {
public:
    using W = typename Sketch::weight_type;
    using engine_type = stream_engine<std::uint64_t, W, Sketch>;

    engine_summarizer(summary_descriptor desc, const engine_config& cfg)
        : desc_(std::move(desc)), engine_(cfg) {}

    const summary_descriptor& descriptor() const noexcept override { return desc_; }
    bool sharded() const noexcept override { return true; }

    // Ingestion routes through a lazily-created internal producer; queries
    // see what has been applied — call flush() for a stream-complete view,
    // exactly like the raw engine API.
    void update(std::uint64_t id, double weight) override {
        main().push(id, facade_weight<W>(weight));
    }
    void update(std::string_view, double) override { wrong_key_kind("u64", "text"); }
    void update(std::span<const update64> batch) override {
        if constexpr (std::is_same_v<W, std::uint64_t>) {
            main().push(batch);
        } else {
            auto& p = main();
            for (const auto& u : batch) {
                p.push(u.id, facade_weight<W>(static_cast<double>(u.weight)));
            }
        }
    }
    std::unique_ptr<feeder_impl> make_feeder() override {
        return std::make_unique<engine_feeder>(engine_.make_producer());
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

    double estimate(std::uint64_t id) const override {
        return with_view([&](const Sketch& s) {
            return static_cast<double>(s.estimate(id));
        });
    }
    double lower_bound(std::uint64_t id) const override {
        return with_view([&](const Sketch& s) {
            return static_cast<double>(s.lower_bound(id));
        });
    }
    double upper_bound(std::uint64_t id) const override {
        return with_view([&](const Sketch& s) {
            return static_cast<double>(s.upper_bound(id));
        });
    }
    double estimate(std::string_view) const override { wrong_key_kind("u64", "text"); }
    double lower_bound(std::string_view) const override { wrong_key_kind("u64", "text"); }
    double upper_bound(std::string_view) const override { wrong_key_kind("u64", "text"); }

    double total_weight() const override {
        return with_view([](const Sketch& s) {
            return static_cast<double>(s.total_weight());
        });
    }
    double maximum_error() const override {
        return with_view([](const Sketch& s) {
            return static_cast<double>(s.maximum_error());
        });
    }
    std::uint32_t num_counters() const override {
        return with_view([](const Sketch& s) {
            return static_cast<std::uint32_t>(s.num_counters());
        });
    }
    std::uint32_t capacity() const override { return desc_.sketch.max_counters; }
    std::size_t memory_bytes() const override {
        return with_view([&](const Sketch& s) {
            return s.memory_bytes() * engine_.num_shards();
        });
    }

    result_set frequent_items(error_mode mode, double threshold) const override {
        return with_view([&](const Sketch& snap) {
            auto rows =
                u64_rows(snap.frequent_items(mode, facade_threshold<W>(threshold)));
            const double err =
                result_error(static_cast<double>(snap.maximum_error()), rows);
            return result_set(mode, threshold,
                              static_cast<double>(snap.total_weight()), err,
                              std::move(rows));
        });
    }
    result_set top_items(std::size_t m) const override {
        return with_view([&](const Sketch& snap) {
            auto rows = u64_rows(snap.top_items(m));
            const double err =
                result_error(static_cast<double>(snap.maximum_error()), rows);
            return result_set(error_mode::no_false_negatives, 0.0,
                              static_cast<double>(snap.total_weight()), err,
                              std::move(rows));
        });
    }

    // The documented save() contract is a *stream-complete* standalone
    // summary: drain the internal producer and the rings before folding.
    // With the service on, flush() already republished a stream-complete
    // view — serialize from it instead of folding a second time.
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
        return std::make_unique<u64_summarizer<Sketch>>(desc_, engine_.snapshot());
    }

    std::string to_string() const override {
        const auto st = engine_.stats();
        return "sharded_summarizer(shards=" + std::to_string(engine_.num_shards()) +
               ", k=" + std::to_string(desc_.sketch.max_counters) +
               ", applied=" + std::to_string(st.updates_applied) +
               ", stalls=" + std::to_string(st.ring_full_stalls) + ")";
    }

private:
    class engine_feeder final : public feeder_impl {
    public:
        explicit engine_feeder(typename engine_type::producer p) : producer_(std::move(p)) {}
        void push(std::uint64_t id, double weight) override {
            producer_.push(id, facade_weight<W>(weight));
        }
        void push(std::string_view, double) override { wrong_key_kind("u64", "text"); }
        void flush() override { producer_.flush(); }

    private:
        typename engine_type::producer producer_;
    };

    typename engine_type::producer& main() {
        if (!main_.has_value()) {
            main_.emplace(engine_.make_producer());
        }
        return *main_;
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

    summary_descriptor desc_;
    engine_type engine_;
    std::optional<typename engine_type::producer> main_;  ///< scalar-update handle
    std::uint64_t now_ = 0;
};

// --- engine-sharded text-keyed summaries -------------------------------------

/// The sharded text path: producers fingerprint keys and feed the engine's
/// ring hot path, each shard owns its spelling-dictionary slice, and every
/// read view (fold-on-demand or the cached published snapshot) is a full
/// string summary — so estimate("alice") and top_items() answer with
/// spellings straight off the view.
template <typename W, typename L>
class engine_text_summarizer final : public summarizer_impl {
public:
    using sketch_type = string_frequent_items<W, L>;
    using engine_type = stream_engine<std::uint64_t, W, sketch_type>;

    engine_text_summarizer(summary_descriptor desc, const engine_config& cfg)
        : desc_(std::move(desc)), engine_(cfg) {}

    const summary_descriptor& descriptor() const noexcept override { return desc_; }
    bool sharded() const noexcept override { return true; }

    void update(std::uint64_t, double) override { wrong_key_kind("text", "u64"); }
    void update(std::string_view item, double weight) override {
        main().push(item, facade_weight<W>(weight));
    }
    void update(std::span<const update64>) override { wrong_key_kind("text", "u64"); }
    std::unique_ptr<feeder_impl> make_feeder() override {
        return std::make_unique<engine_feeder>(engine_.make_producer());
    }
    void flush() override {
        if (main_.has_value()) {
            main_->flush();
        }
        engine_.flush();
    }

    // Same epoch discipline as the u64 engine summarizer: drain first, then
    // tick, so staged updates age under the epoch they were pushed in.
    void tick(std::uint64_t epochs) override {
        flush();
        engine_.advance_epoch(epochs);
        now_ += epochs;
    }
    std::uint64_t now() const override { return now_; }

    void enable_snapshot_service(std::chrono::microseconds interval) override {
        engine_.enable_snapshot_service(interval);
    }
    void disable_snapshot_service() override { engine_.disable_snapshot_service(); }
    bool snapshot_service_enabled() const noexcept override {
        return engine_.snapshot_service_enabled();
    }
    std::uint64_t snapshot_epoch() const override { return engine_.snapshot_epoch(); }

    double estimate(std::uint64_t) const override { wrong_key_kind("text", "u64"); }
    double lower_bound(std::uint64_t) const override { wrong_key_kind("text", "u64"); }
    double upper_bound(std::uint64_t) const override { wrong_key_kind("text", "u64"); }
    double estimate(std::string_view item) const override {
        return with_view([&](const sketch_type& s) {
            return static_cast<double>(s.estimate(item));
        });
    }
    double lower_bound(std::string_view item) const override {
        return with_view([&](const sketch_type& s) {
            return static_cast<double>(s.lower_bound(item));
        });
    }
    double upper_bound(std::string_view item) const override {
        return with_view([&](const sketch_type& s) {
            return static_cast<double>(s.upper_bound(item));
        });
    }

    double total_weight() const override {
        return with_view([](const sketch_type& s) {
            return static_cast<double>(s.total_weight());
        });
    }
    double maximum_error() const override {
        return with_view([](const sketch_type& s) {
            return static_cast<double>(s.maximum_error());
        });
    }
    std::uint32_t num_counters() const override {
        return with_view([](const sketch_type& s) { return s.num_counters(); });
    }
    std::uint32_t capacity() const override { return desc_.sketch.max_counters; }
    std::size_t memory_bytes() const override {
        return with_view([&](const sketch_type& s) {
            // Counter tables exist once per shard; the view's dictionary is
            // already the *union* of the per-shard slices, so count it once.
            const std::size_t dict = s.dictionary().memory_bytes();
            return (s.memory_bytes() - dict) * engine_.num_shards() + dict;
        });
    }

    result_set frequent_items(error_mode mode, double threshold) const override {
        return with_view([&](const sketch_type& snap) {
            auto rows =
                text_rows(snap.frequent_items(mode, facade_threshold<W>(threshold)));
            const double err =
                result_error(static_cast<double>(snap.maximum_error()), rows);
            return result_set(mode, threshold,
                              static_cast<double>(snap.total_weight()), err,
                              std::move(rows));
        });
    }
    result_set top_items(std::size_t m) const override {
        return with_view([&](const sketch_type& snap) {
            auto rows = text_rows(snap.top_items(m));
            const double err =
                result_error(static_cast<double>(snap.maximum_error()), rows);
            return result_set(error_mode::no_false_negatives, 0.0,
                              static_cast<double>(snap.total_weight()), err,
                              std::move(rows));
        });
    }

    // Stream-complete canonical image (single unioned dictionary segment),
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
        return std::make_unique<text_summarizer<W, L>>(desc_, engine_.snapshot());
    }

    std::string to_string() const override {
        const auto st = engine_.stats();
        return "sharded_text_summarizer(shards=" + std::to_string(engine_.num_shards()) +
               ", k=" + std::to_string(desc_.sketch.max_counters) +
               ", applied=" + std::to_string(st.updates_applied) +
               ", spellings=" + std::to_string(st.spellings_applied) +
               ", stalls=" + std::to_string(st.ring_full_stalls) + ")";
    }

private:
    class engine_feeder final : public feeder_impl {
    public:
        explicit engine_feeder(typename engine_type::producer p) : producer_(std::move(p)) {}
        void push(std::uint64_t, double) override { wrong_key_kind("text", "u64"); }
        void push(std::string_view item, double weight) override {
            producer_.push(item, facade_weight<W>(weight));
        }
        void flush() override { producer_.flush(); }

    private:
        typename engine_type::producer producer_;
    };

    typename engine_type::producer& main() {
        if (!main_.has_value()) {
            main_.emplace(engine_.make_producer());
        }
        return *main_;
    }

    template <typename F>
    auto with_view(F&& f) const {
        if (engine_.snapshot_service_enabled()) {
            const auto view = engine_.acquire_snapshot();
            return f(*view);
        }
        const sketch_type snap = engine_.snapshot();
        return f(snap);
    }

    summary_descriptor desc_;
    engine_type engine_;
    std::optional<typename engine_type::producer> main_;  ///< scalar-update handle
    std::uint64_t now_ = 0;
};

}  // namespace detail

// --- the fluent builder ------------------------------------------------------

class builder {
public:
    // --- key / weight kinds --------------------------------------------------

    builder& keys(key_kind k) {
        keys_ = k;
        return *this;
    }
    builder& u64_keys() { return keys(key_kind::u64); }
    builder& text_keys() { return keys(key_kind::text); }

    /// Weight kind; when unset, counts — promoted to real automatically by
    /// fading(), whose decayed counts are fractional.
    builder& weights(weight_kind w) {
        weights_ = w;
        return *this;
    }
    builder& counts() { return weights(weight_kind::counts); }
    builder& real_weights() { return weights(weight_kind::real); }

    // --- sketch knobs --------------------------------------------------------

    builder& max_counters(std::uint32_t k) {
        sketch_.max_counters = k;
        return *this;
    }
    builder& sample_size(std::uint32_t l) {
        sketch_.sample_size = l;
        return *this;
    }
    builder& decrement_quantile(double q) {
        sketch_.decrement_quantile = q;
        return *this;
    }
    builder& seed(std::uint64_t s) {
        sketch_.seed = s;
        return *this;
    }
    /// Replaces every sketch knob at once (lifetime parameters included;
    /// the lifetime *choice* still comes from plain()/fading()/…).
    builder& config(const sketch_config& cfg) {
        sketch_ = cfg;
        return *this;
    }

    // --- lifetime policy -----------------------------------------------------

    builder& plain() {
        lifetime_ = lifetime_kind::plain;
        return *this;
    }
    /// FDCMSS-style time-fading counts: after t ticks an update counts
    /// weight·ρ^t. Implies real weights unless counts were forced.
    builder& fading(double decay) {
        lifetime_ = lifetime_kind::fading;
        sketch_.decay = decay;
        return *this;
    }
    /// Sliding window of the last \p epochs ticks, evicted exactly.
    builder& sliding_window(std::uint32_t epochs) {
        lifetime_ = lifetime_kind::windowed;
        sketch_.window_epochs = epochs;
        return *this;
    }

    // --- algorithm -----------------------------------------------------------

    /// Which sketch algorithm the summarizer runs (default: the paper's).
    /// The baselines (baselines/backend_summaries.h) count u64 keys in
    /// table storage; count_min and space_saving also support fading(),
    /// count_sketch is plain/counts only. See the file comment.
    builder& algorithm(algo a) {
        algo_ = a;
        return *this;
    }

    // --- counter storage -----------------------------------------------------

    /// How the paper sketch stores counters: `storage::table` (the default
    /// open-addressed array) or `storage::map` (node-map with exact-median
    /// decrements: slower, but carries the deterministic Theorem 2 bound —
    /// u64 keys, no window, no sharding).
    builder& storage(freq::storage s) {
        backend_ = s;
        return *this;
    }

    // --- engine sharding -----------------------------------------------------

    /// Routes ingestion through the sharded concurrent engine: \p shards
    /// worker-owned sketches fed over SPSC rings by up to \p producers
    /// concurrent feeders. u64 and text keys (text ships fingerprints on
    /// the hot path and a per-shard spelling dictionary on a side lane).
    builder& sharded(std::uint32_t shards, std::uint32_t producers = 1) {
        sharded_ = true;
        engine_.num_shards = shards;
        engine_.num_producers = producers;
        return *this;
    }
    /// Engine tuning knobs wholesale (ring capacity, batch sizes); implies
    /// sharded(). The engine's sketch config is taken from this builder.
    builder& engine(const engine_config& cfg) {
        sharded_ = true;
        engine_ = cfg;
        return *this;
    }

    /// Starts the built summarizer with the async snapshot service on:
    /// queries answer from a cached double-buffered view republished every
    /// \p interval instead of folding per call (see
    /// summarizer::enable_snapshot_service). Requires sharded ingestion.
    builder& snapshot_every(std::chrono::microseconds interval) {
        snapshot_interval_ = interval;
        return *this;
    }

    // --- materialization -----------------------------------------------------

    summarizer build() const {
        summary_descriptor d;
        d.algorithm = algo_;
        d.keys = keys_;
        d.lifetime = lifetime_;
        d.backend = backend_;
        d.sketch = sketch_;
        d.weights = weights_.has_value()
                        ? *weights_
                        : (lifetime_ == lifetime_kind::fading ? weight_kind::real
                                                              : weight_kind::counts);
        FREQ_REQUIRE(d.lifetime != lifetime_kind::fading || d.weights == weight_kind::real,
                     "fading summaries need real weights (decayed counts are "
                     "fractional); drop counts() or use real_weights()");
        FREQ_REQUIRE(d.backend != backend_kind::map || d.keys == key_kind::u64,
                     "the map storage takes u64 keys (text keys are table-stored)");
        FREQ_REQUIRE(d.backend != backend_kind::map || d.lifetime != lifetime_kind::windowed,
                     "the map storage has no sliding-window policy; use the table "
                     "storage for windows");
        FREQ_REQUIRE(!sharded_ || d.backend == backend_kind::table,
                     "sharded ingestion requires the table storage");
        if (d.algorithm != algo::paper) {
            FREQ_REQUIRE(d.keys == key_kind::u64,
                         "the baseline algorithms count u64 keys; text keys need "
                         "algorithm(algo::paper)");
            FREQ_REQUIRE(d.backend == backend_kind::table,
                         "the storage axis tunes the paper sketch; the baseline "
                         "algorithms bring their own structures (use storage::table)");
            FREQ_REQUIRE(d.lifetime != lifetime_kind::windowed,
                         "the sliding-window policy is paper-only; count_min and "
                         "space_saving support fading(), count_sketch is plain");
        }
        if (d.algorithm == algo::count_sketch) {
            FREQ_REQUIRE(d.weights == weight_kind::counts &&
                             d.lifetime == lifetime_kind::plain,
                         "count_sketch keeps signed integer cells: counts weights "
                         "and the plain lifetime only");
        }
        FREQ_REQUIRE(!snapshot_interval_.has_value() || sharded_,
                     "snapshot_every() caches the sharded engine's fold; add "
                     ".sharded(...) or drop it for direct standalone reads");
        if (sharded_) {
            engine_config ecfg = engine_;
            ecfg.sketch = d.sketch;
            // One slot beyond the user's producer budget is reserved for
            // the summarizer's internal scalar-update producer, so calling
            // update() never consumes a feeder slot.
            ecfg.num_producers += 1;
            summarizer s(make_engine(d, ecfg));
            if (snapshot_interval_.has_value()) {
                s.enable_snapshot_service(*snapshot_interval_);
            }
            return s;
        }
        return summarizer(make_standalone(d));
    }

private:
    template <typename Sketch>
    static std::unique_ptr<detail::summarizer_impl> standalone(
        const summary_descriptor& d) {
        return std::make_unique<detail::u64_summarizer<Sketch>>(d, Sketch(d.sketch));
    }

    template <typename W, typename L>
    static std::unique_ptr<detail::summarizer_impl> text(const summary_descriptor& d) {
        return std::make_unique<detail::text_summarizer<W, L>>(
            d, string_frequent_items<W, L>(d.sketch));
    }

    template <typename W, typename L>
    static std::unique_ptr<detail::summarizer_impl> map(const summary_descriptor& d) {
        using sketch_type = generic_frequent_items<std::uint64_t, W, std::hash<std::uint64_t>,
                                                   std::equal_to<std::uint64_t>, L>;
        return std::make_unique<detail::u64_summarizer<sketch_type>>(
            d, sketch_type(d.sketch));
    }

    template <typename Sketch>
    static std::unique_ptr<detail::summarizer_impl> engine_impl(const summary_descriptor& d,
                                                                const engine_config& cfg) {
        return std::make_unique<detail::engine_summarizer<Sketch>>(d, cfg);
    }

    template <typename W, typename L>
    static std::unique_ptr<detail::summarizer_impl> engine_text(const summary_descriptor& d,
                                                                const engine_config& cfg) {
        return std::make_unique<detail::engine_text_summarizer<W, L>>(d, cfg);
    }

    /// Baseline-algorithm instantiations (u64 keys, table storage, plain or
    /// — for count_min / space_saving — fading; build() vetted the combo).
    static std::unique_ptr<detail::summarizer_impl> make_baseline(
        const summary_descriptor& d) {
        const bool real = d.weights == weight_kind::real;
        switch (d.algorithm) {
            case algo::count_min:
                if (d.lifetime == lifetime_kind::fading) {
                    return standalone<count_min_summary<double, exponential_fading>>(d);
                }
                return real
                           ? standalone<count_min_summary<double, plain_lifetime>>(d)
                           : standalone<count_min_summary<std::uint64_t, plain_lifetime>>(d);
            case algo::count_sketch:
                return standalone<count_sketch_summary>(d);
            default:  // algo::space_saving
                if (d.lifetime == lifetime_kind::fading) {
                    return standalone<space_saving_summary<double, exponential_fading>>(d);
                }
                return real ? standalone<space_saving_summary<double, plain_lifetime>>(d)
                            : standalone<
                                  space_saving_summary<std::uint64_t, plain_lifetime>>(d);
        }
    }

    static std::unique_ptr<detail::summarizer_impl> engine_baseline(
        const summary_descriptor& d, const engine_config& cfg) {
        const bool real = d.weights == weight_kind::real;
        switch (d.algorithm) {
            case algo::count_min:
                if (d.lifetime == lifetime_kind::fading) {
                    return engine_impl<count_min_summary<double, exponential_fading>>(d,
                                                                                      cfg);
                }
                return real ? engine_impl<count_min_summary<double, plain_lifetime>>(d, cfg)
                            : engine_impl<count_min_summary<std::uint64_t, plain_lifetime>>(
                                  d, cfg);
            case algo::count_sketch:
                return engine_impl<count_sketch_summary>(d, cfg);
            default:  // algo::space_saving
                if (d.lifetime == lifetime_kind::fading) {
                    return engine_impl<space_saving_summary<double, exponential_fading>>(
                        d, cfg);
                }
                return real
                           ? engine_impl<space_saving_summary<double, plain_lifetime>>(d, cfg)
                           : engine_impl<
                                 space_saving_summary<std::uint64_t, plain_lifetime>>(d, cfg);
        }
    }

    static std::unique_ptr<detail::summarizer_impl> make_standalone(
        const summary_descriptor& d) {
        if (d.algorithm != algo::paper) {
            return make_baseline(d);
        }
        const bool real = d.weights == weight_kind::real;
        switch (d.keys) {
            case key_kind::u64:
                if (d.backend == backend_kind::map) {
                    switch (d.lifetime) {
                        case lifetime_kind::plain:
                            return real ? map<double, plain_lifetime>(d)
                                        : map<std::uint64_t, plain_lifetime>(d);
                        default:
                            return map<double, exponential_fading>(d);
                    }
                }
                switch (d.lifetime) {
                    case lifetime_kind::plain:
                        return real ? standalone<basic_frequent_items<
                                          std::uint64_t, double, plain_lifetime>>(d)
                                    : standalone<basic_frequent_items<
                                          std::uint64_t, std::uint64_t, plain_lifetime>>(d);
                    case lifetime_kind::fading:
                        return standalone<
                            basic_frequent_items<std::uint64_t, double, exponential_fading>>(
                            d);
                    default:
                        return real ? standalone<basic_frequent_items<std::uint64_t, double,
                                                                      epoch_window>>(d)
                                    : standalone<basic_frequent_items<
                                          std::uint64_t, std::uint64_t, epoch_window>>(d);
                }
            default:
                switch (d.lifetime) {
                    case lifetime_kind::plain:
                        return real ? text<double, plain_lifetime>(d)
                                    : text<std::uint64_t, plain_lifetime>(d);
                    case lifetime_kind::fading:
                        return text<double, exponential_fading>(d);
                    default:
                        return real ? text<double, epoch_window>(d)
                                    : text<std::uint64_t, epoch_window>(d);
                }
        }
    }

    static std::unique_ptr<detail::summarizer_impl> make_engine(
        const summary_descriptor& d, const engine_config& cfg) {
        if (d.algorithm != algo::paper) {
            return engine_baseline(d, cfg);
        }
        const bool real = d.weights == weight_kind::real;
        if (d.keys == key_kind::text) {
            switch (d.lifetime) {
                case lifetime_kind::plain:
                    return real ? engine_text<double, plain_lifetime>(d, cfg)
                                : engine_text<std::uint64_t, plain_lifetime>(d, cfg);
                case lifetime_kind::fading:
                    return engine_text<double, exponential_fading>(d, cfg);
                default:
                    return real ? engine_text<double, epoch_window>(d, cfg)
                                : engine_text<std::uint64_t, epoch_window>(d, cfg);
            }
        }
        switch (d.lifetime) {
            case lifetime_kind::plain:
                return real
                           ? engine_impl<basic_frequent_items<std::uint64_t, double,
                                                              plain_lifetime>>(d, cfg)
                           : engine_impl<basic_frequent_items<std::uint64_t, std::uint64_t,
                                                              plain_lifetime>>(d, cfg);
            case lifetime_kind::fading:
                return engine_impl<basic_frequent_items<std::uint64_t, double,
                                                        exponential_fading>>(d, cfg);
            default:
                return real ? engine_impl<basic_frequent_items<std::uint64_t, double,
                                                               epoch_window>>(d, cfg)
                            : engine_impl<basic_frequent_items<std::uint64_t, std::uint64_t,
                                                               epoch_window>>(d, cfg);
        }
    }

    sketch_config sketch_{};
    engine_config engine_{};
    algo algo_ = algo::paper;
    key_kind keys_ = key_kind::u64;
    std::optional<weight_kind> weights_;
    lifetime_kind lifetime_ = lifetime_kind::plain;
    backend_kind backend_ = backend_kind::table;
    bool sharded_ = false;
    std::optional<std::chrono::microseconds> snapshot_interval_;
};

// --- envelope -> summarizer --------------------------------------------------

/// Materializes a standalone summarizer from envelope bytes — the inverse
/// of summarizer::save(). The instantiation is chosen by the envelope's
/// descriptor at runtime; \p max_accepted_counters bounds allocations for
/// untrusted bytes (see envelope_load).
inline summarizer restore_summary(const summary_bytes& b,
                                  std::uint32_t max_accepted_counters = 1u << 28) {
    const summary_descriptor& d = b.descriptor();
    const bool real = d.weights == weight_kind::real;
    auto u64_impl = [&](auto tag) -> std::unique_ptr<detail::summarizer_impl> {
        using sketch_type = typename decltype(tag)::type;
        return std::make_unique<detail::u64_summarizer<sketch_type>>(
            d, envelope_load<sketch_type>(b, max_accepted_counters));
    };
    auto text_impl = [&](auto tag) -> std::unique_ptr<detail::summarizer_impl> {
        using sketch_type = typename decltype(tag)::type;
        return std::make_unique<detail::text_summarizer<
            typename sketch_type::weight_type, typename sketch_type::lifetime_policy>>(
            d, envelope_load<sketch_type>(b, max_accepted_counters));
    };
    // The algorithm tag routes first: baseline envelopes are always
    // u64-keyed and table-stored (parse_header enforced the combination).
    if (d.algorithm != algo::paper) {
        switch (d.algorithm) {
            case algo::count_min:
                if (d.lifetime == lifetime_kind::fading) {
                    return summarizer(u64_impl(
                        std::type_identity<count_min_summary<double, exponential_fading>>{}));
                }
                return summarizer(
                    real ? u64_impl(std::type_identity<
                                    count_min_summary<double, plain_lifetime>>{})
                         : u64_impl(std::type_identity<
                                    count_min_summary<std::uint64_t, plain_lifetime>>{}));
            case algo::count_sketch:
                return summarizer(u64_impl(std::type_identity<count_sketch_summary>{}));
            default:  // algo::space_saving
                if (d.lifetime == lifetime_kind::fading) {
                    return summarizer(u64_impl(std::type_identity<
                                               space_saving_summary<double,
                                                                    exponential_fading>>{}));
                }
                return summarizer(
                    real ? u64_impl(std::type_identity<
                                    space_saving_summary<double, plain_lifetime>>{})
                         : u64_impl(std::type_identity<
                                    space_saving_summary<std::uint64_t, plain_lifetime>>{}));
        }
    }
    if (d.keys == key_kind::u64 && d.backend == backend_kind::map) {
        switch (d.lifetime) {
            case lifetime_kind::plain:
                return summarizer(
                    real ? u64_impl(std::type_identity<generic_frequent_items<
                                        std::uint64_t, double, std::hash<std::uint64_t>,
                                        std::equal_to<std::uint64_t>, plain_lifetime>>{})
                         : u64_impl(std::type_identity<generic_frequent_items<
                                        std::uint64_t, std::uint64_t,
                                        std::hash<std::uint64_t>,
                                        std::equal_to<std::uint64_t>, plain_lifetime>>{}));
            default:
                return summarizer(
                    u64_impl(std::type_identity<generic_frequent_items<
                                 std::uint64_t, double, std::hash<std::uint64_t>,
                                 std::equal_to<std::uint64_t>, exponential_fading>>{}));
        }
    }
    if (d.keys == key_kind::u64) {
        switch (d.lifetime) {
            case lifetime_kind::plain:
                return summarizer(
                    real ? u64_impl(std::type_identity<basic_frequent_items<
                                        std::uint64_t, double, plain_lifetime>>{})
                         : u64_impl(std::type_identity<basic_frequent_items<
                                        std::uint64_t, std::uint64_t, plain_lifetime>>{}));
            case lifetime_kind::fading:
                return summarizer(u64_impl(
                    std::type_identity<basic_frequent_items<std::uint64_t, double,
                                                            exponential_fading>>{}));
            default:
                return summarizer(
                    real ? u64_impl(std::type_identity<basic_frequent_items<
                                        std::uint64_t, double, epoch_window>>{})
                         : u64_impl(std::type_identity<basic_frequent_items<
                                        std::uint64_t, std::uint64_t, epoch_window>>{}));
        }
    }
    switch (d.lifetime) {
        case lifetime_kind::plain:
            return summarizer(
                real ? text_impl(
                           std::type_identity<string_frequent_items<double, plain_lifetime>>{})
                     : text_impl(std::type_identity<
                                 string_frequent_items<std::uint64_t, plain_lifetime>>{}));
        case lifetime_kind::fading:
            return summarizer(text_impl(
                std::type_identity<string_frequent_items<double, exponential_fading>>{}));
        default:
            return summarizer(
                real ? text_impl(
                           std::type_identity<string_frequent_items<double, epoch_window>>{})
                     : text_impl(std::type_identity<
                                 string_frequent_items<std::uint64_t, epoch_window>>{}));
    }
}

/// Convenience overload for raw bytes fresh off the wire.
inline summarizer restore_summary(std::vector<std::uint8_t> bytes,
                                  std::uint32_t max_accepted_counters = 1u << 28) {
    return restore_summary(summary_bytes::wrap(std::move(bytes)), max_accepted_counters);
}

}  // namespace freq

#endif  // FREQ_API_BUILDER_H
