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
///
/// This header only declares the materialization: every instantiation the
/// descriptor can name is compiled once, into libfreq (api/builder.cpp).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "api/summarizer.h"
#include "api/summary_bytes.h"
#include "common/contracts.h"
#include "core/sketch_config.h"
#include "engine/engine_config.h"

namespace freq {

namespace detail {

/// Materializes the summary instantiation a vetted descriptor names
/// (api/builder.cpp): standalone when \p engine is null, sharded over an
/// engine configured by \p *engine otherwise.
std::unique_ptr<summarizer_impl> make_summarizer(const summary_descriptor& d,
                                                 const engine_config* engine);

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
            summarizer s(detail::make_summarizer(d, &ecfg));
            if (snapshot_interval_.has_value()) {
                s.enable_snapshot_service(*snapshot_interval_);
            }
            return s;
        }
        return summarizer(detail::make_summarizer(d, nullptr));
    }

private:
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
summarizer restore_summary(const summary_bytes& b,
                           std::uint32_t max_accepted_counters = 1u << 28);

/// Convenience overload for raw bytes fresh off the wire.
summarizer restore_summary(std::vector<std::uint8_t> bytes,
                           std::uint32_t max_accepted_counters = 1u << 28);

}  // namespace freq

#endif  // FREQ_API_BUILDER_H
