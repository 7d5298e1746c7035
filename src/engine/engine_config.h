#ifndef FREQ_ENGINE_ENGINE_CONFIG_H
#define FREQ_ENGINE_ENGINE_CONFIG_H

/// \file engine_config.h
/// The tuning knobs of the sharded engine (engine/stream_engine.h), apart
/// from the engine itself so the façade builder (api/builder.h) can carry
/// them without pulling in the engine's templates.

#include <cstddef>
#include <cstdint>

#include "core/sketch_config.h"

namespace freq {

/// Tuning knobs of stream_engine.
struct engine_config {
    /// S — number of shards, i.e. worker threads and per-shard sketches.
    std::uint32_t num_shards = 4;

    /// P — number of producer handles the engine hands out; one SPSC ring
    /// exists per (producer, shard) pair.
    std::uint32_t num_producers = 1;

    /// Slots per ring, rounded up to a power of two. Bounded memory:
    /// total queued updates never exceed P * S * ring_capacity.
    std::size_t ring_capacity = 4096;

    /// Maximum updates a worker applies to its sketch per lock acquisition.
    std::size_t drain_batch = 512;

    /// Updates a producer stages per shard before pushing the run into the
    /// shard's ring (amortizes ring synchronization).
    std::size_t producer_batch = 128;

    /// Pending-spelling bound per shard (spelling-keeping sketches only):
    /// a full channel defers the spelling to the key's next occurrence
    /// instead of blocking the hot path.
    std::size_t spelling_channel_capacity = 4096;

    /// Slots in each producer's direct-mapped recently-sent spelling
    /// filter (rounded up to a power of two). Smaller filters re-send
    /// spellings more often (more side-lane traffic, faster healing of
    /// swept spellings); larger ones dedupe better.
    std::size_t spelling_filter_slots = 4096;

    /// Per-shard sketch configuration. Shard s runs with seed + s so the
    /// shards' hash functions are independent (§3.2's merge note).
    sketch_config sketch{};

    /// Incremental snapshot folds: snapshot() keeps a per-shard clone cache
    /// keyed by engine_shard::generation() and re-clones/re-merges only the
    /// shards that mutated since the previous fold — O(k·dirty) per publish
    /// instead of O(k·S), and a fully idle publish is one O(k) copy. Costs
    /// ~(S+2) extra sketch copies of resident memory; set false to fold
    /// every shard from scratch on every snapshot (the pre-cache behavior,
    /// also what bench_snapshot uses as its baseline).
    bool incremental_snapshots = true;
};

}  // namespace freq

#endif  // FREQ_ENGINE_ENGINE_CONFIG_H
