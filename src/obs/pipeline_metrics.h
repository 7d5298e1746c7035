#ifndef FREQ_OBS_PIPELINE_METRICS_H
#define FREQ_OBS_PIPELINE_METRICS_H

/// \file pipeline_metrics.h
/// The instrument catalog of the freq pipeline — every metric the library
/// exports, registered once on the process-wide registry and shared by all
/// engine/sketch/façade instances (process-lifetime totals, Prometheus
/// style). Call sites reach them through obs::pipeline(), a magic-static
/// bundle of references, so the per-event cost is the instrument operation
/// itself (one relaxed fetch_add, or a histogram record).
///
/// Naming scheme (one prefix per layer; *_total for monotonic counters,
/// *_ns for steady-clock nanosecond latencies):
///
///   freq_engine_*    ring hot path (producers, backpressure, occupancy)
///   freq_shard_*     worker drain loop and lifetime clock
///   freq_sketch_*    sketch maintenance (decrement rounds, evictions,
///                    renormalizations)
///   freq_spelling_*  identification side-lane (channel + dedupe filter)
///   freq_snapshot_*  async snapshot service
///   freq_facade_*    api/summarizer.h verbs
///   freq_hhh_* / freq_entropy_* / freq_replay_*
///                    network-telemetry subsystem (src/telemetry/)
///
/// Under -DFREQ_OBS_OFF this struct collapses to a bundle of empty no-op
/// members with constant initialization, so obs::pipeline().x.add(…)
/// compiles to nothing.

#include "obs/instruments.h"
#include "obs/registry.h"

namespace freq::obs {

#ifndef FREQ_OBS_OFF

struct pipeline_metrics {
    // --- engine / ring layer ------------------------------------------------
    counter& engine_updates_enqueued;
    counter& engine_updates_applied;
    counter& engine_batches_applied;
    counter& engine_ring_full;
    counter& engine_publishes;
    histogram& engine_ring_occupancy;

    // --- shard / sketch maintenance -----------------------------------------
    histogram& shard_drain_batch_size;
    counter& shard_ticks;
    counter& sketch_decrement_rounds;
    counter& sketch_evictions;
    counter& sketch_renormalizations;
    histogram& table_probe_length;

    // --- spelling side-lane -------------------------------------------------
    counter& spelling_enqueued;
    counter& spelling_applied;
    counter& spelling_rejects;
    counter& spelling_dedupe_hits;

    // --- snapshot service ---------------------------------------------------
    counter& snapshot_publishes;
    counter& snapshot_coalesced_publishes;
    counter& snapshot_acquires;
    counter& snapshot_acquire_retries;
    counter& snapshot_pool_grows;
    counter& snapshot_shards_refolded;
    histogram& snapshot_publish_latency_ns;

    // --- façade -------------------------------------------------------------
    counter& facade_updates;
    histogram& facade_estimate_latency_ns;
    histogram& facade_frequent_items_latency_ns;
    histogram& facade_top_items_latency_ns;

    // --- network telemetry ----------------------------------------------------
    counter& hhh_levels_queried;
    counter& entropy_alarms;
    counter& replay_records;

    static pipeline_metrics& instance() {
        static pipeline_metrics m{registry::global()};
        return m;
    }

private:
    explicit pipeline_metrics(registry& r)
        : engine_updates_enqueued(r.get_counter(
              "freq_engine_updates_enqueued_total",
              "Updates pushed into shard rings by producers")),
          engine_updates_applied(r.get_counter(
              "freq_engine_updates_applied_total",
              "Updates applied to shard sketches by workers")),
          engine_batches_applied(r.get_counter(
              "freq_engine_batches_applied_total",
              "Sketch lock acquisitions by shard workers (drained batches)")),
          engine_ring_full(r.get_counter(
              "freq_engine_ring_full_total",
              "Producer yields due to full rings (backpressure stalls)")),
          engine_publishes(r.get_counter(
              "freq_engine_publishes_total",
              "Staged runs published into shard rings by producers")),
          engine_ring_occupancy(r.get_histogram(
              "freq_engine_ring_occupancy",
              "Ring fill level (elements) sampled at each producer publish")),
          shard_drain_batch_size(r.get_histogram(
              "freq_shard_drain_batch_size",
              "Updates applied per shard drain batch")),
          shard_ticks(r.get_counter(
              "freq_shard_ticks_total",
              "Lifetime-clock ticks applied to shards (decay steps / window rotations)")),
          sketch_decrement_rounds(r.get_counter(
              "freq_sketch_decrement_rounds_total",
              "Offset-subtraction rounds triggered by full counter tables")),
          sketch_evictions(r.get_counter(
              "freq_sketch_evictions_total",
              "Counters evicted (reached zero) during decrement rounds")),
          sketch_renormalizations(r.get_counter(
              "freq_sketch_renormalizations_total",
              "Fading-sketch weight renormalizations (rebase of decayed scales)")),
          table_probe_length(r.get_histogram(
              "freq_table_probe_length",
              "Counter-table probe length (slots from preferred), sampled once "
              "per 16 tracked hits")),
          spelling_enqueued(r.get_counter(
              "freq_spelling_enqueued_total",
              "Spellings accepted into shard spelling channels")),
          spelling_applied(r.get_counter(
              "freq_spelling_applied_total",
              "Spellings applied to shard dictionaries")),
          spelling_rejects(r.get_counter(
              "freq_spelling_rejects_total",
              "Spellings deferred by full channels (retried on next occurrence)")),
          spelling_dedupe_hits(r.get_counter(
              "freq_spelling_dedupe_hits_total",
              "Keyed pushes whose spelling was suppressed by the recently-sent filter")),
          snapshot_publishes(r.get_counter(
              "freq_snapshot_publishes_total",
              "Snapshot-service publish cycles (fold + buffer swap)")),
          snapshot_coalesced_publishes(r.get_counter(
              "freq_snapshot_coalesced_publishes_total",
              "publish_now() calls satisfied by an in-flight publish cycle")),
          snapshot_acquires(r.get_counter(
              "freq_snapshot_acquires_total",
              "Cached-view acquisitions (published_snapshot pins)")),
          snapshot_acquire_retries(r.get_counter(
              "freq_snapshot_acquire_retries_total",
              "Validating-reload retries taken inside acquire()")),
          snapshot_pool_grows(r.get_counter(
              "freq_snapshot_pool_grows_total",
              "Buffer-pool growth events caused by long-pinned views")),
          snapshot_shards_refolded(r.get_counter(
              "freq_snapshot_shards_refolded_total",
              "Shards re-cloned and re-merged by incremental snapshot folds "
              "(dirty generations since the previous fold)")),
          snapshot_publish_latency_ns(r.get_histogram(
              "freq_snapshot_publish_latency_ns",
              "Latency of one publish cycle (fold + swap), nanoseconds")),
          facade_updates(r.get_counter(
              "freq_facade_updates_total",
              "Updates accepted through the summarizer facade")),
          facade_estimate_latency_ns(r.get_histogram(
              "freq_facade_query_latency_ns",
              "Facade query latency by verb, nanoseconds",
              {{"verb", "estimate"}})),
          facade_frequent_items_latency_ns(r.get_histogram(
              "freq_facade_query_latency_ns",
              "Facade query latency by verb, nanoseconds",
              {{"verb", "frequent_items"}})),
          facade_top_items_latency_ns(r.get_histogram(
              "freq_facade_query_latency_ns",
              "Facade query latency by verb, nanoseconds",
              {{"verb", "top_items"}})),
          hhh_levels_queried(r.get_counter(
              "freq_hhh_levels_queried_total",
              "Prefix levels walked by hierarchical heavy-hitter queries")),
          entropy_alarms(r.get_counter(
              "freq_entropy_alarm_total",
              "Entropy-shift alarms raised (collapse or spike vs the EWMA baseline)")),
          replay_records(r.get_counter(
              "freq_replay_records_total",
              "Trace records driven through the pipeline by replay harnesses")) {}
};

#else  // FREQ_OBS_OFF: empty no-op members, constant-initialized.

struct pipeline_metrics {
    counter engine_updates_enqueued;
    counter engine_updates_applied;
    counter engine_batches_applied;
    counter engine_ring_full;
    counter engine_publishes;
    histogram engine_ring_occupancy;
    histogram shard_drain_batch_size;
    counter shard_ticks;
    counter sketch_decrement_rounds;
    counter sketch_evictions;
    counter sketch_renormalizations;
    histogram table_probe_length;
    counter spelling_enqueued;
    counter spelling_applied;
    counter spelling_rejects;
    counter spelling_dedupe_hits;
    counter snapshot_publishes;
    counter snapshot_coalesced_publishes;
    counter snapshot_acquires;
    counter snapshot_acquire_retries;
    counter snapshot_pool_grows;
    counter snapshot_shards_refolded;
    histogram snapshot_publish_latency_ns;
    counter facade_updates;
    histogram facade_estimate_latency_ns;
    histogram facade_frequent_items_latency_ns;
    histogram facade_top_items_latency_ns;
    counter hhh_levels_queried;
    counter entropy_alarms;
    counter replay_records;

    static pipeline_metrics& instance() noexcept {
        static pipeline_metrics m;
        return m;
    }
};

#endif  // FREQ_OBS_OFF

/// The shared catalog (see file comment).
inline pipeline_metrics& pipeline() { return pipeline_metrics::instance(); }

}  // namespace freq::obs

#endif  // FREQ_OBS_PIPELINE_METRICS_H
