// The pipeline's metric inventory: every counter, gauge, and histogram
// the instrumented engine updates, registered eagerly in
// Registry::global() so an exposition always contains every series
// (zero-valued until its stage runs). One struct of stable pointers —
// instrumented code fetches it once (function-local static, thread-safe
// init) and never touches the registry lock again.
//
// Names, labels, and stages are documented in docs/METRICS.md; changing
// anything here is a consumer-visible interface change.
#pragma once

#include <cstddef>

#include "obs/metrics.h"

namespace bgpcc::obs {

/// Pointers to every pre-registered pipeline metric series. Obtain via
/// pipeline_metrics(); all pointers are non-null and live for the
/// process lifetime.
struct PipelineMetrics {
  /// Codec index for the source-layer arrays: plain file/stream I/O.
  static constexpr std::size_t kCodecNone = 0;
  /// Codec index for gzip-compressed sources.
  static constexpr std::size_t kCodecGzip = 1;
  /// Codec index for bzip2-compressed sources.
  static constexpr std::size_t kCodecBzip2 = 2;
  /// Number of codec-indexed series per source-layer family.
  static constexpr std::size_t kCodecs = 3;

  /// bgpcc_source_opened_total{codec}: sources opened, by codec.
  Counter* source_opened[kCodecs];
  /// bgpcc_source_compressed_bytes_total{codec}: bytes read from the
  /// underlying stream before decompression (equals the raw byte count
  /// for codec="none").
  Counter* source_compressed_bytes[kCodecs];
  /// bgpcc_source_bytes_total{codec}: decompressed bytes handed to the
  /// MRT framer.
  Counter* source_bytes[kCodecs];

  /// bgpcc_ingest_stage_seconds{stage="frame"}: wall time framing raw
  /// bytes into length-delimited MRT chunks.
  Histogram* ingest_frame;
  /// bgpcc_ingest_stage_seconds{stage="decode"}: per-chunk MRT decode.
  Histogram* ingest_decode;
  /// bgpcc_ingest_stage_seconds{stage="clean"}: per-window parallel
  /// shard clean (dedup/session cleaning).
  Histogram* ingest_clean;
  /// bgpcc_ingest_stage_seconds{stage="observe"}: per-window shard
  /// observer callbacks (the analysis observe hook).
  Histogram* ingest_observe;
  /// bgpcc_ingest_stage_seconds{stage="merge"}: per-window tournament
  /// merge into arrival order.
  Histogram* ingest_merge;
  /// bgpcc_ingest_stage_seconds{stage="spill"}: writing one sorted run
  /// to the spill directory.
  Histogram* ingest_spill;
  /// bgpcc_ingest_stage_seconds{stage="run_merge"}: merging spilled
  /// runs back into one stream at finish.
  Histogram* ingest_run_merge;
  /// bgpcc_ingest_stage_seconds{stage="window"}: whole-window wall time
  /// (frame+decode wait through commit).
  Histogram* ingest_window;
  /// bgpcc_ingest_stage_seconds{stage="prefetch_wait"}: time the
  /// committing thread waited for the pipelined next window's decode
  /// group (0 ≈ perfect overlap).
  Histogram* ingest_prefetch_wait;

  /// bgpcc_ingest_windows_total: windows processed.
  Counter* ingest_windows;
  /// bgpcc_ingest_chunks_total: MRT chunks decoded.
  Counter* ingest_chunks;
  /// bgpcc_ingest_raw_records_total: records decoded before cleaning.
  Counter* ingest_raw_records;
  /// bgpcc_ingest_records_total: exploded per-prefix update records
  /// decoded (pre-clean, matching IngestStats::records).
  Counter* ingest_records;
  /// bgpcc_ingest_update_messages_total: BGP UPDATE messages seen.
  Counter* ingest_update_messages;
  /// bgpcc_ingest_spilled_runs_total: sorted runs spilled to disk.
  Counter* ingest_spilled_runs;
  /// bgpcc_ingest_decode_in_flight: decode chunk groups currently
  /// queued or running (bounded queue occupancy).
  Gauge* ingest_decode_in_flight;
  /// Number of core::CleaningReport counters.
  static constexpr std::size_t kCleaningFields = 5;
  /// bgpcc_cleaning_records_total{field}: the §4 CleaningReport counters
  /// in core::kCleaningCounters order (field = the member's name), added
  /// once per window.
  Counter* cleaning_records[kCleaningFields];

  /// bgpcc_pool_tasks_total: tasks executed by the worker pool
  /// (workers and helping waiters combined).
  Counter* pool_tasks;
  /// bgpcc_pool_help_hits_total: tasks a waiter stole and ran while
  /// blocked in WorkerPool::wait.
  Counter* pool_help_hits;
  /// bgpcc_pool_queue_wait_seconds: submit-to-start latency per task.
  Histogram* pool_queue_wait;

  /// bgpcc_analysis_stage_seconds{stage="merge"}: folding an external
  /// partial-state/checkpoint file into the driver (load_state — the
  /// bgpcc-merge combine path).
  Histogram* analysis_merge;
  /// bgpcc_analysis_stage_seconds{stage="snapshot"}: whole snapshot()
  /// call (clone + merge).
  Histogram* analysis_snapshot;
  /// bgpcc_analysis_stage_seconds{stage="snapshot_clone"}: the
  /// under-lock clone phase of snapshot().
  Histogram* analysis_snapshot_clone;
  /// bgpcc_analysis_stage_seconds{stage="snapshot_merge"}: the
  /// outside-lock merge phase of snapshot().
  Histogram* analysis_snapshot_merge;
  /// bgpcc_analysis_stage_seconds{stage="checkpoint"}: serializing a
  /// checkpoint (driver state + ingest cursor).
  Histogram* analysis_checkpoint;
  /// bgpcc_analysis_stage_seconds{stage="restore"}: deserializing a
  /// checkpoint back into the driver.
  Histogram* analysis_restore;

  /// bgpcc_analysis_epoch: latest snapshot epoch issued by a driver
  /// (AnalysisDriver's monotone epoch counter, exported as a gauge).
  Gauge* analysis_epoch;
  /// bgpcc_analysis_snapshots_total: snapshot() calls served.
  Counter* analysis_snapshots;
  /// bgpcc_analysis_observe_records_total: records routed through
  /// AnalysisDriver::observe_shard across all passes' shards.
  Counter* analysis_observe_records;
};

/// The process-wide pipeline metric set, registered in
/// Registry::global() on first use (thread-safe).
[[nodiscard]] const PipelineMetrics& pipeline_metrics();

/// Per-pass snapshot-merge timing series,
/// bgpcc_analysis_pass_merge_seconds{pass="<index>"} where `<index>`
/// is the pass's registration order in its AnalysisDriver. Registered
/// on demand; cheap enough for per-snapshot use, not for per-record
/// paths.
[[nodiscard]] Histogram& pass_merge_histogram(std::size_t pass_index);

}  // namespace bgpcc::obs
