#include "obs/pipeline_metrics.h"

#include <string>

namespace bgpcc::obs {

namespace {

constexpr const char* kCodecNames[PipelineMetrics::kCodecs] = {"none", "gzip",
                                                               "bzip2"};

constexpr const char* kCleaningFieldNames[PipelineMetrics::kCleaningFields] =
    {"dropped_unallocated_asn", "dropped_unallocated_prefix",
     "route_server_paths_repaired", "timestamps_adjusted", "late_records"};

constexpr const char* kIngestStageHelp =
    "Wall time per ingest pipeline stage, seconds";
constexpr const char* kAnalysisStageHelp =
    "Wall time per analysis driver stage, seconds";

Histogram& stage_histogram(Registry& r, const char* family, const char* help,
                           const char* stage) {
  return r.histogram(family, help, default_duration_buckets(),
                     {{"stage", stage}});
}

PipelineMetrics build() {
  Registry& r = Registry::global();
  PipelineMetrics m;
  for (std::size_t c = 0; c < PipelineMetrics::kCodecs; ++c) {
    const Labels labels{{"codec", kCodecNames[c]}};
    m.source_opened[c] =
        &r.counter("bgpcc_source_opened_total",
                   "MRT byte sources opened, by compression codec", labels);
    m.source_compressed_bytes[c] = &r.counter(
        "bgpcc_source_compressed_bytes_total",
        "Bytes read from the underlying stream before decompression", labels);
    m.source_bytes[c] =
        &r.counter("bgpcc_source_bytes_total",
                   "Decompressed bytes handed to the MRT framer", labels);
  }

  const char* ingest = "bgpcc_ingest_stage_seconds";
  m.ingest_frame = &stage_histogram(r, ingest, kIngestStageHelp, "frame");
  m.ingest_decode = &stage_histogram(r, ingest, kIngestStageHelp, "decode");
  m.ingest_clean = &stage_histogram(r, ingest, kIngestStageHelp, "clean");
  m.ingest_observe = &stage_histogram(r, ingest, kIngestStageHelp, "observe");
  m.ingest_merge = &stage_histogram(r, ingest, kIngestStageHelp, "merge");
  m.ingest_spill = &stage_histogram(r, ingest, kIngestStageHelp, "spill");
  m.ingest_run_merge =
      &stage_histogram(r, ingest, kIngestStageHelp, "run_merge");
  m.ingest_window = &stage_histogram(r, ingest, kIngestStageHelp, "window");
  m.ingest_prefetch_wait =
      &stage_histogram(r, ingest, kIngestStageHelp, "prefetch_wait");

  m.ingest_windows =
      &r.counter("bgpcc_ingest_windows_total", "Ingest windows processed");
  m.ingest_chunks =
      &r.counter("bgpcc_ingest_chunks_total", "MRT chunks decoded");
  m.ingest_raw_records = &r.counter("bgpcc_ingest_raw_records_total",
                                    "Records decoded before cleaning");
  m.ingest_records = &r.counter("bgpcc_ingest_records_total",
                                "Per-prefix update records decoded");
  m.ingest_update_messages = &r.counter("bgpcc_ingest_update_messages_total",
                                        "BGP UPDATE messages decoded");
  m.ingest_spilled_runs = &r.counter("bgpcc_ingest_spilled_runs_total",
                                     "Sorted runs spilled to disk");
  m.ingest_decode_in_flight =
      &r.gauge("bgpcc_ingest_decode_in_flight",
               "Decode chunk groups currently queued or running");
  for (std::size_t f = 0; f < PipelineMetrics::kCleaningFields; ++f) {
    m.cleaning_records[f] = &r.counter(
        "bgpcc_cleaning_records_total",
        "Records the §4 cleaning dropped, repaired, re-timed or found late",
        {{"field", kCleaningFieldNames[f]}});
  }

  m.pool_tasks =
      &r.counter("bgpcc_pool_tasks_total", "Worker pool tasks executed");
  m.pool_help_hits =
      &r.counter("bgpcc_pool_help_hits_total",
                 "Tasks run by waiters helping while blocked in wait()");
  m.pool_queue_wait =
      &r.histogram("bgpcc_pool_queue_wait_seconds",
                   "Submit-to-start latency per worker pool task, seconds",
                   default_duration_buckets());

  const char* analysis = "bgpcc_analysis_stage_seconds";
  m.analysis_merge = &stage_histogram(r, analysis, kAnalysisStageHelp, "merge");
  m.analysis_snapshot =
      &stage_histogram(r, analysis, kAnalysisStageHelp, "snapshot");
  m.analysis_snapshot_clone =
      &stage_histogram(r, analysis, kAnalysisStageHelp, "snapshot_clone");
  m.analysis_snapshot_merge =
      &stage_histogram(r, analysis, kAnalysisStageHelp, "snapshot_merge");
  m.analysis_checkpoint =
      &stage_histogram(r, analysis, kAnalysisStageHelp, "checkpoint");
  m.analysis_restore =
      &stage_histogram(r, analysis, kAnalysisStageHelp, "restore");

  m.analysis_epoch = &r.gauge("bgpcc_analysis_epoch",
                              "Latest snapshot epoch issued by a driver");
  m.analysis_snapshots =
      &r.counter("bgpcc_analysis_snapshots_total", "snapshot() calls served");
  m.analysis_observe_records =
      &r.counter("bgpcc_analysis_observe_records_total",
                 "Records routed through AnalysisDriver::observe_shard");
  return m;
}

}  // namespace

const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics metrics = build();
  return metrics;
}

Histogram& pass_merge_histogram(std::size_t pass_index) {
  return Registry::global().histogram(
      "bgpcc_analysis_pass_merge_seconds",
      "Per-pass snapshot merge wall time, seconds",
      default_duration_buckets(), {{"pass", std::to_string(pass_index)}});
}

}  // namespace bgpcc::obs
