// Pipelined, parallel, sharded ingestion: the hot path that turns raw
// collector output (MRT archives, on disk or in memory) into the cleaned,
// chronologically ordered UpdateStream every analysis layer consumes.
// Simulated collectors arrive the same way: synth::ingest (synth/ingest.h)
// writes their logs as MRT bytes, so core never sees a simulator type.
//
// Pipeline (every stage runs on one persistent core::WorkerPool, created
// with the engine and reused across windows and poll()/finish() calls —
// no per-window thread spawn/join):
//   1. Frame   — sequential readers (one per archive file; a batch run
//                on a pool frames up to min(#files, threads, 4) files
//                concurrently)
//                slice the input into batches of
//                `chunk_records` raw records. Each batch carries a
//                (file, chunk) arrival coordinate — the determinism
//                anchor — and is submitted as a decode task, with the
//                number in flight bounded (`queue_chunks`) so framing
//                I/O overlaps decode without unbounded buffering.
//   2. Decode  — pool workers decode each batch as it is framed
//                (decode starts while later files are still being framed),
//                decoding BGP4MP endpoints + inner UPDATE and exploding
//                messages into per-prefix UpdateRecords. In windowed mode
//                window N+1 frames/decodes on the pool while window N
//                cleans and merges.
//   3. Shard   — decoded records are bucketed by SessionKey hash, so every
//                BGP session lands wholly inside one shard — even when its
//                messages span several archive files — and the §4 cleaning
//                pipeline (unallocated filtering, route-server AS-path
//                repair, sub-second reordering) runs lock-free per shard,
//                once per session, not once per file.
//   4. Merge   — the sorted shard runs are stitched into one UpdateStream
//                totally ordered by (timestamp, arrival sequence) with a
//                partitioned k-way tournament (loser-tree) merge: workers
//                merge disjoint slices of the output concurrently.
//
// Every stage is deterministic in the logical record sequence alone:
// ingesting with 1 thread or N threads, any chunk size, any queue depth,
// and any split of the same records across archive files yields
// byte-identical streams, reports, and stats — stream_parallel_test and
// ingest_differential_test assert exactly that.
//
// Streaming windowed mode (StreamingIngestor / window_records != 0) runs
// the same pipeline in bounded windows: each window frames up to
// `window_records` raw records (chunk-granular), runs shard-clean with
// per-shard session-state carry-over, merges to one ordered run, and
// spills or buffers it; a final incremental k-way run-merge stitches the
// runs into the identical globally ordered record sequence — so peak
// memory is O(window + shards), not O(archive). All inputs — files or
// streams — pass through the transparent gzip/bz2 detection layer
// (mrt/source.h), so `.gz`/`.bz2` RouteViews/RIS archives ingest without
// a separate unpack step.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/cleaning.h"
#include "core/stream.h"

namespace bgpcc::core {

/// Default (and minimum) number of SessionKey-hash shards the engine
/// uses. The resolved count (resolve_shard_count) is recorded in every
/// checkpoint cursor, because the per-shard cleaning carry is shaped by
/// it; the OUTPUT is shard-count-invariant — each session lands wholly
/// inside one shard for any count, and cleaning/passes depend only on
/// the record multiset plus per-session order. Exported so inline
/// analytics (analytics/driver.h) can size one state set per shard.
inline constexpr std::size_t kIngestShards = 16;

/// Hard cap on the shard count, matching the wire codec's sanity cap —
/// a checkpoint claiming more shards than this is rejected as corrupt.
inline constexpr std::size_t kMaxIngestShards = 4096;

/// Knobs for the parallel ingestion engine.
struct IngestOptions {
  /// Worker threads for decode, per-shard cleaning, and the partitioned
  /// merge. 0 means "use std::thread::hardware_concurrency()"; 1 runs
  /// everything inline (no queue, no threads).
  unsigned num_threads = 1;
  /// Raw records per framed batch: the decode work unit. Smaller chunks
  /// balance better, larger chunks amortize dispatch.
  std::size_t chunk_records = 4096;
  /// Depth of the bounded frame→decode queue, in chunks. Bounds the raw
  /// bytes in flight (framers block when decode falls behind). 0 means
  /// "auto": 2× the worker count, at least 4.
  std::size_t queue_chunks = 0;
  /// Optional §4 cleaning, applied per shard before the merge. Null skips
  /// cleaning entirely.
  const CleaningOptions* cleaning = nullptr;
  /// Raw MRT records per streaming window (chunk-granular: a window closes
  /// at the first chunk boundary at or past the budget). 0 makes the
  /// window unbounded: the whole remaining input is one window — the
  /// batch mode. Every window runs the same frame → decode → shard-clean
  /// → merge pipeline; a bounded window frames sequentially (a window is
  /// by definition a prefix of the arrival order) while decode, cleaning,
  /// and the merge stay parallel, and with a pool window N+1 is framed
  /// and decoded while window N cleans and merges. A finish() with no
  /// poll() before it and an unbounded window on a pool frames up to
  /// min(#files, num_threads, 4) archive files concurrently instead, and
  /// without a sink merges that one window straight into the stream. The
  /// output is byte-identical for every window size; only peak memory
  /// changes: O(window + shards) with spilling, O(archive) without.
  std::size_t window_records = 0;
  /// When non-empty, completed window runs spill to temp files under this
  /// directory (created if missing) instead of accumulating in memory —
  /// the archives-larger-than-RAM configuration. Ignored in batch mode
  /// (window_records == 0), which never materializes runs.
  std::string spill_dir;
  /// SessionKey-hash shard count. 0 (default) resolves to kIngestShards,
  /// doubled until it is at least the resolved thread count (capped at
  /// kMaxIngestShards); an explicit value is used as-is. The resolved
  /// count is recorded in checkpoints and adopted on restore, so a
  /// cursor written on a many-core host resumes anywhere. Output never
  /// depends on it.
  std::size_t shards = 0;
  /// Optional per-shard observer: the inline-analytics hook
  /// (analytics/driver.h installs one via AnalysisDriver::attach). Called
  /// once per non-empty shard per window, after cleaning, with the
  /// shard's records sorted in final merge order — i.e. exactly this
  /// shard's subsequence of the output stream. Calls for different
  /// shards may run concurrently on the worker pool (each shard index is
  /// driven by one thread at a time); calls for the same shard across
  /// successive windows are sequenced by the window barrier. Restricted
  /// to any one session, the observed order equals the final stream
  /// order; across sessions, windowed runs interleave shards in window
  /// order rather than global time order — so observers must not depend
  /// on cross-session ordering (the analytics::Pass contract).
  std::function<void(std::size_t shard, const std::vector<SeqRecord>&)>
      shard_observer;
  /// Optional committed-window barrier, paired with shard_observer
  /// (analytics::AnalysisDriver::attach wires both). window_begin is
  /// invoked on the engine's polling thread immediately before a
  /// window's shard-clean + observer phase (a batch run with input counts
  /// as one window); window_commit when that phase ends — RAII-bracketed, so a
  /// throwing window still commits. Everything between the two calls is
  /// a half-applied window: an external thread that waits out the
  /// bracket (e.g. by locking the same mutex) observes only fully
  /// committed windows — and never the pipelined N+1 prefetch, which
  /// only frames and decodes and thus fires no observers.
  std::function<void()> window_begin;
  /// See window_begin.
  std::function<void()> window_commit;
};

/// The shard count an engine built from `options` will use: an explicit
/// IngestOptions::shards verbatim (ConfigError above kMaxIngestShards),
/// else kIngestShards doubled until it covers the resolved thread count.
/// Exposed so inline analytics can size shard state identically.
[[nodiscard]] std::size_t resolve_shard_count(const IngestOptions& options);

/// Observability counters for one ingestion run. The counting fields
/// (files, chunks, raw_records, update_messages, records) are
/// deterministic — identical across thread counts and queue depths for
/// the same input; `threads` and `shards` record the resolved
/// configuration.
struct IngestStats {
  /// Archive files / sources ingested. Zero-initialized like every
  /// other counter: every engine path sets it from its real source
  /// count (a default-constructed stats block reports no files, not a
  /// phantom one).
  std::size_t files = 0;
  std::size_t chunks = 0;         ///< framed batches
  std::size_t raw_records = 0;    ///< MRT records / recorded messages seen
  std::size_t update_messages = 0;///< BGP UPDATEs decoded
  std::size_t records = 0;        ///< exploded per-prefix records (pre-clean)
  std::size_t shards = 0;         ///< SessionKey-hash shards used
  unsigned threads = 0;           ///< resolved worker count
  /// Windows that framed at least one raw record: 1 for a batch run over
  /// a non-empty input, 0 over an empty one, as poll() counts them. Like
  /// `threads`/`shards` this reflects the engine configuration, not the
  /// input, and is excluded from the deterministic-output contract.
  std::size_t windows = 0;
  /// The counters a checkpoint carries (core/codec.h write_value):
  /// `shards` and `threads` are configuration, re-resolved on restore.
  static auto fields(auto& self) {
    return std::tie(self.files, self.chunks, self.raw_records,
                    self.update_messages, self.records, self.windows);
  }
};

struct IngestResult {
  UpdateStream stream;
  CleaningReport cleaning;
  IngestStats stats;
};

/// A position in the arrival order: the next source to open and, while
/// a source is open mid-file, which one and how many of its chunks are
/// consumed. Chunking is deterministic, so this locates the next record
/// exactly.
struct FramingCursor {
  std::uint64_t next_source = 0;
  bool input_open = false;
  std::uint32_t current_file = 0;  ///< the open source, when input_open
  std::uint32_t chunk_index = 0;   ///< its chunks already consumed
  /// The wire form (core/codec.h write_value): every member, in order.
  static auto fields(auto& self) {
    return std::tie(self.next_source, self.input_open, self.current_file,
                    self.chunk_index);
  }
};

/// A resumable snapshot of a windowed StreamingIngestor, taken between
/// windows (see StreamingIngestor::checkpoint_state). Plain data: its
/// block layout (kIngestCursor) lives in analytics/serialize.h, which
/// encodes the values inside it with the core/codec.h value codecs.
///
/// The snapshot captures the framing cursor (which source, how many
/// chunks consumed), the per-shard §4 cleaning carry, and the cumulative
/// counters — everything needed to re-frame the SAME deterministic
/// chunk/record sequence from the first unconsumed chunk onward.
/// Completed window runs (RunStore) are deliberately NOT part of the
/// snapshot: they live in spill files owned by the original process, so
/// a resumed run's finish() stream contains only post-restore windows.
/// Analysis reports stay exact because pass states checkpoint separately
/// (AnalysisDriver::checkpoint) and cover every pre-checkpoint record.
struct IngestCheckpoint {
  /// IngestOptions::chunk_records of the checkpointed run. Chunking
  /// defines the window boundaries and arrival sequence, so resuming
  /// with a different value would change the replayed suffix; restore
  /// validates it.
  std::size_t chunk_records = 0;
  /// Collector name of each registered source, in add order. Restore
  /// validates count and names so the cursor indexes the same inputs.
  std::vector<std::string> collectors;
  /// Where the first unprocessed window starts.
  FramingCursor cursor;
  /// Per-shard cleaning carry, one entry per shard of the checkpointed
  /// run: its size IS the run's resolved shard count. Serialized since
  /// format v2 so a cursor written on a host that auto-resolved more
  /// shards (num_threads = 0 on a many-core machine) restores exactly on
  /// any other host: restore_checkpoint ADOPTS this count instead of
  /// re-resolving it locally.
  std::vector<cleaning::SecondCarry> carry;
  CleaningReport cleaning;
  IngestStats stats;
};

/// The streaming windowed ingestion engine. Usage:
///
///   StreamingIngestor ingestor(options);          // begin
///   ingestor.add_file("rrc00", "updates.gz");     //   (inputs, in order)
///   while (ingestor.poll()) { /* progress, stats() */ }   // optional
///   IngestResult r = ingestor.finish();           // drain + run-merge
///
/// poll() processes exactly one window; finish() drains whatever remains
/// and merges every run into the final globally ordered stream, so
/// `finish()` alone (no poll loop) is equivalent. The callback-sink
/// overload emits records in final order without materializing the
/// stream. The batch entry points below are thin wrappers over this
/// class: finish() alone, so with window_records == 0 the whole input is
/// one window.
///
/// Inputs are framed in add order; compressed (.gz/.bz2) files and
/// streams are detected by magic bytes and inflated transparently.
/// Windowed cleaning carries per-session second-granularity state across
/// window cuts, which reproduces batch output exactly whenever each
/// session's second-granularity timestamps are non-decreasing in arrival
/// order — the shape chronological collector archives guarantee.
class StreamingIngestor {
 public:
  explicit StreamingIngestor(const IngestOptions& options = {});
  ~StreamingIngestor();
  StreamingIngestor(const StreamingIngestor&) = delete;
  StreamingIngestor& operator=(const StreamingIngestor&) = delete;

  /// Registers a caller-owned archive stream (must outlive the ingestor).
  /// Throws ConfigError on a null-ish use or more than 2^16 sources.
  void add_stream(const std::string& collector, std::istream& in);
  /// Registers an archive file. Files are opened lazily as framing
  /// reaches them, so a directory of thousands of dumps holds O(1)
  /// descriptors open — except in a batch finish() (window_records == 0,
  /// no poll()) on a pool, which opens every source up front because its
  /// framers walk files concurrently.
  void add_file(const std::string& collector, const std::string& path);

  /// Processes the next window (frame → decode → shard-clean → sorted
  /// run). Returns false when the input is exhausted. Throws DecodeError
  /// on corrupt input, also from worker threads; after a throw the
  /// ingestor is poisoned (records of the aborted window are already
  /// consumed), so further poll()/finish() calls raise ConfigError
  /// instead of returning a silently incomplete result.
  bool poll();

  /// Drains remaining windows and merges all runs into the final stream.
  /// Call at most once; the ingestor is spent afterwards.
  [[nodiscard]] IngestResult finish();
  /// Same, but emits each record (in final order) to `sink` instead of
  /// materializing the stream — the returned result's stream is empty.
  [[nodiscard]] IngestResult finish(
      const std::function<void(UpdateRecord&&)>& sink);

  /// Progress so far: counters cover every window processed to date.
  [[nodiscard]] const IngestStats& stats() const;

  /// Snapshots the windowed framing cursor, cleaning carry, and counters
  /// between windows — call after poll() returns, never concurrently
  /// with it. Safe while a pipelined prefetch of the next window is in
  /// flight: the snapshot reads the cursor committed by the last
  /// PROCESSED window (a resumed run simply re-frames the prefetched
  /// window). Throws ConfigError once the ingestor is finished or
  /// poisoned (there is nothing left to resume). See IngestCheckpoint
  /// for what is (and is not) captured.
  [[nodiscard]] IngestCheckpoint checkpoint_state() const;

  /// Rewinds a FRESH ingestor (sources registered, nothing polled) to a
  /// checkpoint: validates that chunk_records and the registered
  /// collector names match the snapshot (ConfigError otherwise), ADOPTS
  /// the snapshot's shard count (so a cursor written under a different
  /// auto-resolved count restores exactly), restores
  /// carry/cleaning/stats, and relocates the framing cursor by
  /// re-opening the partially consumed source and discarding the
  /// already-processed chunks (deterministic chunking makes the skip
  /// exact). Throws DecodeError when the source is shorter than the
  /// checkpoint claims. Subsequent poll()/finish() continue from the
  /// first unconsumed chunk.
  void restore_checkpoint(const IngestCheckpoint& state);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Ingests an MRT file (BGP4MP message records). `collector` names the
/// archive's origin for the session keys. Gzip/bzip2 archives are
/// detected and inflated transparently. Throws DecodeError on corrupt
/// input — also from framer and decode worker threads.
[[nodiscard]] IngestResult ingest_mrt_file(const std::string& collector,
                                           const std::string& path,
                                           const IngestOptions& options = {});

/// Same, over an already-open binary stream (e.g. an in-memory archive).
[[nodiscard]] IngestResult ingest_mrt_stream(const std::string& collector,
                                             std::istream& in,
                                             const IngestOptions& options = {});

/// One archive stream of a multi-source ingestion run: the collector the
/// session keys are attributed to, plus a caller-owned binary stream.
struct MrtSource {
  std::string collector;
  std::istream* in = nullptr;
};

/// Ingests many archive streams into ONE shard set: sources are framed
/// concurrently (bounded fan-out), per-source arrival-sequence bases keep
/// the global order deterministic — records interleave exactly as if the
/// sources had been concatenated in the given order — and cross-file
/// session state is cleaned once. The workhorse behind ingest_mrt_files;
/// exposed for in-memory archives (tests, benchmarks, network buffers).
[[nodiscard]] IngestResult ingest_mrt_sources(
    const std::vector<MrtSource>& sources, const IngestOptions& options = {});

/// Ingests a whole archive directory: collector → its MRT files, in
/// chronological (i.e. given) order per collector. Collectors are
/// processed in map order, so the logical record sequence — and with it
/// the output — is deterministic.
[[nodiscard]] IngestResult ingest_mrt_files(
    const std::map<std::string, std::vector<std::string>>& archives,
    const IngestOptions& options = {});

/// Convenience: one collector, many files.
[[nodiscard]] IngestResult ingest_mrt_files(
    const std::string& collector, const std::vector<std::string>& paths,
    const IngestOptions& options = {});

}  // namespace bgpcc::core
