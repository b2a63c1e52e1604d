// AnalysisDriver: runs any set of Passes over the cleaned update stream
// in ONE traversal, in whichever execution mode the workload wants:
//
//   (a) inline — attach(options) installs a per-shard observer into the
//       ingestion engine (core/ingest.h), so every pass observes on the
//       shard-clean worker threads, in parallel, while the stream is
//       being ingested; partial states are merged after the tournament
//       merge. Zero extra traversal, O(shard states) extra memory.
//   (b) materialized — observe_stream() walks an UpdateStream already in
//       memory (simulator output, tests); observe() feeds one record, so
//       a caller wanting final-order observation can pass
//       [&](core::UpdateRecord&& r) { driver.observe(r); } to
//       StreamingIngestor::finish().
//
// Both modes produce identical reports for every pass honoring the
// Pass contract (pass.h).
//
// Each shard slot holds one state per pass and, when a registered pass's
// State reads core::StreamEvents or the ledger (pass.h), one stream
// table: a core::Classifier. Records reach a slot record-major: the table
// classifies and tallies the record once, then every state observes it.
// Reports read the ledger, never the cursors: snapshot() merges the
// slots' ledgers beside the states, and checkpoint() also writes each
// slot's cursors. Typical use:
//
//   analytics::AnalysisDriver driver;
//   auto types = driver.add(analytics::ClassifierPass{});
//   auto comms = driver.add(analytics::CommunityStatsPass{});
//   core::IngestOptions options;
//   options.num_threads = 8;
//   options.cleaning = &cleaning;
//   driver.attach(options);                      // inline mode
//   auto result = core::ingest_mrt_files(archives, options);
//   auto shares = driver.report(types);          // merged + projected
//
// Epoch reporting: snapshot() produces the same projections WITHOUT
// finalizing — it clones every per-shard state under the
// committed-window barrier (attach() wires the engine's
// window_begin/window_commit callbacks to the driver's window mutex, so
// a snapshot never observes a half-applied window or the pipelined N+1
// prefetch) and merges the clones off to the side. Ingestion keeps
// running; each snapshot is an immutable, epoch-numbered view:
//
//   while (ingestor.poll()) {
//     analytics::ReportSnapshot snap = driver.snapshot();
//     serve(snap.epoch(), snap.report(types));   // live view
//   }
//   ingestor.finish();
//   auto final_shares = driver.report(types);    // byte-identical finale
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analytics/pass.h"
#include "core/classifier.h"
#include "core/ingest.h"

namespace bgpcc::analytics {

/// An immutable, epoch-numbered view of every pass's state at one
/// committed-window boundary, produced by AnalysisDriver::snapshot()
/// without finalizing the driver. Redeem the same PassHandles issued by
/// add(); reads are lock-free and the snapshot stays valid after
/// further ingestion, after later snapshots, after report(), and even
/// after the issuing driver is destroyed (the merged states are owned
/// by the snapshot, shared across copies).
class ReportSnapshot {
 public:
  /// An empty snapshot (no driver); report() on it throws ConfigError.
  ReportSnapshot() = default;

  /// Projects `handle`'s pass report from the snapshotted state. The
  /// handle must come from the driver that took this snapshot
  /// (ConfigError otherwise, as for AnalysisDriver::report).
  template <Pass P>
  [[nodiscard]] ReportOf<P> report(PassHandle<P> handle) const {
    const detail::AnyState& state = state_at(handle.index_, handle.owner_);
    return static_cast<const detail::StateModel<P>&>(state).report(
        data_->ledger);
  }

  /// The snapshot's epoch: 1 for the issuing driver's first snapshot,
  /// strictly increasing per driver. 0 for an empty snapshot. Epochs
  /// are process-local bookkeeping — they are never serialized and do
  /// not affect checkpoints or reports.
  [[nodiscard]] std::uint64_t epoch() const {
    return data_ != nullptr ? data_->epoch : 0;
  }

  /// Number of pass states captured (the issuing driver's size()).
  [[nodiscard]] std::size_t size() const {
    return data_ != nullptr ? data_->states.size() : 0;
  }

  /// True when this snapshot holds states (i.e. is not default-built).
  [[nodiscard]] explicit operator bool() const { return data_ != nullptr; }

 private:
  friend class AnalysisDriver;
  struct Data {
    const void* owner = nullptr;
    std::uint64_t epoch = 0;
    std::vector<std::unique_ptr<detail::AnyState>> states;
    /// The shard slots' ledgers, merged (empty without stream tables).
    core::SessionLedger ledger;
  };
  explicit ReportSnapshot(std::shared_ptr<const Data> data)
      : data_(std::move(data)) {}
  [[nodiscard]] const detail::AnyState& state_at(std::size_t index,
                                                 const void* owner) const;
  std::shared_ptr<const Data> data_;
};

/// Runs any set of Passes over the cleaned update stream in one
/// traversal — inline on the shard workers or over a materialized stream
/// (see the header comment for the full mode semantics and a usage
/// sketch).
class AnalysisDriver {
 public:
  /// An empty driver: add() passes, then pick an execution mode.
  AnalysisDriver();
  ~AnalysisDriver();
  /// Not copyable: shard states reference the issuing driver.
  AnalysisDriver(const AnalysisDriver&) = delete;
  /// Not copy-assignable (same reason).
  AnalysisDriver& operator=(const AnalysisDriver&) = delete;

  /// Registers a pass. Call before any observation (attach/observe*);
  /// throws ConfigError afterwards.
  template <Pass P>
  [[nodiscard]] PassHandle<P> add(P pass) {
    ensure_can_add();
    if constexpr (ObservesStreamEvents<typename P::State> ||
                  ReadsLedger<typename P::State>) {
      classify_ = true;
    }
    passes_.push_back(
        std::make_unique<detail::PassModel<P>>(std::move(pass)));
    return PassHandle<P>{passes_.size() - 1, this};
  }

  /// Number of registered passes.
  [[nodiscard]] std::size_t size() const { return passes_.size(); }

  /// Inline mode: installs this driver's per-shard observer into
  /// `options` (see core::IngestOptions::shard_observer) and sizes the
  /// shard states to `options`' resolved shard count
  /// (core::resolve_shard_count). Also wires the engine's
  /// committed-window barrier (core::IngestOptions::window_begin /
  /// window_commit) to this driver, so snapshot() from any thread
  /// serializes against in-flight window observation. The driver must
  /// outlive every ingestion run using `options`. May be combined with
  /// further ingestion runs — states accumulate until report() — but
  /// every run must resolve to the same shard count (ConfigError
  /// otherwise).
  void attach(core::IngestOptions& options);

  /// Observes one record (single-threaded feed). Do not combine with
  /// attach() on the same ingestion run — the passes would observe every
  /// record twice.
  void observe(const core::UpdateRecord& record);

  /// Observes a whole materialized stream (simulator output, tests).
  void observe_stream(const core::UpdateStream& stream);

  /// Takes an immutable, epoch-numbered snapshot of every pass's state
  /// WITHOUT finalizing: clones all per-shard states under the
  /// committed-window barrier, then merges the clones off to the side
  /// (the driver's own states are never touched beyond the copy).
  /// Ingestion may continue afterwards; the snapshot equals what
  /// report() would return on an independent run truncated at the same
  /// committed window, byte for byte. Safe to call from a thread other
  /// than the ingesting one when the driver is attach()ed — the barrier
  /// guarantees the snapshot lands exactly on a window boundary, never
  /// inside a half-applied window or the pipelined N+1 prefetch.
  /// Throws ConfigError once finalized.
  [[nodiscard]] ReportSnapshot snapshot();

  /// Merges all partial states and projects the pass's report. The first
  /// report() call finalizes the driver — internally a snapshot() whose
  /// result is adopted as the final state, so report-after-snapshots is
  /// byte-identical to report-without-snapshots. Further observation
  /// throws ConfigError (the merged states can no longer absorb
  /// records); reports stay redeemable any number of times.
  template <Pass P>
  [[nodiscard]] ReportOf<P> report(PassHandle<P> handle) {
    finalize_for(handle.index_, handle.owner_);
    return final_.report(handle);
  }

  // -- Versioned wire codec (analytics/serialize.h) ----------------------
  //
  // Every registered pass must model SerializablePass (all shipped passes
  // do); a non-serializable pass throws ConfigError from any of these.
  // Configuration is never serialized: the reading driver must register
  // the SAME passes, identically configured, in the SAME order — the
  // codec verifies the pass-tag list and throws ConfigError on mismatch.

  /// Finalizes this driver (merges all shard states, like the first
  /// report() call) and writes the merged ledger and states as one
  /// kPartialState block: the `bgpcc-merge` input for split-by-collector
  /// runs. Reports stay redeemable afterwards; further observation
  /// throws ConfigError.
  void save_state(std::ostream& out);

  /// Reads a kPartialState (or kCheckpoint) block and MERGES its ledger
  /// and states into this driver, as if this driver had observed those
  /// records. That holds for DISJOINT runs only (no session continues
  /// across the boundary): checkpoint shard slots are folded into shard
  /// slot 0, and a checkpoint's stream cursors are decoded and discarded,
  /// so a stream observed again afterwards would count as a new first
  /// sighting. Resuming an interrupted run needs restore(), which keeps
  /// shard fidelity and the tables. Callable any number of times before
  /// report().
  void load_state(std::istream& in);

  /// Writes a kCheckpoint block: every shard slot's stream table (cursors
  /// and ledger) and states, shard-faithful, so a restore()d driver
  /// continues per-session streams in the shard slots that own them. The driver
  /// keeps running — checkpointing is a snapshot, not a finalization.
  /// Throws ConfigError once finalized.
  void checkpoint(std::ostream& out);

  /// Same, additionally embedding `ingestor`'s resumable cursor
  /// (core::StreamingIngestor::checkpoint_state) so the paired restore()
  /// re-positions ingestion at the exact window boundary.
  void checkpoint(std::ostream& out, const core::StreamingIngestor& ingestor);

  /// Restores a checkpoint into this driver: every shard's stream table
  /// and state evidence are REPLACED by the saved snapshot (anything
  /// observed before the call is discarded — restore first, then
  /// ingest). The same passes must be registered; attach() may already
  /// have run (the resume order is attach → construct ingestor →
  /// restore). Throws ConfigError once finalized. On decode failure the
  /// driver is left unspecified — build a new one.
  void restore(std::istream& in);

  /// Same, additionally restoring the embedded ingest cursor into
  /// `ingestor` (which must be fresh and configured identically — see
  /// core::StreamingIngestor::restore_checkpoint). ConfigError when the
  /// checkpoint carries no cursor.
  void restore(std::istream& in, core::StreamingIngestor& ingestor);

 private:
  /// A shard slot: the stream table (when a pass reads events) + states.
  struct Shard {
    std::optional<core::Classifier> table;
    std::vector<std::unique_ptr<detail::AnyState>> states;
  };

  void ensure_can_add() const;
  /// Mints the shard slots if absent. Caller must hold
  /// window_mutex_ (or be in the single-threaded registration phase) and
  /// must have rejected the finalized case already.
  void ensure_states();
  /// Classifies `record` once, then feeds it to every state of the slot.
  static void observe_record(Shard& shard, const core::UpdateRecord& record);
  void observe_shard(std::size_t shard,
                     const std::vector<core::SeqRecord>& records);
  /// Uniform use-after-finalize error, naming the offending call.
  [[noreturn]] void throw_finalized(const char* call) const;
  /// Adopts a final snapshot and clears the live states (idempotent).
  void finalize();
  /// Finalizes for a report() through the handle (`index`, `owner`),
  /// refusing a handle this driver did not issue before finalizing.
  void finalize_for(std::size_t index, const void* owner);
  void write_tags(ByteWriter& w) const;
  void check_tags(ByteReader& r) const;
  void checkpoint_impl(std::ostream& out,
                       const core::StreamingIngestor* ingestor);
  void restore_impl(std::istream& in, core::StreamingIngestor* ingestor);

  std::vector<std::unique_ptr<detail::AnyPass>> passes_;
  /// Set by add() when a State reads StreamEvents or the ledger: slots
  /// get tables, and state files carry ledger sections.
  bool classify_ = false;
  /// How many shard slots ensure_states() mints: attach() pins it to the
  /// ingestion run's resolved shard count, restore_impl() to the
  /// checkpoint's. Defaults to core::kIngestShards for the observe
  /// mode, which only ever touches slot 0.
  std::size_t shard_slots_ = core::kIngestShards;
  /// shards_[shard]; slot 0 doubles as the observe slot (any partition
  /// of the observations merges to the same final state — the Pass
  /// contract).
  std::vector<Shard> shards_;
  /// The committed-window barrier: held by the engine for the whole
  /// observer phase of each window (attach() wires window_begin /
  /// window_commit to lock/unlock), by snapshot() while cloning, and by
  /// the observe paths while folding records in. Everything the
  /// barrier guards is the shard slots + the lifecycle flags.
  mutable std::mutex window_mutex_;
  /// Epochs handed out by snapshot(); process-local, never serialized.
  std::uint64_t epochs_ = 0;
  /// The finalizing snapshot adopted by the first report()/save_state().
  ReportSnapshot final_;
  bool finalized_ = false;
};

}  // namespace bgpcc::analytics
