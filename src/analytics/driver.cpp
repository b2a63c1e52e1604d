#include "analytics/driver.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "analytics/serialize.h"
#include "core/codec.h"
#include "netbase/error.h"
#include "obs/pipeline_metrics.h"

namespace bgpcc::analytics {

const detail::AnyState& ReportSnapshot::state_at(std::size_t index,
                                                 const void* owner) const {
  if (data_ == nullptr) {
    throw ConfigError(
        "ReportSnapshot: report() on an empty snapshot — take one with "
        "AnalysisDriver::snapshot()");
  }
  if (owner != data_->owner || index >= data_->states.size()) {
    throw ConfigError(
        "ReportSnapshot: report() with a handle the snapshotted driver "
        "did not issue");
  }
  return *data_->states[index];
}

AnalysisDriver::AnalysisDriver() = default;
AnalysisDriver::~AnalysisDriver() = default;

void AnalysisDriver::throw_finalized(const char* call) const {
  throw ConfigError(std::string("AnalysisDriver: ") + call +
                    " after finalization (report()/save_state()) — the "
                    "per-shard states are already merged; build a fresh "
                    "driver for a new run");
}

void AnalysisDriver::ensure_can_add() const {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("add()");
  if (!shards_.empty()) {
    throw ConfigError(
        "AnalysisDriver: add() after observation started — register every "
        "pass before attach()/observe()");
  }
}

void AnalysisDriver::ensure_states() {
  if (!shards_.empty()) return;
  shards_.resize(shard_slots_);
  for (Shard& shard : shards_) {
    if (classify_) shard.table.emplace();
    shard.states.reserve(passes_.size());
    for (const auto& pass : passes_) {
      shard.states.push_back(pass->make_state());
    }
  }
}

void AnalysisDriver::observe_record(Shard& shard,
                                    const core::UpdateRecord& record) {
  const core::StreamEvent event =
      shard.table ? shard.table->advance(record) : core::StreamEvent{};
  for (const auto& state : shard.states) state->observe(record, event);
}

void AnalysisDriver::attach(core::IngestOptions& options) {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("attach()");
  // The per-shard state matrix must match the engine's shard layout, or
  // observe_shard would index out of range (or worse, silently fold two
  // engine shards into one slot and break session-order fidelity).
  const std::size_t resolved = core::resolve_shard_count(options);
  if (!shards_.empty() && shards_.size() != resolved) {
    throw ConfigError(
        "AnalysisDriver: attach() resolves to " + std::to_string(resolved) +
        " shards but this driver already holds " +
        std::to_string(shards_.size()) +
        " shard states — use matching IngestOptions across runs");
  }
  shard_slots_ = resolved;
  ensure_states();
  options.shard_observer = [this](std::size_t shard,
                                  const std::vector<core::SeqRecord>&
                                      records) {
    observe_shard(shard, records);
  };
  // The committed-window barrier: the engine holds the driver's window
  // mutex for the whole observer phase of each window, so snapshot()
  // from another thread lands exactly on a window boundary.
  options.window_begin = [this] { window_mutex_.lock(); };
  options.window_commit = [this] { window_mutex_.unlock(); };
}

void AnalysisDriver::observe(const core::UpdateRecord& record) {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("observe()");
  ensure_states();
  observe_record(shards_[0], record);
}

void AnalysisDriver::observe_stream(const core::UpdateStream& stream) {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("observe_stream()");
  ensure_states();
  for (const core::UpdateRecord& record : stream.records()) {
    observe_record(shards_[0], record);
  }
}

void AnalysisDriver::observe_shard(
    std::size_t shard, const std::vector<core::SeqRecord>& records) {
  // Called on the engine's worker threads: one thread per shard index at
  // a time (core::IngestOptions::shard_observer contract), so the
  // per-shard states need no locking — and no lock is taken here: the
  // engine's poll thread holds window_mutex_ for the whole observer
  // phase (the window_begin/window_commit bracket installed by
  // attach()), which is what serializes these writes against
  // snapshot()'s clones. ensure_states() already ran on the caller's
  // thread in attach(), before any worker existed.
  if (finalized_) {
    // A still-attached IngestOptions reused after report(): the engine's
    // error collector carries this to the ingest caller as the real
    // contract violation, not a cryptic out-of-range.
    // bgpcc-lint: allow(H1, cold misuse-only path - never hit in steady state)
    throw ConfigError(
        "AnalysisDriver: ingestion observed through attached options "
        "after report() — attach a fresh driver per run");
  }
  obs::pipeline_metrics().analysis_observe_records->inc(records.size());
  Shard& slot = shards_.at(shard);
  for (const core::SeqRecord& sr : records) observe_record(slot, sr.record);
}

ReportSnapshot AnalysisDriver::snapshot() {
  const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
  obs::StageTimer snapshot_timer(metrics.analysis_snapshot);
  metrics.analysis_snapshots->inc();
  // Phase 1, under the committed-window barrier: clone every per-shard
  // state and ledger. Clones are cheap deep copies (the Pass snapshot
  // contract), so the lock is held O(state size) — ingestion stalls at
  // the next window boundary at most that long. The stream cursors are
  // not cloned: no report reads them.
  std::vector<std::vector<std::unique_ptr<detail::AnyState>>> clones;
  std::vector<core::SessionLedger> ledgers;
  std::uint64_t epoch = 0;
  {
    obs::StageTimer clone_timer(metrics.analysis_snapshot_clone);
    std::lock_guard<std::mutex> lock(window_mutex_);
    if (finalized_) throw_finalized("snapshot()");
    ensure_states();  // snapshot before any observation: empty states
    epoch = ++epochs_;
    clones.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      std::vector<std::unique_ptr<detail::AnyState>> copies;
      copies.reserve(shard.states.size());
      for (const auto& state : shard.states) copies.push_back(state->clone());
      clones.push_back(std::move(copies));
      if (shard.table) ledgers.push_back(shard.table->ledger());
    }
  }
  metrics.analysis_epoch->set(static_cast<std::int64_t>(epoch));
  // Phase 2, outside the lock: merge the clones in shard order 0..N-1 —
  // the exact grouping the legacy finalize used, so a snapshot is
  // byte-identical to the report() of a run truncated here.
  auto data = std::make_shared<ReportSnapshot::Data>();
  data->owner = this;
  data->epoch = epoch;
  data->states = std::move(clones.front());
  {
    obs::StageTimer merge_timer(metrics.analysis_snapshot_merge);
    for (core::SessionLedger& ledger : ledgers) {
      core::merge_sum(data->ledger, std::move(ledger));
    }
    std::vector<obs::Histogram*> pass_hist;
    if (obs::enabled()) {
      pass_hist.reserve(passes_.size());
      for (std::size_t p = 0; p < passes_.size(); ++p) {
        pass_hist.push_back(&obs::pass_merge_histogram(p));
      }
    }
    for (std::size_t s = 1; s < clones.size(); ++s) {
      for (std::size_t p = 0; p < passes_.size(); ++p) {
        obs::StageTimer pass_timer(pass_hist.empty() ? nullptr : pass_hist[p]);
        data->states[p]->merge(std::move(*clones[s][p]));
      }
    }
  }
  return ReportSnapshot(std::move(data));
}

void AnalysisDriver::finalize() {
  if (finalized_) return;
  // report() IS a snapshot whose result is adopted as the final state —
  // merge grouping and order are identical, so output bytes are too.
  ReportSnapshot last = snapshot();
  std::lock_guard<std::mutex> lock(window_mutex_);
  final_ = std::move(last);
  shards_.clear();
  finalized_ = true;
}

void AnalysisDriver::finalize_for(std::size_t index, const void* owner) {
  if (owner != this || index >= passes_.size()) {
    throw ConfigError(
        "AnalysisDriver: report() with a handle this driver did not issue");
  }
  finalize();
}

// ---------------------------------------------------------------------------
// Wire codec plumbing. Each state travels as a length-prefixed blob: the
// writer patches the length in once the state is encoded; the reader
// decodes it through a sub-reader of exactly the declared bytes and
// requires all of them consumed, so a codec/layout mismatch surfaces as
// DecodeError at the offending pass instead of reading into the next.

namespace {

/// Hands `w`'s bytes (one section) to `out` and empties `w` for the next.
/// Throws DecodeError when the stream fails (disk full, broken pipe), so
/// a silently truncated checkpoint can never be mistaken for a good one.
void flush_to(std::ostream& out, ByteWriter& w) {
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  if (!out) {
    throw DecodeError("state serialization: write failed (stream error)");
  }
  w.clear();
}

/// Throws DecodeError unless `r` is exhausted: a state file ends with
/// its block.
void expect_end(const ByteReader& r) {
  if (!r.empty()) {
    throw DecodeError("bgpcc state file: " + std::to_string(r.remaining()) +
                      " bytes after the end of its block");
  }
}

void write_state_blob(ByteWriter& w, const detail::AnyState& state) {
  const std::size_t at = w.placeholder<std::uint64_t>();
  state.save(w);
  w.patch(at, static_cast<std::uint64_t>(w.size() - at - 8));
}

/// Reads a ledger section. A driver writes one exactly when it has
/// stream tables, which its pass-tag list decides.
core::SessionLedger read_ledger(ByteReader& r) {
  core::SessionLedger ledger;
  core::codec::read_value(r, ledger);
  return ledger;
}

void read_state_blob(ByteReader& r, detail::AnyState& state) {
  const std::uint64_t declared = r.u64();
  ByteReader blob = r.sub(declared);
  state.load(blob);
  if (!blob.empty()) {
    throw DecodeError("state blob declared " + std::to_string(declared) +
                      " bytes but decoding consumed " +
                      std::to_string(declared - blob.remaining()) +
                      " — mismatched pass configuration or corrupt file");
  }
}

}  // namespace

void AnalysisDriver::write_tags(ByteWriter& w) const {
  if (passes_.size() > 0xFFFF) {
    throw ConfigError("AnalysisDriver: more than 65535 passes");
  }
  w.u16(static_cast<std::uint16_t>(passes_.size()));
  for (const auto& pass : passes_) w.u16(pass->state_tag());
}

void AnalysisDriver::check_tags(ByteReader& r) const {
  std::uint16_t count = r.u16();
  if (count != passes_.size()) {
    throw ConfigError(
        "AnalysisDriver: state file holds " + std::to_string(count) +
        " passes, this driver registered " + std::to_string(passes_.size()) +
        " — register the same passes in the same order");
  }
  for (std::size_t p = 0; p < passes_.size(); ++p) {
    std::uint16_t tag = r.u16();
    std::uint16_t expected = passes_[p]->state_tag();
    if (tag != expected) {
      throw ConfigError("AnalysisDriver: state file pass " +
                        std::to_string(p) + " has wire tag " +
                        std::to_string(tag) + ", this driver expects tag " +
                        std::to_string(expected) +
                        " — register the same passes in the same order");
    }
  }
}

void AnalysisDriver::save_state(std::ostream& out) {
  finalize();
  ByteWriter w;
  serialize::write_block_header(w, serialize::BlockKind::kPartialState);
  write_tags(w);
  flush_to(out, w);
  if (classify_) core::codec::write_value(w, final_.data_->ledger);
  for (const auto& state : final_.data_->states) write_state_blob(w, *state);
  flush_to(out, w);
  out.flush();
  if (!out) throw DecodeError("save_state: output stream failed on flush");
}

void AnalysisDriver::load_state(std::istream& in) {
  obs::StageTimer merge_timer(obs::pipeline_metrics().analysis_merge);
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("load_state()");
  ensure_states();
  const std::vector<std::uint8_t> bytes = serialize::drain(in);
  ByteReader r(bytes);
  serialize::BlockKind kind = serialize::read_block_header(r);
  if (kind == serialize::BlockKind::kIngestCursor) {
    throw DecodeError(
        "load_state: file is a bare ingest cursor, not a pass-state file");
  }
  check_tags(r);
  // Folds one saved ledger and state list into shard slot 0.
  auto fold = [&] {
    if (shards_[0].table) shards_[0].table->absorb(read_ledger(r));
    for (std::size_t p = 0; p < passes_.size(); ++p) {
      std::unique_ptr<detail::AnyState> fresh = passes_[p]->make_state();
      read_state_blob(r, *fresh);
      shards_[0].states[p]->merge(std::move(*fresh));
    }
  };
  if (kind == serialize::BlockKind::kPartialState) {
    fold();
  } else {
    // kCheckpoint: fold every shard slot into slot 0 and drop the stream
    // cursors. Valid for combining disjoint runs; resuming needs
    // restore() (shard fidelity).
    bool has_cursor = false;
    core::codec::read_value(r, has_cursor);
    if (has_cursor) {
      (void)serialize::read_ingest_checkpoint(r);  // cursor: skip
    }
    std::uint16_t shard_count = r.u16();
    for (std::uint16_t s = 0; s < shard_count; ++s) {
      (void)serialize::read_stream_table(r);
      fold();
    }
  }
  expect_end(r);
}

void AnalysisDriver::checkpoint(std::ostream& out) {
  checkpoint_impl(out, nullptr);
}

void AnalysisDriver::checkpoint(std::ostream& out,
                                const core::StreamingIngestor& ingestor) {
  checkpoint_impl(out, &ingestor);
}

void AnalysisDriver::checkpoint_impl(std::ostream& out,
                                     const core::StreamingIngestor* ingestor) {
  obs::StageTimer checkpoint_timer(
      obs::pipeline_metrics().analysis_checkpoint);
  // Checkpoints are taken between poll() calls (the StreamingIngestor
  // contract), but a snapshot thread may be live concurrently — holding
  // the barrier serializes against it. Note snapshot() never mutates
  // the shard slots and the epoch counter is never serialized, so a
  // checkpoint taken after any number of snapshots is byte-identical to
  // one taken on a never-snapshotted run (pinned by snapshot_report_test).
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("checkpoint()");
  ensure_states();
  // One section at a time (header, then each shard slot) through one
  // reused buffer: no buffer holds the whole checkpoint.
  ByteWriter w;
  serialize::write_block_header(w, serialize::BlockKind::kCheckpoint);
  write_tags(w);
  core::codec::write_value(w, ingestor != nullptr);
  if (ingestor != nullptr) {
    serialize::write_ingest_checkpoint(w, ingestor->checkpoint_state());
  }
  w.u16(static_cast<std::uint16_t>(shards_.size()));
  flush_to(out, w);
  const core::Classifier::StreamStates no_table;
  for (const Shard& shard : shards_) {
    serialize::write_stream_table(
        w, shard.table ? shard.table->stream_states() : no_table);
    if (shard.table) core::codec::write_value(w, shard.table->ledger());
    for (const auto& state : shard.states) write_state_blob(w, *state);
    flush_to(out, w);
  }
  out.flush();
  if (!out) throw DecodeError("checkpoint: output stream failed on flush");
}

void AnalysisDriver::restore(std::istream& in) { restore_impl(in, nullptr); }

void AnalysisDriver::restore(std::istream& in,
                             core::StreamingIngestor& ingestor) {
  restore_impl(in, &ingestor);
}

void AnalysisDriver::restore_impl(std::istream& in,
                                  core::StreamingIngestor* ingestor) {
  obs::StageTimer restore_timer(obs::pipeline_metrics().analysis_restore);
  // attach() may legitimately have minted the (empty) shard states
  // already — restore after attach is the documented resume order, since
  // the ingestor needs the observer installed at construction. load()
  // replaces each state's evidence wholesale, so only finalization is
  // irrecoverable here; anything observed before restore is discarded.
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("restore()");
  const std::vector<std::uint8_t> bytes = serialize::drain(in);
  ByteReader r(bytes);
  serialize::read_block_header(r, serialize::BlockKind::kCheckpoint);
  check_tags(r);
  bool has_cursor = false;
  core::codec::read_value(r, has_cursor);
  if (ingestor != nullptr && !has_cursor) {
    throw ConfigError(
        "AnalysisDriver: checkpoint carries no ingest cursor (it was "
        "taken without an ingestor) — restore(istream&) the states alone");
  }
  std::size_t cursor_shards = 0;
  if (has_cursor) {
    core::IngestCheckpoint cursor = serialize::read_ingest_checkpoint(r);
    cursor_shards = cursor.carry.size();
    if (ingestor != nullptr) {
      ingestor->restore_checkpoint(cursor);
    }
    // Without an ingestor the cursor is decoded and dropped: the states
    // alone still restore (merge/report of what was observed so far).
  }
  std::uint16_t shard_count = r.u16();
  if (shard_count == 0 || shard_count > core::kMaxIngestShards) {
    throw ConfigError(
        "AnalysisDriver: checkpoint has " + std::to_string(shard_count) +
        " shard slots — out of range, the file is corrupt or foreign");
  }
  if (cursor_shards != 0 && cursor_shards != shard_count) {
    throw ConfigError(
        "AnalysisDriver: checkpoint cursor resolved " +
        std::to_string(cursor_shards) + " shards but carries " +
        std::to_string(shard_count) +
        " state slots — the file is corrupt");
  }
  // Adopt the checkpoint's shard layout wholesale: restore() replaces
  // every state's evidence anyway, so re-minting at the saved size keeps
  // resume byte-identical even across hosts whose num_threads = 0
  // resolved to different shard counts.
  if (!shards_.empty() && shards_.size() != shard_count) shards_.clear();
  shard_slots_ = shard_count;
  ensure_states();
  for (Shard& shard : shards_) {
    auto streams = serialize::read_stream_table(r);
    if (shard.table) {
      shard.table->restore(std::move(streams), read_ledger(r));
    } else if (!streams.empty()) {
      throw DecodeError("restore: a stream table no registered pass reads");
    }
    for (auto& state : shard.states) read_state_blob(r, *state);
  }
  expect_end(r);
}

}  // namespace bgpcc::analytics
