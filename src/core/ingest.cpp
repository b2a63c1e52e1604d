#include "core/ingest.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/codec.h"
#include "core/worker_pool.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "netbase/bytes.h"
#include "netbase/error.h"
#include "obs/pipeline_metrics.h"

namespace bgpcc::core {
namespace {

// Arrival sequence packing: (file 16 bits | chunk 24 bits | record 24
// bits). Lexicographic order of the packed value equals the logical
// arrival order of the concatenated sources, which is all the engine
// needs: seq values never appear in the output, only their relative
// order does. The guards below make overflow a loud DecodeError instead
// of a silent ordering corruption. Windows are prefixes of the
// (file, chunk) sequence, so seq ranges of successive windows never
// interleave — the property the final run-merge leans on.
constexpr unsigned kFileSeqShift = 48;
constexpr unsigned kChunkSeqShift = 24;
constexpr std::uint64_t kMaxFilesPerRun = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxChunksPerFile = std::uint64_t{1}
                                            << (kFileSeqShift - kChunkSeqShift);
constexpr std::uint64_t kMaxRecordsPerChunk = std::uint64_t{1}
                                              << kChunkSeqShift;

constexpr std::uint64_t seq_base(std::uint32_t file, std::uint32_t chunk) {
  return (static_cast<std::uint64_t>(file) << kFileSeqShift) |
         (static_cast<std::uint64_t>(chunk) << kChunkSeqShift);
}

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t resolve_chunk_records(const IngestOptions& options) {
  return options.chunk_records == 0 ? 1 : options.chunk_records;
}

std::size_t resolve_queue_capacity(const IngestOptions& options,
                                   unsigned threads) {
  return options.queue_chunks != 0 ? options.queue_chunks
                                   : std::max<std::size_t>(4, 2 * threads);
}

// Runs body(0..jobs-1) on the persistent pool (workers and caller pull
// job indices from a shared counter; the first exception is rethrown on
// the caller, and unclaimed jobs are never started once one throws).
// Inline when there is no pool or only one job.
void run_parallel(WorkerPool* pool, std::size_t jobs,
                  const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || jobs <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) body(i);
    return;
  }
  pool->parallel_for(jobs, body);
}

/// One framed batch in flight between the framer stage and the decode
/// pool, tagged with its deterministic arrival coordinate.
struct FramedChunk {
  std::uint32_t file = 0;
  std::uint32_t chunk = 0;
  std::vector<mrt::Record> records;
};

/// The framing step both framers share: reads `reader`'s next chunk under
/// the frame stage timer and stamps it with its (file, chunk) arrival
/// coordinate, advancing `chunk_index`. Nullopt at the end of the source.
std::optional<FramedChunk> frame_chunk(mrt::ChunkedReader& reader,
                                       std::uint32_t file,
                                       std::uint32_t& chunk_index) {
  std::optional<std::vector<mrt::Record>> records;
  {
    obs::StageTimer frame_timer(obs::pipeline_metrics().ingest_frame);
    records = reader.next_chunk();
  }
  if (!records) return std::nullopt;
  if (chunk_index >= kMaxChunksPerFile) {
    throw DecodeError(
        "arrival-sequence overflow: one archive frames past 2^24 chunks "
        "(raise IngestOptions::chunk_records)");
  }
  return FramedChunk{file, chunk_index++, std::move(*records)};
}

/// One decoded batch: records bucketed by SessionKey-hash shard, plus the
/// batch's share of the deterministic counters and its arrival coordinate
/// (the pipelined pool finishes chunks in any order; the gather stage
/// re-establishes (file, chunk) order before touching shard state).
struct DecodedChunk {
  DecodedChunk() = default;
  explicit DecodedChunk(std::size_t shard_count) : shards(shard_count) {}

  std::uint32_t file = 0;
  std::uint32_t chunk = 0;
  std::vector<std::vector<SeqRecord>> shards;
  std::size_t update_messages = 0;
  std::size_t records = 0;
};

void bucket_records(std::vector<UpdateRecord>& scratch, std::uint64_t base,
                    std::uint64_t& local, DecodedChunk& out) {
  const std::size_t shard_count = out.shards.size();
  for (UpdateRecord& record : scratch) {
    if (local >= kMaxRecordsPerChunk) {
      throw DecodeError(
          "arrival-sequence overflow: one chunk explodes past 2^24 records "
          "(lower IngestOptions::chunk_records)");
    }
    std::size_t shard = record.session.hash() % shard_count;
    out.shards[shard].push_back(SeqRecord{base + local++, std::move(record)});
    ++out.records;
  }
  scratch.clear();
}

bool is_bgp4mp_message(const mrt::Record& record) {
  return record.is_bgp4mp() &&
         (record.subtype ==
              static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessage) ||
          record.subtype ==
              static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessageAs4));
}

DecodedChunk decode_mrt_chunk(const std::string& collector,
                              FramedChunk&& framed,
                              std::size_t shard_count) {
  const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
  obs::StageTimer decode_timer(metrics.ingest_decode);
  metrics.ingest_chunks->inc();
  metrics.ingest_raw_records->inc(framed.records.size());
  DecodedChunk out(shard_count);
  out.file = framed.file;
  out.chunk = framed.chunk;
  std::uint64_t base = seq_base(framed.file, framed.chunk);
  std::uint64_t local = 0;
  std::vector<UpdateRecord> scratch;
  for (const mrt::Record& record : framed.records) {
    if (!is_bgp4mp_message(record)) continue;
    bool four_byte = true;
    mrt::Bgp4mpMessage message = mrt::Reader::parse_message(record, &four_byte);
    if (peek_type(message.bgp_message) != MessageType::kUpdate) {
      continue;
    }
    CodecOptions codec;
    codec.four_byte_asn = four_byte;
    UpdateMessage update = decode_update(message.bgp_message, codec);
    ++out.update_messages;
    append_update_records(collector, message.peer_asn, message.peer_ip,
                          record.timestamp, update, scratch);
    bucket_records(scratch, base, local, out);
  }
  // Raw bodies are dead weight once decoded; drop them with the chunk so
  // peak memory is decoded-records + the bounded queue, not
  // decoded-records + the whole raw archive.
  framed.records.clear();
  framed.records.shrink_to_fit();
  metrics.ingest_update_messages->inc(out.update_messages);
  metrics.ingest_records->inc(out.records);
  return out;
}

// Merges one output partition: a k-way tournament (winner tree, runs
// padded to a power of two) over the per-shard ranges [lo, hi), moving
// each record straight into its final slot. seq_time_order is a strict
// total order (seq is globally unique), so the merge — and every
// partitioning of it — is deterministic. Out is UpdateRecord for a window
// merged straight into the stream (seq tags are spent) or SeqRecord for
// window runs (the final run-merge still needs the tie-break).
template <typename Out>
void merge_partition(std::vector<std::vector<SeqRecord>>& shards,
                     const std::vector<std::size_t>& lo,
                     const std::vector<std::size_t>& hi, Out* out) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t k = shards.size();
  struct Run {
    SeqRecord* cur;
    SeqRecord* end;
  };
  std::vector<Run> runs(k);
  for (std::size_t s = 0; s < k; ++s) {
    runs[s] = Run{shards[s].data() + lo[s], shards[s].data() + hi[s]};
  }
  std::size_t m = 1;
  while (m < k) m <<= 1;
  // node[i] (1 <= i < m): run winning the subtree; leaves m..2m-1 map to
  // runs, npos marks an exhausted (or padding) run.
  std::vector<std::size_t> node(m, npos);
  auto leaf_run = [&](std::size_t leaf) {
    std::size_t r = leaf - m;
    return (r < k && runs[r].cur != runs[r].end) ? r : npos;
  };
  auto play = [&](std::size_t a, std::size_t b) {
    if (a == npos) return b;
    if (b == npos) return a;
    return seq_time_order(*runs[a].cur, *runs[b].cur) ? a : b;
  };
  auto child_winner = [&](std::size_t child) {
    return child >= m ? leaf_run(child) : node[child];
  };
  for (std::size_t i = m - 1; i >= 1; --i) {
    node[i] = play(child_winner(2 * i), child_winner(2 * i + 1));
  }
  for (;;) {
    std::size_t w = m == 1 ? leaf_run(m) : node[1];
    if (w == npos) break;
    if constexpr (std::is_same_v<Out, SeqRecord>) {
      *out++ = std::move(*runs[w].cur);
    } else {
      *out++ = std::move(runs[w].cur->record);
    }
    ++runs[w].cur;
    for (std::size_t i = (m + w) / 2; i >= 1; i /= 2) {
      node[i] = play(child_winner(2 * i), child_winner(2 * i + 1));
    }
  }
}

// Don't split the merge finer than this: below it, partitioning overhead
// beats the parallelism it buys.
constexpr std::size_t kMinRecordsPerMergePartition = 1024;

// The parallel k-way merge. Requires each shard run already sorted by
// the merge order (gather_and_clean guarantees it — sorting lives there
// so the inline-analytics observer and the merge share ONE sort instead
// of each paying their own); cuts the output into `threads` balanced
// partitions with splitters drawn from the largest run, then
// tournament-merges every partition concurrently into its preallocated
// output slice.
template <typename Out>
void parallel_merge(std::vector<std::vector<SeqRecord>>& shards,
                    WorkerPool* pool, unsigned threads, std::vector<Out>& out) {
  obs::StageTimer merge_timer(obs::pipeline_metrics().ingest_merge);

  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  out.resize(total);
  if (total == 0) return;

  const std::size_t k = shards.size();
  std::size_t partitions =
      threads <= 1
          ? 1
          : std::min<std::size_t>(
                threads,
                std::max<std::size_t>(1,
                                      total / kMinRecordsPerMergePartition));

  std::size_t largest = 0;
  for (std::size_t s = 1; s < k; ++s) {
    if (shards[s].size() > shards[largest].size()) largest = s;
  }

  // cuts[p][s]: first index of run s belonging to partition >= p. The
  // splitter for partition p is the (p/P)-quantile of the largest run;
  // lower_bound against a strict total order makes the cuts disjoint,
  // covering, and monotone.
  std::vector<std::vector<std::size_t>> cuts(
      partitions + 1, std::vector<std::size_t>(k, 0));
  for (std::size_t s = 0; s < k; ++s) cuts[partitions][s] = shards[s].size();
  for (std::size_t p = 1; p < partitions; ++p) {
    const SeqRecord& splitter =
        shards[largest][p * shards[largest].size() / partitions];
    for (std::size_t s = 0; s < k; ++s) {
      cuts[p][s] = static_cast<std::size_t>(
          std::lower_bound(shards[s].begin(), shards[s].end(), splitter,
                           seq_time_order) -
          shards[s].begin());
    }
  }

  std::vector<std::size_t> offsets(partitions + 1, 0);
  for (std::size_t p = 0; p < partitions; ++p) {
    std::size_t size = 0;
    for (std::size_t s = 0; s < k; ++s) size += cuts[p + 1][s] - cuts[p][s];
    offsets[p + 1] = offsets[p] + size;
  }

  run_parallel(pool, partitions, [&](std::size_t p) {
    merge_partition(shards, cuts[p], cuts[p + 1], out.data() + offsets[p]);
  });
}

// Phase 3 over decoded chunks: gather each shard in (file, chunk) order —
// within a shard that equals arrival-sequence order, so cross-file (and
// cross-window, via `carry`) session state sees one continuous session
// history — then clean per shard. `decoded` must already be sorted by
// (file, chunk). Each shard is touched by exactly one job, so the carry
// maps need no locking. On return every shard is sorted in final merge
// order — the precondition of parallel_merge and the order the inline
// shard observer sees (each shard's exact subsequence of the output).
void gather_and_clean(std::vector<DecodedChunk>& decoded,
                      const IngestOptions& options, WorkerPool* pool,
                      std::size_t shard_count,
                      std::vector<cleaning::SecondCarry>& carry,
                      std::vector<std::vector<SeqRecord>>& shards,
                      CleaningReport& report) {
  shards.assign(shard_count, {});
  std::vector<CleaningReport> reports(shard_count);
  // Committed-window barrier (IngestOptions::window_begin): held across
  // the whole shard-clean + observer phase, RAII so a throwing shard job
  // still commits.
  struct WindowBracket {
    const IngestOptions& opt;
    explicit WindowBracket(const IngestOptions& o) : opt(o) {
      if (opt.window_begin) opt.window_begin();
    }
    ~WindowBracket() {
      if (opt.window_commit) opt.window_commit();
    }
  } bracket(options);
  const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
  run_parallel(pool, shard_count, [&](std::size_t s) {
    {
      obs::StageTimer clean_timer(metrics.ingest_clean);
      std::size_t total = 0;
      for (const DecodedChunk& chunk : decoded) {
        total += chunk.shards[s].size();
      }
      shards[s].reserve(total);
      for (DecodedChunk& chunk : decoded) {
        std::vector<SeqRecord>& bucket = chunk.shards[s];
        std::move(bucket.begin(), bucket.end(), std::back_inserter(shards[s]));
        bucket.clear();
      }
      // Repair and drop are order-independent, and cleaning::run sorts
      // around the sub-second spacing itself, so the gathered (file,
      // chunk) order goes in as is. Final merge order — which both the
      // observer and parallel_merge consume — then needs a sort only when
      // run did not leave one: no cleaning, or no spacing.
      bool sorted = false;
      if (options.cleaning != nullptr) {
        reports[s] = cleaning::run(shards[s], *options.cleaning, &carry[s]);
        sorted = options.cleaning->fix_second_granularity;
      }
      if (!sorted) sort_seq_records(shards[s]);
    }
    if (options.shard_observer && !shards[s].empty()) {
      obs::StageTimer observe_timer(metrics.ingest_observe);
      options.shard_observer(s, shards[s]);
    }
  });
  static_assert(std::size(kCleaningCounters) ==
                obs::PipelineMetrics::kCleaningFields);
  for (std::size_t f = 0; f < std::size(kCleaningCounters); ++f) {
    std::size_t window = 0;
    for (const CleaningReport& r : reports) window += r.*kCleaningCounters[f];
    report.*kCleaningCounters[f] += window;
    metrics.cleaning_records[f]->inc(window);
  }
}

void sort_decoded(std::vector<DecodedChunk>& decoded) {
  std::sort(decoded.begin(), decoded.end(),
            [](const DecodedChunk& a, const DecodedChunk& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.chunk < b.chunk;
            });
}

// ---------------------------------------------------------------------------
// Spilled runs: one u32 length-prefixed buffer per SeqRecord, encoded with
// the shared value codec (core/codec.h); end of file is end of run.

/// Frame cap, enforced on write and read. A record holds one collector
/// string (at most codec::kMaxStringBytes) plus the attributes of one
/// decoded UPDATE (a few KiB), far below this.
constexpr std::size_t kMaxSpillRecordBytes = std::size_t{16} << 20;

/// Iterates one ordered run, wherever it lives.
class RunCursor {
 public:
  virtual ~RunCursor() = default;
  virtual bool next(SeqRecord& out) = 0;
};

class MemoryRunCursor final : public RunCursor {
 public:
  explicit MemoryRunCursor(std::vector<SeqRecord>&& run)
      : run_(std::move(run)) {}
  bool next(SeqRecord& out) override {
    if (pos_ >= run_.size()) return false;
    out = std::move(run_[pos_++]);
    return true;
  }

 private:
  std::vector<SeqRecord> run_;
  std::size_t pos_ = 0;
};

class SpillRunCursor final : public RunCursor {
 public:
  explicit SpillRunCursor(const std::string& path)
      : in_(path, std::ios::binary) {
    if (!in_) throw DecodeError("cannot reopen spill run: " + path);
  }

  /// Reads one record frame; false at the clean end of the run. A short
  /// frame throws, and the record must decode to exactly its length.
  bool next(SeqRecord& out) override {
    if (in_.peek() == std::ifstream::traits_type::eof()) return false;
    std::uint32_t size = ByteReader(fill(4)).u32();
    if (size > kMaxSpillRecordBytes) {
      throw DecodeError("corrupt spill run: oversized record");
    }
    ByteReader r(fill(size));
    out = codec::read_seq_record(r);
    if (!r.empty()) throw DecodeError("corrupt spill run: record overrun");
    return true;
  }

 private:
  /// The next `n` bytes of the run, or DecodeError when fewer remain.
  std::span<const std::uint8_t> fill(std::size_t n) {
    frame_.resize(n);
    in_.read(reinterpret_cast<char*>(frame_.data()),
             static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n) {
      throw DecodeError("truncated spill run");
    }
    return frame_;
  }

  std::ifstream in_;
  std::vector<std::uint8_t> frame_;
};

/// Completed window runs: buffered in memory, or spilled to temp files
/// under `spill_dir` so peak memory stays O(window + shards). Spill files
/// are removed after the merge — and on destruction, for abandoned runs.
class RunStore {
 public:
  explicit RunStore(std::string spill_dir)
      : dir_(std::move(spill_dir)),
        token_(std::random_device{}()) {}
  ~RunStore() { discard(); }
  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  void add_run(std::vector<SeqRecord>&& run) {
    if (run.empty()) return;
    total_records_ += run.size();
    if (dir_.empty()) {
      memory_.push_back(std::move(run));
      return;
    }
    const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
    obs::StageTimer spill_timer(metrics.ingest_spill);
    metrics.ingest_spilled_runs->inc();
    std::filesystem::create_directories(dir_);
    // Random token + store address + index: several processes (and
    // several stores in one process) can share a spill_dir without
    // colliding, with no POSIX-only pid dependency.
    std::string path =
        (std::filesystem::path(dir_) /
         ("bgpcc-run-" + std::to_string(token_) + "-" +
          std::to_string(reinterpret_cast<std::uintptr_t>(this)) + "-" +
          std::to_string(memory_.size() + files_.size()) + ".spill"))
            .string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw DecodeError("cannot create spill run: " + path);
    try {
      ByteWriter frame;
      for (const SeqRecord& sr : run) {
        frame.clear();
        const std::size_t at = frame.placeholder<std::uint32_t>();
        codec::write_seq_record(frame, sr);
        const std::size_t size = frame.size() - at - 4;
        if (size > kMaxSpillRecordBytes) {
          throw ConfigError("record too large to spill");
        }
        frame.patch(at, static_cast<std::uint32_t>(size));
        out.write(reinterpret_cast<const char*>(frame.data().data()),
                  static_cast<std::streamsize>(frame.size()));
      }
      out.flush();
      if (!out) throw DecodeError("spill-run write failed: " + path);
    } catch (...) {
      // The file exists but is not yet registered in files_, so the
      // destructor's discard() would never see it — remove the partial
      // run here or it leaks into spill_dir forever.
      out.close();
      std::error_code ec;
      std::filesystem::remove(path, ec);
      throw;
    }
    files_.push_back(std::move(path));
  }

  [[nodiscard]] std::size_t total_records() const { return total_records_; }

  /// Streams the k-way merge of every run (by seq_time_order) into
  /// `emit`, holding one record per run in memory. Consumes the store.
  void merge(const std::function<void(UpdateRecord&&)>& emit) {
    obs::StageTimer run_merge_timer(obs::pipeline_metrics().ingest_run_merge);
    std::vector<std::unique_ptr<RunCursor>> cursors;
    cursors.reserve(memory_.size() + files_.size());
    for (std::vector<SeqRecord>& run : memory_) {
      cursors.push_back(std::make_unique<MemoryRunCursor>(std::move(run)));
    }
    for (const std::string& path : files_) {
      cursors.push_back(std::make_unique<SpillRunCursor>(path));
    }
    memory_.clear();

    struct HeapEntry {
      SeqRecord record;
      std::size_t cursor;
    };
    // Min-heap via the inverted order, a strict total order (unique
    // seq), so the merge is deterministic for any cursor order.
    auto heap_after = [](const HeapEntry& a, const HeapEntry& b) {
      return seq_time_order(b.record, a.record);
    };
    std::vector<HeapEntry> heap;
    heap.reserve(cursors.size());
    for (std::size_t c = 0; c < cursors.size(); ++c) {
      SeqRecord record;
      if (cursors[c]->next(record)) {
        heap.push_back(HeapEntry{std::move(record), c});
      }
    }
    std::make_heap(heap.begin(), heap.end(), heap_after);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_after);
      HeapEntry entry = std::move(heap.back());
      heap.pop_back();
      emit(std::move(entry.record.record));
      SeqRecord refill;
      if (cursors[entry.cursor]->next(refill)) {
        heap.push_back(HeapEntry{std::move(refill), entry.cursor});
        std::push_heap(heap.begin(), heap.end(), heap_after);
      }
    }
    discard();
  }

 private:
  void discard() {
    memory_.clear();
    for (const std::string& path : files_) {
      std::error_code ec;
      std::filesystem::remove(path, ec);  // best-effort cleanup
    }
    files_.clear();
  }

  std::string dir_;
  unsigned token_;
  std::vector<std::vector<SeqRecord>> memory_;
  std::vector<std::string> files_;
  std::size_t total_records_ = 0;
};

}  // namespace

std::size_t resolve_shard_count(const IngestOptions& options) {
  if (options.shards != 0) {
    if (options.shards > kMaxIngestShards) {
      throw ConfigError("IngestOptions::shards (" +
                        std::to_string(options.shards) + ") exceeds the cap (" +
                        std::to_string(kMaxIngestShards) + ")");
    }
    return options.shards;
  }
  // Auto: the historical 16, doubled until every resolved worker has a
  // shard to chew on. Power-of-two growth keeps small hosts exactly at
  // kIngestShards (so their checkpoints and tests are unchanged) while a
  // 64-core num_threads=0 run is no longer starved at 16. The resolved
  // value is recorded in checkpoints and ADOPTED on restore — output
  // never depends on it, but the carry's shape does.
  std::size_t shards = kIngestShards;
  const unsigned threads = resolve_threads(options.num_threads);
  while (shards < threads && shards < kMaxIngestShards) shards *= 2;
  return shards;
}

// ---------------------------------------------------------------------------
// The streaming windowed engine. poll() and finish() run every window,
// the batch run's single unbounded one included, through one
// process_window: frame → decode → shard-clean → merge. One framing
// cursor walks the sources in add order (a window is by definition a
// prefix of arrival order); decode, cleaning, and the merge run on one
// persistent WorkerPool that lives as long as the engine — reused across
// windows and across poll()/finish() calls. Bounded multi-threaded runs
// additionally pipeline: while window N runs shard-clean + merge + inline
// passes on the pool, window N+1 is framed and decoded on the same pool,
// with decode tasks in flight bounded by the queue_chunks cap. A batch
// finish() (unbounded window, no poll()) on a pool frames whole files
// concurrently instead, and without a sink merges straight into the
// stream — same output, no run to stitch.

struct StreamingIngestor::Impl {
  struct SourceEntry {
    std::string collector;
    std::istream* borrowed = nullptr;  // add_stream
    std::string path;                  // add_file (opened lazily)
    bool is_file = false;
  };

  explicit Impl(const IngestOptions& opts)
      : options(opts),
        threads(resolve_threads(opts.num_threads)),
        chunk_records(resolve_chunk_records(opts)),
        shard_count(resolve_shard_count(opts)),
        carry(shard_count),
        // Batch mode (window 0) holds the whole input in memory anyway,
        // so spilling its single run would only add a full disk
        // write+read — spill_dir is honored exactly when windows bound
        // memory, as the header documents.
        runs(opts.window_records == 0 ? std::string() : opts.spill_dir),
        // threads-1 pool workers: the calling thread participates in
        // every stage (parallel_for and wait() both help), so total
        // concurrency equals the configured thread count. threads <= 1
        // runs everything inline with no pool at all.
        pool(threads > 1 ? std::make_unique<WorkerPool>(threads - 1)
                         : nullptr) {
    stats.shards = shard_count;
    stats.threads = threads;
  }

  ~Impl() {
    // A pipelined prefetch may still be decoding; its tasks capture
    // `this`, so quiesce them before any member is torn down. Errors are
    // swallowed: nobody is left to consume this window.
    if (prefetch != nullptr && pool != nullptr) {
      try {
        pool->wait(prefetch->group);
      } catch (...) {
      }
    }
  }

  void check_can_add() const {
    if (finished) {
      throw ConfigError("StreamingIngestor: add after finish()");
    }
    if (sources.size() + 1 >= kMaxFilesPerRun) {
      throw ConfigError("StreamingIngestor: more than 2^16 archive sources");
    }
  }

  static mrt::InputStream open_source(const SourceEntry& entry) {
    return entry.is_file ? mrt::InputStream::open_file(entry.path)
                         : mrt::InputStream::wrap(*entry.borrowed);
  }

  /// Opens sources until one yields a bound reader; false when all input
  /// is consumed.
  bool ensure_reader() {
    while (!cursor.input_open) {
      if (cursor.next_source >= sources.size()) return false;
      cursor.current_file = static_cast<std::uint32_t>(cursor.next_source);
      input = open_source(sources[cursor.next_source]);
      cursor.input_open = true;
      ++cursor.next_source;
      cursor.chunk_index = 0;
      if (!reader) {
        reader.emplace(input->stream(), chunk_records);
      } else {
        reader->reset(input->stream());
      }
    }
    return true;
  }

  /// Frames up to `budget` raw records (whole chunks), feeding `sink`.
  /// Returns the number framed; 0 means the input is exhausted. A false
  /// sink return (queue abort) stops framing early.
  std::size_t frame_window(std::size_t budget,
                           const std::function<bool(FramedChunk&&)>& sink) {
    std::size_t framed = 0;
    while (framed < budget && ensure_reader()) {
      std::optional<FramedChunk> chunk =
          frame_chunk(*reader, cursor.current_file, cursor.chunk_index);
      if (!chunk) {
        input.reset();  // EOF: advance to the next source
        cursor.input_open = false;
        continue;
      }
      framed += chunk->records.size();
      if (!sink(std::move(*chunk))) break;
    }
    return framed;
  }

  /// One window's frame+decode in flight on the pool: the decoded chunks
  /// as they finish (any order — sort_decoded restores the arrival
  /// order), the in-flight decode-task bound, and the end-of-framing
  /// cursor snapshot (the deterministic resume point for the NEXT
  /// window; process_window commits it when the window is consumed).
  struct WindowDecode {
    WorkerPool::Group group;
    std::mutex mutex;
    std::condition_variable slot_free;
    std::vector<DecodedChunk> decoded;
    std::size_t in_flight = 0;  // decode tasks submitted, not finished
    std::size_t framed = 0;
    FramingCursor end;
  };

  /// Blocks the framer until a decode slot frees up — by executing other
  /// queued pool tasks while it waits, so even a 1-worker pool can never
  /// deadlock on its own decode backlog. Returns early once the group
  /// has failed (the decode task's catch handler releases its slot and
  /// notifies before rethrowing, so no wakeup is ever missed).
  void wait_for_decode_slot(WindowDecode& w, std::size_t cap) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(w.mutex);
        if (w.in_flight < cap || w.group.failed()) return;
      }
      if (pool->help_one()) continue;
      // Nothing left to steal: every in-flight decode is executing on a
      // worker right now, and each completion notifies slot_free.
      std::unique_lock<std::mutex> lock(w.mutex);
      w.slot_free.wait(lock,
                       [&] { return w.in_flight < cap || w.group.failed(); });
      return;
    }
  }

  void submit_decode(WindowDecode& w, FramedChunk&& chunk) {
    const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      ++w.in_flight;
    }
    metrics.ingest_decode_in_flight->add();
    pool->submit(w.group, [this, &w, &metrics,
                           chunk = std::move(chunk)]() mutable {
      try {
        DecodedChunk out = decode_mrt_chunk(sources[chunk.file].collector,
                                            std::move(chunk), shard_count);
        {
          std::lock_guard<std::mutex> lock(w.mutex);
          w.decoded.push_back(std::move(out));
          --w.in_flight;
        }
        metrics.ingest_decode_in_flight->sub();
        w.slot_free.notify_all();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(w.mutex);
          --w.in_flight;
        }
        metrics.ingest_decode_in_flight->sub();
        w.slot_free.notify_all();
        throw;  // the pool records it and fails the group
      }
    });
  }

  /// The framer's per-chunk sink: bounded hand-off of one framed chunk
  /// to the decode pool. False (stop framing) once the window's group
  /// has failed — the replacement for the old queue abort.
  bool decode_sink(WindowDecode& w, std::size_t cap, FramedChunk&& chunk) {
    if (w.group.failed()) return false;
    wait_for_decode_slot(w, cap);
    if (w.group.failed()) return false;
    submit_decode(w, std::move(chunk));
    return true;
  }

  /// Frames one window, fanning chunks out to pool decode tasks, then
  /// snapshots the framing cursor. Runs on the caller (plain windows) or
  /// as a pool task (pipelined prefetch); either way it is the only
  /// thread touching the framing cursor until its group is waited.
  void frame_and_decode(WindowDecode& w, std::size_t budget) {
    const std::size_t cap = resolve_queue_capacity(options, threads);
    w.framed = frame_window(budget, [&](FramedChunk&& chunk) {
      return decode_sink(w, cap, std::move(chunk));
    });
    w.end = cursor;
  }

  /// Produces the next fully decoded window: the pipelined prefetch if
  /// one is in flight (waiting surfaces any error it hit), else frames
  /// and decodes one now. The returned window is quiescent — no tasks
  /// reference it.
  std::unique_ptr<WindowDecode> take_window(std::size_t budget) {
    if (prefetch != nullptr) {
      std::unique_ptr<WindowDecode> w = std::move(prefetch);
      // Overlap accounting: ~0 here means the prefetched window was
      // already done when the current one finished (perfect pipelining).
      obs::StageTimer wait_timer(obs::pipeline_metrics().ingest_prefetch_wait);
      pool->wait(w->group);
      return w;
    }
    auto w = std::make_unique<WindowDecode>();
    if (pool == nullptr) {
      w->framed = frame_window(budget, [&](FramedChunk&& chunk) {
        w->decoded.push_back(decode_mrt_chunk(sources[chunk.file].collector,
                                              std::move(chunk), shard_count));
        return true;
      });
      w->end = cursor;
      return w;
    }
    try {
      frame_and_decode(*w, budget);
    } catch (...) {
      // Decode tasks still reference *w; fail the group so they are
      // skipped, then wait() below quiesces them and rethrows the first
      // error (this one, unless a decode task beat the framer to it).
      pool->fail(w->group, std::current_exception());
    }
    pool->wait(w->group);
    return w;
  }

  /// A batch run's one unbounded window on the pool: framer tasks claim
  /// whole files and fan chunks out as decode tasks on one group, so
  /// framing I/O overlaps decode and up to min(#files, threads, 4)
  /// archives are framed at once; the caller runs one framer and helps
  /// (wait executes queued tasks) instead of spawning threads. Opens every
  /// source up front and leaves the live cursor past the last one.
  std::unique_ptr<WindowDecode> frame_files_concurrently() {
    std::vector<mrt::InputStream> inputs;
    inputs.reserve(sources.size());
    for (const SourceEntry& entry : sources) {
      inputs.push_back(open_source(entry));
    }
    auto w = std::make_unique<WindowDecode>();
    const std::size_t cap = resolve_queue_capacity(options, threads);
    const std::size_t framers =
        std::min<std::size_t>({sources.size(), threads, std::size_t{4}});
    std::atomic<std::size_t> next_file{0};
    std::atomic<std::size_t> framed{0};
    auto framer = [&] {
      std::optional<mrt::ChunkedReader> file_reader;
      for (;;) {
        std::size_t f = next_file.fetch_add(1, std::memory_order_relaxed);
        if (f >= sources.size() || w->group.failed()) return;
        if (!file_reader) {
          file_reader.emplace(inputs[f].stream(), chunk_records);
        } else {
          file_reader->reset(inputs[f].stream());
        }
        std::uint32_t file_chunk = 0;
        while (std::optional<FramedChunk> chunk = frame_chunk(
                   *file_reader, static_cast<std::uint32_t>(f), file_chunk)) {
          framed.fetch_add(chunk->records.size(), std::memory_order_relaxed);
          if (!decode_sink(*w, cap, std::move(*chunk))) return;
        }
      }
    };
    for (std::size_t t = 0; t + 1 < framers; ++t) {
      pool->submit(w->group, framer);
    }
    try {
      framer();
    } catch (...) {
      pool->fail(w->group, std::current_exception());
    }
    pool->wait(w->group);
    w->framed = framed.load();
    cursor.next_source = sources.size();
    w->end = cursor;
    return w;
  }

  /// Starts framing+decoding the next window on the pool, overlapping it
  /// with the current window's clean/merge/passes. The framer runs as
  /// one pool task and is the sole owner of the framing cursor until the
  /// group is waited (take_window / drain_prefetch / ~Impl).
  void start_prefetch(std::size_t budget) {
    prefetch = std::make_unique<WindowDecode>();
    WindowDecode& w = *prefetch;
    pool->submit(w.group,
                 [this, &w, budget] { frame_and_decode(w, budget); });
  }

  /// add_stream/add_file would reallocate `sources` under a running
  /// prefetch's feet; quiesce it first. The decoded window stays cached
  /// for the next poll — appending sources after the current cursor
  /// cannot invalidate an already-framed prefix of the arrival order.
  void drain_prefetch_for_add() {
    if (prefetch == nullptr || pool == nullptr) return;
    try {
      pool->wait(prefetch->group);
    } catch (...) {
      failed = true;  // same poisoning a failing poll() would apply
      throw;
    }
  }

  /// Processes one window end to end; false when the input is exhausted.
  /// The window's merge goes into `stream` when non-null (a finish() whose
  /// whole input is this one window), else into a run of the RunStore.
  bool process_window(std::vector<UpdateRecord>* stream = nullptr) {
    const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
    obs::StageTimer window_timer(metrics.ingest_window);
    const std::size_t budget = options.window_records == 0
                                   ? std::numeric_limits<std::size_t>::max()
                                   : options.window_records;
    // Files can be split among framers only when this window takes every
    // source from the first: unbounded, and the cursor never moved.
    const bool batch = pool != nullptr && options.window_records == 0 &&
                       !windowed && cursor.next_source == 0;
    std::unique_ptr<WindowDecode> w =
        batch ? frame_files_concurrently() : take_window(budget);
    if (w->framed == 0) return false;

    // Commit this window's end-of-framing cursor: checkpoint_state()
    // reads ONLY this value, never the live cursor — a pipelined
    // prefetch advances the live cursor concurrently, and a checkpoint
    // must resume at the first UNPROCESSED window (the prefetched window
    // is simply re-framed after a restore).
    committed = w->end;

    // Pipeline: frame+decode the NEXT window on the pool while this one
    // cleans and merges. Only when this window filled its whole budget —
    // a short window means the input is exhausted (and leaves add_*
    // between polls cheap: no prefetch to quiesce).
    if (pool != nullptr && w->framed >= budget) {
      start_prefetch(budget);
    }

    stats.raw_records += w->framed;
    stats.chunks += w->decoded.size();
    for (const DecodedChunk& chunk : w->decoded) {
      stats.update_messages += chunk.update_messages;
      stats.records += chunk.records;
    }

    sort_decoded(w->decoded);
    std::vector<std::vector<SeqRecord>> shards;
    gather_and_clean(w->decoded, options, pool.get(), shard_count, carry,
                     shards, cleaning_report);
    if (stream != nullptr) {
      parallel_merge(shards, pool.get(), threads, *stream);
    } else {
      std::vector<SeqRecord> run;
      parallel_merge(shards, pool.get(), threads, run);
      runs.add_run(std::move(run));
    }
    ++stats.windows;
    metrics.ingest_windows->inc();
    return true;
  }

  IngestResult finish(const std::function<void(UpdateRecord&&)>* sink) {
    if (failed) {
      // A thrown poll()/finish() has already consumed records whose
      // window was aborted; a result assembled now would be silently
      // incomplete. (Checked before `finished` so a failed finish()
      // reports the poisoning, not a misleading "called twice".)
      throw ConfigError(
          "StreamingIngestor: finish() after a failed poll()/finish() — "
          "the result would silently miss records");
    }
    if (finished) {
      throw ConfigError("StreamingIngestor: finish() called twice");
    }
    finished = true;
    try {
      return finish_impl(sink);
    } catch (...) {
      failed = true;
      throw;
    }
  }

  IngestResult finish_impl(const std::function<void(UpdateRecord&&)>* sink) {
    IngestResult result;
    std::vector<UpdateRecord>& out = result.stream.records();
    // An unbounded window with no run before it takes the whole remaining
    // input, so there is nothing to stitch: merge it straight into the
    // stream.
    const bool direct = sink == nullptr && options.window_records == 0 &&
                        runs.total_records() == 0;
    while (process_window(direct ? &out : nullptr)) {
    }
    if (sink != nullptr) {
      runs.merge(*sink);
    } else if (!direct) {
      out.reserve(runs.total_records());
      runs.merge([&out](UpdateRecord&& r) { out.push_back(std::move(r)); });
    }
    result.cleaning = cleaning_report;
    result.stats = stats;
    return result;
  }

  IngestOptions options;
  unsigned threads;
  std::size_t chunk_records;
  // Runtime-resolved (restore_checkpoint ADOPTS the checkpoint's count,
  // which may differ from the local auto-resolution).
  std::size_t shard_count;

  std::vector<SourceEntry> sources;

  // Live framing cursor (persists across poll() calls; a window can
  // pause mid-file). With pipelining this is owned by the prefetch
  // framer between polls — only checkpoint-committed copies below are
  // safe to read while a prefetch is in flight.
  FramingCursor cursor;
  std::optional<mrt::InputStream> input;  // engaged iff cursor.input_open
  std::optional<mrt::ChunkedReader> reader;

  // Cursor committed by the last PROCESSED window — what
  // checkpoint_state() snapshots. Equal to the live cursor whenever no
  // prefetch is pending.
  FramingCursor committed;

  std::vector<cleaning::SecondCarry> carry;  // one per shard
  CleaningReport cleaning_report;
  IngestStats stats;
  RunStore runs;
  bool windowed = false;  // poll() or restore_checkpoint() was used
  bool finished = false;
  bool failed = false;  // a poll() threw → results would be incomplete

  // The next window, framing/decoding on the pool while the current one
  // cleans and merges. Null without a pool or once the input ran dry.
  std::unique_ptr<WindowDecode> prefetch;
  // Declared last: destroyed first, after ~Impl has quiesced the
  // prefetch group, while every member its tasks referenced still lives.
  std::unique_ptr<WorkerPool> pool;
};

StreamingIngestor::StreamingIngestor(const IngestOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

StreamingIngestor::~StreamingIngestor() = default;

void StreamingIngestor::add_stream(const std::string& collector,
                                   std::istream& in) {
  impl_->check_can_add();
  impl_->drain_prefetch_for_add();
  Impl::SourceEntry entry;
  entry.collector = collector;
  entry.borrowed = &in;
  impl_->sources.push_back(std::move(entry));
  impl_->stats.files = impl_->sources.size();
}

void StreamingIngestor::add_file(const std::string& collector,
                                 const std::string& path) {
  impl_->check_can_add();
  impl_->drain_prefetch_for_add();
  Impl::SourceEntry entry;
  entry.collector = collector;
  entry.path = path;
  entry.is_file = true;
  impl_->sources.push_back(std::move(entry));
  impl_->stats.files = impl_->sources.size();
}

bool StreamingIngestor::poll() {
  if (impl_->failed) {
    throw ConfigError(
        "StreamingIngestor: poll() after a failed poll()/finish()");
  }
  if (impl_->finished) {
    throw ConfigError("StreamingIngestor: poll() after finish()");
  }
  impl_->windowed = true;
  try {
    return impl_->process_window();
  } catch (...) {
    impl_->failed = true;
    throw;
  }
}

IngestResult StreamingIngestor::finish() { return impl_->finish(nullptr); }

IngestResult StreamingIngestor::finish(
    const std::function<void(UpdateRecord&&)>& sink) {
  return impl_->finish(&sink);
}

const IngestStats& StreamingIngestor::stats() const { return impl_->stats; }

IngestCheckpoint StreamingIngestor::checkpoint_state() const {
  const Impl& impl = *impl_;
  if (impl.failed) {
    throw ConfigError(
        "StreamingIngestor: checkpoint_state() after a failed "
        "poll()/finish() — the aborted window's records are already lost");
  }
  if (impl.finished) {
    throw ConfigError(
        "StreamingIngestor: checkpoint_state() after finish() — there is "
        "nothing left to resume");
  }
  IngestCheckpoint out;
  out.chunk_records = impl.chunk_records;
  out.collectors.reserve(impl.sources.size());
  for (const Impl::SourceEntry& entry : impl.sources) {
    out.collectors.push_back(entry.collector);
  }
  // The committed cursor, NOT the live one: a pipelined prefetch owns
  // (and advances) the live cursor concurrently, and a resume must
  // replay from the first window that was never processed — which is
  // exactly the prefetched window.
  out.cursor = impl.committed;
  out.carry = impl.carry;
  out.cleaning = impl.cleaning_report;
  out.stats = impl.stats;
  return out;
}

void StreamingIngestor::restore_checkpoint(const IngestCheckpoint& state) {
  Impl& impl = *impl_;
  if (impl.finished || impl.failed || impl.windowed ||
      impl.stats.raw_records != 0 || impl.cursor.input_open) {
    throw ConfigError(
        "StreamingIngestor: restore_checkpoint() on a used ingestor — "
        "restore into a freshly constructed one, before any poll()");
  }
  if (state.chunk_records != impl.chunk_records) {
    throw ConfigError(
        "StreamingIngestor: checkpoint chunk_records (" +
        std::to_string(state.chunk_records) + ") differs from configured (" +
        std::to_string(impl.chunk_records) +
        ") — chunking defines the resume point, configure it identically");
  }
  if (state.collectors.size() != impl.sources.size()) {
    throw ConfigError(
        "StreamingIngestor: checkpoint lists " +
        std::to_string(state.collectors.size()) + " sources but " +
        std::to_string(impl.sources.size()) +
        " are registered — re-register the original inputs in order");
  }
  for (std::size_t i = 0; i < state.collectors.size(); ++i) {
    if (state.collectors[i] != impl.sources[i].collector) {
      throw ConfigError("StreamingIngestor: checkpoint source " +
                        std::to_string(i) + " is collector '" +
                        state.collectors[i] + "' but '" +
                        impl.sources[i].collector + "' is registered");
    }
  }
  // Adopt the checkpoint's shard count (its carry's size) instead of
  // re-resolving locally: num_threads=0 auto-resolution is
  // machine-dependent, and a cursor written on an 8-core host must
  // restore on a 4-core one.
  if (state.carry.empty() || state.carry.size() > kMaxIngestShards) {
    throw ConfigError("StreamingIngestor: checkpoint shard count (" +
                      std::to_string(state.carry.size()) +
                      ") is out of range");
  }
  const FramingCursor& at = state.cursor;
  if (at.next_source > impl.sources.size() ||
      (at.input_open &&
       (at.current_file >= impl.sources.size() ||
        at.next_source != at.current_file + std::uint64_t{1}))) {
    throw ConfigError(
        "StreamingIngestor: checkpoint cursor is out of range for the "
        "registered sources");
  }

  impl.shard_count = state.carry.size();
  impl.carry = state.carry;
  impl.cleaning_report = state.cleaning;
  impl.stats = state.stats;
  impl.stats.shards = impl.shard_count;
  impl.stats.threads = impl.threads;
  impl.stats.files = impl.sources.size();
  impl.committed = at;
  impl.windowed = true;  // resumed: frame from the cursor, not by file

  if (at.input_open) {
    const Impl::SourceEntry& entry = impl.sources[at.current_file];
    impl.input = Impl::open_source(entry);
    impl.reader.emplace(impl.input->stream(), impl.chunk_records);
    // Chunking is deterministic, so discarding the consumed chunks
    // relocates the framing cursor to the exact record the checkpointed
    // run would have read next.
    for (std::uint32_t c = 0; c < at.chunk_index; ++c) {
      if (!impl.reader->next_chunk()) {
        throw DecodeError(
            "restore_checkpoint: source '" + entry.collector +
            "' ends before checkpoint chunk " + std::to_string(at.chunk_index) +
            " — the input differs from the checkpointed run");
      }
    }
  }
  impl.cursor = at;
}

// ---------------------------------------------------------------------------
// Batch entry points: thin wrappers over the streaming core.

IngestResult ingest_mrt_sources(const std::vector<MrtSource>& sources,
                                const IngestOptions& options) {
  if (sources.size() >= kMaxFilesPerRun) {
    throw ConfigError("ingest_mrt_sources: more than 2^16 archive files");
  }
  for (const MrtSource& source : sources) {
    if (source.in == nullptr) {
      throw ConfigError("ingest_mrt_sources: null stream for collector " +
                        source.collector);
    }
  }
  StreamingIngestor engine(options);
  for (const MrtSource& source : sources) {
    engine.add_stream(source.collector, *source.in);
  }
  return engine.finish();
}

IngestResult ingest_mrt_stream(const std::string& collector, std::istream& in,
                               const IngestOptions& options) {
  return ingest_mrt_sources({MrtSource{collector, &in}}, options);
}

IngestResult ingest_mrt_file(const std::string& collector,
                             const std::string& path,
                             const IngestOptions& options) {
  StreamingIngestor engine(options);
  engine.add_file(collector, path);
  return engine.finish();
}

IngestResult ingest_mrt_files(
    const std::map<std::string, std::vector<std::string>>& archives,
    const IngestOptions& options) {
  StreamingIngestor engine(options);
  for (const auto& [collector, paths] : archives) {
    for (const std::string& path : paths) {
      engine.add_file(collector, path);
    }
  }
  return engine.finish();
}

IngestResult ingest_mrt_files(const std::string& collector,
                              const std::vector<std::string>& paths,
                              const IngestOptions& options) {
  return ingest_mrt_files({{collector, paths}}, options);
}

}  // namespace bgpcc::core
