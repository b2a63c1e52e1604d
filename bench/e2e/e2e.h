// bgpcc-e2e: the end-to-end benchmark program. Shared declarations of its
// four parts — corpus generation (corpus.cpp), the nine-pass report set
// and its canonical digests (reports.cpp), the five timed workloads
// (workloads.cpp) and the traced per-layer kernels (trace.cpp). The
// orchestrator run_e2e.py calls the subcommands in main.cpp; see
// README.md for the workload and metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/registry.h"
#include "core/stream.h"

namespace bgpcc::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Digests and JSON output.

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a 64 over `bytes`, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t hash = kFnvOffset);

/// "%016llx" rendering of a digest (JSON numbers cannot hold 64 bits).
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Minimal streaming JSON writer: commas and string escaping are handled,
/// nesting is the caller's job.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  /// Splices an already-rendered JSON value verbatim.
  JsonWriter& raw(std::string_view json);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void separate();
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Corpora.

/// Generator parameters of one cached corpus directory.
struct CorpusSpec {
  /// "day" (one archive per collector), "packed" (the same day with
  /// multi-prefix UPDATEs) or "live" (rotated 12-minute dumps).
  std::string kind;
  std::uint64_t seed = 20200315;
  /// synth::MacroParams volume scale (announcements / full-scale day).
  double volume = 1.0 / 10000;
  double population = 1.0 / 64;
};

/// Writes (or validates the cache of) the corpus `spec` into `dir`:
/// gzip MRT archives, registry.txt, truth.json and manifest.json. Returns
/// true when the cached copy matched its manifest and was kept.
bool generate_corpus(const CorpusSpec& spec, const std::filesystem::path& dir);

/// A generated corpus as the workloads see it.
struct Corpus {
  /// Collector → archive paths in rotation order (one path for day and
  /// packed corpora, one per 12-minute slice for live ones).
  std::map<std::string, std::vector<std::string>> files;
  std::string registry_path;

  /// Number of rotations (files per collector).
  [[nodiscard]] std::size_t rotations() const;
};

/// Lists the archives of a generated corpus directory.
[[nodiscard]] Corpus load_corpus(const std::filesystem::path& dir);

/// Parses registry.txt ("asn <n>" / "prefix <cidr>" lines, all allocated
/// from the epoch) into a §4 cleaning registry.
[[nodiscard]] core::Registry load_registry(const std::string& path);

// ---------------------------------------------------------------------------
// The nine passes and their reports.

/// Number of shipped passes, and their names in registration order
/// (registration order is also the wire-tag order).
inline constexpr std::size_t kPassCount = 9;
extern const char* const kPassNames[kPassCount];

/// Handles for all nine shipped passes.
struct Handles {
  analytics::PassHandle<analytics::ClassifierPass> types;
  analytics::PassHandle<analytics::PerSessionTypesPass> sessions;
  analytics::PassHandle<analytics::TomographyPass> tomography;
  analytics::PassHandle<analytics::CommunityStatsPass> communities;
  analytics::PassHandle<analytics::DuplicateBurstPass> duplicates;
  analytics::PassHandle<analytics::AnomalyPass> anomalies;
  analytics::PassHandle<analytics::RevealedPass> revealed;
  analytics::PassHandle<analytics::ExplorationPass> exploration;
  analytics::PassHandle<analytics::UsageClassificationPass> usage;
};

/// Registers the nine passes, configured as the workloads run them.
[[nodiscard]] Handles add_passes(analytics::AnalysisDriver& driver);

/// Registers pass `index` alone (same configuration as add_passes).
void add_pass(analytics::AnalysisDriver& driver, std::size_t index);

/// All nine projections.
struct Reports {
  analytics::ClassifierPass::Report types;
  analytics::PerSessionTypesPass::Report sessions;
  analytics::TomographyPass::Report tomography;
  analytics::CommunityStatsPass::Report communities;
  analytics::DuplicateBurstPass::Report duplicates;
  core::AnomalyReport anomalies;
  core::RevealedStats revealed;
  analytics::ExplorationPass::Report exploration;
  analytics::UsageClassificationPass::Report usage;
};

[[nodiscard]] Reports collect(const analytics::ReportSnapshot& snapshot,
                              const Handles& handles);
[[nodiscard]] Reports collect_final(analytics::AnalysisDriver& driver,
                                    const Handles& handles);

/// FNV-1a digest of the canonical text of all nine reports: every
/// field, list sections in sorted line order, doubles printed exactly.
[[nodiscard]] std::uint64_t report_digest(const Reports& reports);

/// FNV-1a digest over every field of every record, in stream order.
class StreamHasher {
 public:
  void add(const core::UpdateRecord& record);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

/// Writes the CommunityStatsPass counters that truth.json pins, and the
/// Table 2 type counts.
void write_counters(JsonWriter& json, const Reports& reports);

// ---------------------------------------------------------------------------
// Spans (trace.cpp).

/// One timed region: name, start/end relative to the tracer's origin,
/// the enclosing span (-1 for a root) and a work count.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t count = 0;
};

/// In-memory span log, written out once at exit. Single-threaded.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Records a finished span; returns its id (usable as a parent).
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::uint64_t count = 0);

  /// RAII span: times its own lifetime.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_count(std::uint64_t count) { count_ = count; }
    /// Reserved id of this span (valid as a parent before it ends).
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
    Clock::time_point start_;
    std::uint64_t count_ = 0;
  };

  void write(JsonWriter& json) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp).

/// One benchmark workload: how it drives the engine (run_e2e.py picks its
/// corpus).
struct WorkloadSpec {
  const char* name;
  /// Worker threads: 0 = min(4, hardware threads).
  unsigned threads;
  /// Nine passes inline (else: the batch API, materialized stream).
  bool passes;
  /// Closed-loop epochs over rotated dumps.
  bool live;
};

/// Looks one of the five workloads up by name (ConfigError when unknown).
[[nodiscard]] const WorkloadSpec& find_workload(std::string_view name);

/// Resolved thread count of a workload on this host.
[[nodiscard]] unsigned workload_threads(const WorkloadSpec& spec);

/// Raw MRT records per streaming window in every windowed workload.
inline constexpr std::size_t kWindowRecords = 16384;

/// What one workload iteration measured and produced.
struct Iteration {
  double setup_s = 0;
  double wall_s = 0;
  double report_s = 0;
  /// Latency of each epoch — each commit of new results: a window's
  /// poll() on the windowed day workloads, the whole batch on day_stream,
  /// a round (add_file → checkpoint written) on live_epochs.
  std::vector<double> epoch_ms;
  std::size_t raw_records = 0;
  std::size_t records = 0;
  /// Report digest (pass workloads) or ordered-stream digest (day_stream).
  std::uint64_t digest = 0;
  /// Rendered write_counters() object (pass workloads only).
  std::string counters_json;
};

/// Where an iteration may write and what it records.
struct RunEnv {
  std::string spill_dir;
  /// When non-null, the iteration's phases and live rounds become spans.
  Tracer* tracer = nullptr;
  int parent_span = -1;
};

/// Runs one iteration of `spec` over `corpus`.
[[nodiscard]] Iteration run_iteration(const WorkloadSpec& spec,
                                      const Corpus& corpus, const RunEnv& env);

/// Mean time of `count` back-to-back set-ups of the workload (everything
/// before its first ingest call), in seconds.
[[nodiscard]] double setup_batch(const WorkloadSpec& spec, const Corpus& corpus,
                                 const std::string& spill_dir, int count);

/// Serializes an iteration for the orchestrator.
void write_iteration(JsonWriter& json, const Iteration& it);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Bytes this process has written so far (/proc/self/io wchar; 0 when
/// unavailable).
[[nodiscard]] std::uint64_t written_bytes();

// ---------------------------------------------------------------------------
// Subcommands (main.cpp dispatches).

/// `reference`: the one-thread batch reference digests of a corpus.
void write_reference(const std::filesystem::path& dir);

/// `trace`: untraced baseline, one traced iteration with obs enabled and
/// the per-layer kernels; raw results as one JSON object.
[[nodiscard]] std::string run_trace(const WorkloadSpec& spec,
                                    const Corpus& corpus,
                                    const std::string& spill_dir,
                                    int untraced_iterations);

}  // namespace bgpcc::e2e
