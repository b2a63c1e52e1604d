// The five timed workloads. Each iteration builds its whole
// configuration (registry, analysis driver, ingestor) anew — the set-up —
// then ingests the corpus and produces the workload's result: nine
// reports, the materialized ordered stream, or a closed loop of live
// epochs.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/ingest.h"
#include "e2e.h"
#include "netbase/error.h"

namespace bgpcc::e2e {

namespace {

const WorkloadSpec kWorkloads[] = {
    {"day_report", 0, true, false},
    {"day_report_1t", 1, true, false},
    {"day_stream", 0, false, false},
    {"day_packed", 0, true, false},
    {"live_epochs", 0, true, true},
};

}  // namespace

const WorkloadSpec& find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  throw ConfigError("unknown workload: " + std::string(name));
}

unsigned workload_threads(const WorkloadSpec& spec) {
  if (spec.threads != 0) return spec.threads;
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

namespace {

/// The live loop's input: per round, the (collector, archive) pairs added.
using Rounds = std::vector<std::vector<std::pair<std::string, std::string>>>;

/// Rotated dumps: round r adds every collector's r-th file.
Rounds rounds_of(const Corpus& corpus) {
  Rounds rounds(corpus.rotations());
  for (const auto& [collector, paths] : corpus.files) {
    for (std::size_t r = 0; r < paths.size(); ++r) {
      rounds[r].emplace_back(collector, paths[r]);
    }
  }
  return rounds;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Everything an iteration builds before its first ingest call: the
/// measured set-up. Not movable — the cleaning options point into the
/// registry and the ingestor holds the driver's observer.
struct Setup {
  Setup(const WorkloadSpec& spec, const Corpus& corpus, unsigned threads,
        const std::string& spill_dir)
      : registry(load_registry(corpus.registry_path)) {
    cleaning.registry = &registry;
    options.num_threads = threads;
    options.cleaning = &cleaning;
    if (!spec.passes) return;  // the batch API builds its own engine
    driver.emplace();
    handles = add_passes(*driver);
    options.window_records = kWindowRecords;
    options.spill_dir = spill_dir;
    driver->attach(options);
    ingestor.emplace(options);
    if (spec.live) return;  // the live loop adds its dumps round by round
    for (const auto& [collector, paths] : corpus.files) {
      for (const std::string& path : paths) ingestor->add_file(collector, path);
    }
  }
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  core::Registry registry;
  core::CleaningOptions cleaning;
  core::IngestOptions options;
  std::optional<analytics::AnalysisDriver> driver;
  Handles handles;
  std::optional<core::StreamingIngestor> ingestor;
};

/// Records set-up / ingest / result-tail spans of one iteration.
void trace_phases(const RunEnv& env, Clock::time_point t0, Clock::time_point t1,
                  Clock::time_point t2, Clock::time_point t3,
                  std::size_t records) {
  if (env.tracer == nullptr) return;
  env.tracer->add("workload.setup", t0, t1, env.parent_span);
  env.tracer->add("workload.ingest", t1, t2, env.parent_span, records);
  env.tracer->add("workload.report", t2, t3, env.parent_span);
}

/// Fills the result fields shared by every pass workload.
void finish_reports(Iteration& it, const Reports& reports,
                    const core::IngestResult& result) {
  it.digest = report_digest(reports);
  JsonWriter counters;
  write_counters(counters, reports);
  it.counters_json = counters.str();
  it.raw_records = result.stats.raw_records;
  it.records = result.stats.records;
}

/// day_report, day_report_1t, day_packed: windowed spilling ingest with
/// all nine passes inline and a discarding sink. day_stream: the batch
/// API with cleaning only, the materialized stream digested.
Iteration run_day(const WorkloadSpec& spec, const Corpus& corpus,
                  const RunEnv& env) {
  Iteration it;
  const Clock::time_point t0 = Clock::now();
  Setup setup(spec, corpus, workload_threads(spec), env.spill_dir);
  const Clock::time_point t1 = Clock::now();
  Clock::time_point t2;
  Clock::time_point t3;
  if (!spec.passes) {
    core::IngestResult result =
        core::ingest_mrt_files(corpus.files, setup.options);
    t2 = Clock::now();
    StreamHasher hasher;
    for (const core::UpdateRecord& record : result.stream.records()) {
      hasher.add(record);
    }
    t3 = Clock::now();
    it.epoch_ms.push_back(ms_between(t1, t3));  // one window: the batch
    it.digest = hasher.value();
    it.raw_records = result.stats.raw_records;
    it.records = result.stats.records;
  } else {
    for (Clock::time_point begin = t1;;) {
      bool more = setup.ingestor->poll();
      const Clock::time_point end = Clock::now();
      if (!more) break;
      it.epoch_ms.push_back(ms_between(begin, end));
      if (env.tracer != nullptr) {
        env.tracer->add("workload.window", begin, end, env.parent_span);
      }
      begin = end;
    }
    core::IngestResult result =
        setup.ingestor->finish([](core::UpdateRecord&&) {});
    t2 = Clock::now();
    Reports reports = collect_final(*setup.driver, setup.handles);
    t3 = Clock::now();
    finish_reports(it, reports, result);
  }
  it.setup_s = seconds_between(t0, t1);
  it.wall_s = seconds_between(t1, t3);
  it.report_s = seconds_between(t2, t3);
  trace_phases(env, t0, t1, t2, t3, it.records);
  return it;
}

/// live_epochs: the closed loop over rotated dumps — each round adds one
/// dump per collector, drains, snapshots, projects and checkpoints.
Iteration run_live(const WorkloadSpec& spec, const Corpus& corpus,
                   const RunEnv& env) {
  Iteration it;
  const Rounds rounds = rounds_of(corpus);
  const Clock::time_point t0 = Clock::now();
  Setup setup(spec, corpus, workload_threads(spec), env.spill_dir);
  const Clock::time_point t1 = Clock::now();
  analytics::AnalysisDriver& driver = *setup.driver;
  core::StreamingIngestor& ingestor = *setup.ingestor;

  it.epoch_ms.reserve(rounds.size());
  for (const auto& round : rounds) {
    const Clock::time_point a = Clock::now();
    for (const auto& [collector, path] : round) {
      ingestor.add_file(collector, path);
    }
    const Clock::time_point b = Clock::now();
    while (ingestor.poll()) {
    }
    const Clock::time_point c = Clock::now();
    analytics::ReportSnapshot snapshot = driver.snapshot();
    const Clock::time_point d = Clock::now();
    Reports epoch = collect(snapshot, setup.handles);
    const Clock::time_point e = Clock::now();
    std::ostringstream checkpoint;
    driver.checkpoint(checkpoint, ingestor);
    const Clock::time_point f = Clock::now();
    it.epoch_ms.push_back(ms_between(a, f));
    if (env.tracer != nullptr) {
      Tracer& tracer = *env.tracer;
      int span = tracer.add("live.round", a, f, env.parent_span);
      tracer.add("live.add_file", a, b, span, round.size());
      tracer.add("live.poll", b, c, span);
      tracer.add("live.snapshot", c, d, span);
      tracer.add("live.render", d, e, span);
      tracer.add("live.checkpoint", e, f, span,
                 static_cast<std::uint64_t>(checkpoint.tellp()));
    }
  }

  const Clock::time_point t2a = Clock::now();
  core::IngestResult result = ingestor.finish([](core::UpdateRecord&&) {});
  const Clock::time_point t2 = Clock::now();
  Reports reports = collect_final(driver, setup.handles);
  const Clock::time_point t3 = Clock::now();
  if (env.tracer != nullptr) {
    env.tracer->add("live.finish", t2a, t2, env.parent_span,
                    result.stats.records);
  }
  finish_reports(it, reports, result);
  it.setup_s = seconds_between(t0, t1);
  it.wall_s = seconds_between(t1, t3);
  it.report_s = seconds_between(t2, t3);
  trace_phases(env, t0, t1, t2, t3, it.records);
  return it;
}

}  // namespace

Iteration run_iteration(const WorkloadSpec& spec, const Corpus& corpus,
                        const RunEnv& env) {
  return spec.live ? run_live(spec, corpus, env) : run_day(spec, corpus, env);
}

double setup_batch(const WorkloadSpec& spec, const Corpus& corpus,
                   const std::string& spill_dir, int count) {
  double total = 0;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    Setup setup(spec, corpus, workload_threads(spec), spill_dir);
    total += seconds_between(start, Clock::now());
  }
  return total / count;
}

void write_iteration(JsonWriter& json, const Iteration& it) {
  json.begin_object();
  json.key("setup_s").value(it.setup_s);
  json.key("wall_s").value(it.wall_s);
  json.key("report_s").value(it.report_s);
  json.key("raw_records").value(std::uint64_t{it.raw_records});
  json.key("records").value(std::uint64_t{it.records});
  json.key("digest").value(hex64(it.digest));
  if (!it.counters_json.empty()) json.key("counters").raw(it.counters_json);
  json.key("epoch_ms").begin_array();
  for (double ms : it.epoch_ms) json.value(ms);
  json.end_array();
  json.end_object();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t written_bytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

}  // namespace bgpcc::e2e
