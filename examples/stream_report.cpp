// stream_report: every paper-style number from ONE pass over compressed
// multi-archive input — the analytics engine end to end.
//
// A small beacon internet runs one simulated day; each collector's log
// is written as gzip-compressed MRT archives (exactly the shape of a
// RouteViews/RIS download directory); then a single windowed ingestion
// run cleans the stream while the standard pass set (analytics/standard.h)
// observes inline on the shard threads. Window runs spill to disk and the
// final merged records flow through a discarding sink, so NO cleaned
// stream is ever materialized: peak memory is O(window + shards + pass
// state), the configuration that scales to archives larger than RAM.
//
// Two modes:
//
//   ./stream_report
//       Batch: ingest everything, then print the standard set's
//       canonical report text once from the finalizing report().
//
//   ./stream_report --follow [--interval-ms N] [--metrics <path|->]
//       Live serving: the collector logs are written as a rotated dump
//       series (the 5-/15-minute files real collectors publish), and
//       the ingestion loop discovers one new dump per collector per
//       round — polling the growing archive directory the way a
//       long-running bgpccd would. After draining each round's windows
//       it takes a non-finalizing AnalysisDriver::snapshot() and
//       re-emits the full canonical report text for that epoch; the final
//       finish() + report() is byte-identical to the batch run.
//
// Metrics export (the obs layer): --metrics <path|-> enables stage
// timing and dumps the pipeline metric registry — Prometheus text
// format (or JSON when the path ends in .json) — once per epoch in
// --follow mode and once at the end of every run. Counters are
// cumulative, so successive per-epoch dumps diff into per-epoch deltas
// exactly like successive Prometheus scrapes. --metrics-interval-ms N
// additionally refreshes a file target every N ms from a background
// thread while ingestion runs.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analytics/standard.h"
#include "core/tables.h"
#include "mrt/source.h"
#include "obs/metrics.h"
#include "synth/beacon_internet.h"

using namespace bgpcc;

namespace {

/// Renders the global metric registry to the --metrics target: "-" is
/// stdout (always Prometheus text), a path ending in .json gets the
/// JSON rendering, anything else the Prometheus text format. File
/// targets are rewritten whole on every emit, like a scrape endpoint.
class MetricsEmitter {
 public:
  explicit MetricsEmitter(std::string target)
      : target_(std::move(target)),
        json_(target_.size() > 5 &&
              target_.compare(target_.size() - 5, 5, ".json") == 0) {}

  void emit() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (target_ == "-") {
      obs::render_prometheus(std::cout);
      std::cout.flush();
      return;
    }
    std::ofstream out(target_, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "stream_report: cannot write metrics to %s\n",
                   target_.c_str());
      return;
    }
    if (json_) {
      obs::render_json(out);
    } else {
      obs::render_prometheus(out);
    }
  }

  /// Refreshes a file target every `period_ms` until stop() — the
  /// "live scrape file" mode. stdout targets stay epoch-driven so the
  /// report text is not interleaved mid-line.
  void start_periodic(long period_ms) {
    if (period_ms <= 0 || target_ == "-") return;
    ticker_ = std::thread([this, period_ms] {
      std::unique_lock<std::mutex> lock(stop_mutex_);
      while (!stop_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                                [this] { return stopped_; })) {
        emit();
      }
    });
  }

  void stop() {
    if (!ticker_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(stop_mutex_);
      stopped_ = true;
    }
    stop_cv_.notify_all();
    ticker_.join();
  }

  ~MetricsEmitter() { stop(); }

 private:
  std::string target_;
  bool json_;
  std::mutex mutex_;  // emit() runs from the ticker and the main thread
  std::thread ticker_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopped_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  long interval_ms = 0;
  std::string metrics_target;
  long metrics_interval_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--follow") == 0) {
      follow = true;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_target = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-interval-ms") == 0 &&
               i + 1 < argc) {
      metrics_interval_ms = std::strtol(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--follow] [--interval-ms N] "
                   "[--metrics <path|->] [--metrics-interval-ms N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::unique_ptr<MetricsEmitter> metrics;
  if (!metrics_target.empty()) {
    obs::set_enabled(true);  // turn on stage-timing clock reads
    metrics = std::make_unique<MetricsEmitter>(metrics_target);
    metrics->start_periodic(metrics_interval_ms);
  }

  // 1. Simulate a day and write compressed collector archives. In
  // --follow mode each collector's log is rotated into a dump series,
  // and the ingestion loop below discovers one dump per round.
  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = 12;
  options.collector_count = 2;
  options.beacon_count = 3;
  synth::BeaconInternet internet(options);
  std::printf("simulating one beacon day at %d collectors...\n",
              options.collector_count);
  internet.run_day();

  mrt::Compression compression = mrt::gzip_supported()
                                     ? mrt::Compression::kGzip
                                     : mrt::Compression::kNone;
  const char* suffix =
      compression == mrt::Compression::kGzip ? ".mrt.gz" : ".mrt";
  // Named by process id: concurrent runs never delete each other's dumps.
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bgpcc_stream_report_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  constexpr std::size_t kRotations = 4;  // dumps per collector in --follow
  std::map<std::string, std::vector<std::string>> archives;
  for (const std::string& name : internet.collector_names()) {
    const sim::RouteCollector& collector = internet.network().collector(name);
    if (follow) {
      archives[name] = collector.write_mrt_rotated(
          (dir / name).string(), kRotations, /*extended_time=*/true,
          compression);
    } else {
      std::string path = (dir / (name + suffix)).string();
      collector.write_mrt(path, /*extended_time=*/true, compression);
      archives[name].push_back(path);
    }
    for (const std::string& path : archives[name]) {
      std::printf("  wrote %s (%ju bytes)\n", path.c_str(),
                  static_cast<std::uintmax_t>(
                      std::filesystem::file_size(path)));
    }
  }

  // 2. One pass: windowed ingestion + inline analytics on shard threads.
  core::Registry registry = internet.make_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;

  analytics::AnalysisDriver driver;
  const analytics::StandardPasses standard =
      analytics::StandardPasses::add(driver);

  core::IngestOptions ingest;
  ingest.num_threads = 0;        // hardware concurrency
  ingest.window_records = 2048;  // O(window) memory: streaming mode
  ingest.spill_dir = (dir / "spill").string();  // runs spill to disk
  ingest.cleaning = &cleaning;
  driver.attach(ingest);  // passes observe inline on the shard threads

  core::StreamingIngestor ingestor(ingest);

  if (follow) {
    // 2a. Live serving: each round, one new dump per collector appears
    // (the growing download directory); drain its windows, then take a
    // non-finalizing snapshot at the committed-window boundary and
    // re-emit the full report for that epoch.
    for (std::size_t round = 0; round < kRotations; ++round) {
      for (const auto& [collector, paths] : archives) {
        ingestor.add_file(collector, paths[round]);
      }
      while (ingestor.poll()) {
      }
      analytics::ReportSnapshot snap = driver.snapshot();
      std::printf("\n===== epoch %ju: %s raw records ingested =====\n\n",
                  static_cast<std::uintmax_t>(snap.epoch()),
                  core::with_commas(ingestor.stats().raw_records).c_str());
      std::fputs(standard.collect(snap).render().c_str(), stdout);
      if (metrics) {
        std::printf("\n----- epoch %ju metrics -----\n",
                    static_cast<std::uintmax_t>(snap.epoch()));
        metrics->emit();
      }
      if (interval_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    }
  } else {
    for (const auto& [collector, paths] : archives) {
      for (const std::string& path : paths) {
        ingestor.add_file(collector, path);
      }
    }
  }

  // 3. Finish: the merged records flow past a counting sink without ever
  // being materialized — only the pass states survive the run. The
  // finalizing report() after any number of snapshots is byte-identical
  // to one taken on a never-snapshotted run.
  std::size_t cleaned = 0;
  core::IngestResult result =
      ingestor.finish([&cleaned](core::UpdateRecord&&) { ++cleaned; });

  std::printf("\n%singested %zu raw records -> %zu cleaned records "
              "(%zu windows, %u threads, stream never materialized)\n\n",
              follow ? "===== final report =====\n\n" : "",
              result.stats.raw_records, cleaned, result.stats.windows,
              result.stats.threads);
  std::fputs(standard.collect(driver).render().c_str(), stdout);

  if (metrics) {
    metrics->stop();  // final emit below supersedes the periodic file
    if (metrics_target != "-") {
      std::printf("\nwrote metrics to %s\n", metrics_target.c_str());
    } else {
      std::printf("\n----- final metrics -----\n");
    }
    metrics->emit();
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}
