// The obs metrics layer, end to end:
//
//   - Counter/Gauge/Histogram aggregation is exact under concurrent
//     writers, including a renderer and late registrations racing the
//     writers (the TSan target);
//   - Histogram bucket edges follow Prometheus `le` semantics (a value
//     on an edge falls into that edge's bucket) and unsorted bounds are
//     rejected at construction;
//   - the Prometheus text and JSON renderings are golden-string exact,
//     including label escaping and the implicit +Inf bucket;
//   - StageTimer observes only when obs::set_enabled(true) is on, and
//     stop() disarms the destructor;
//   - re-registering a (name, labels) pair returns the same instrument,
//     and re-registering a name with a different type throws;
//   - the differential contract: with all nine passes attached, a run
//     with metrics enabled save_state()s — byte for byte — and reports
//     the same as a run with metrics off, across threads {1,4} ×
//     window {0,64};
//   - IngestStats zero-initializes `files` and every engine path sets
//     it from the real source count (the satellite regression).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/standard.h"
#include "archive_gen.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"

namespace bgpcc::obs {
namespace {

// The timing gate is process-global; every test that flips it restores
// the default-off state on every exit path.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(false); }
};

TEST(ObsCounter, AggregatesExactlyUnderConcurrentWriters) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncs = 50000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncs; ++i) counter.inc();
      counter.inc(5);
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter.value(), kThreads * (kIncs + 5));
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsGauge, AddSubSetRoundTrip) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.add(3);
  gauge.sub();
  EXPECT_EQ(gauge.value(), 2);
  gauge.set(-7);
  EXPECT_EQ(gauge.value(), -7);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsRegistry, ConcurrentWritersRenderersAndRegistrations) {
  // Writers hammer pre-registered instruments while one thread renders
  // repeatedly and another registers fresh series — the registration
  // lock must make every interleaving safe (this test is in the CI
  // TSan job's target list).
  Registry registry;
  Counter& counter = registry.counter("race_total", "racing counter");
  Histogram& hist = registry.histogram("race_seconds", "racing histogram",
                                       default_duration_buckets());
  constexpr int kWriters = 4;
  constexpr std::uint64_t kOps = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&counter, &hist] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        counter.inc();
        hist.observe(1e-5);
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) {
      std::ostringstream prom;
      registry.render_prometheus(prom);
      std::ostringstream json;
      registry.render_json(json);
    }
  });
  threads.emplace_back([&registry] {
    for (int i = 0; i < 100; ++i) {
      registry.counter("race_labeled_total", "late registrations",
                       {{"i", std::to_string(i)}});
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kWriters * kOps);
  EXPECT_EQ(hist.count(), kWriters * kOps);
}

TEST(ObsHistogram, BucketEdgesFollowLeSemantics) {
  Histogram hist({0.001, 0.01, 0.1});
  hist.observe(0.001);  // exactly on an edge: belongs to that bucket
  hist.observe(0.0015);
  hist.observe(0.1);
  hist.observe(0.25);  // past the last edge: the implicit +Inf bucket
  hist.observe(0.0);
  hist.observe(-1.0);  // negative durations clamp into the first bucket
  EXPECT_EQ(hist.bucket_count(0), 3u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.count(), 6u);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.bucket_count(0), 0u);
}

TEST(ObsHistogram, SumIsExactAcrossExactlyRepresentableObservations) {
  Histogram hist({1.0});
  hist.observe(0.25);
  hist.observe(0.5);
  hist.observe(2.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 2.75);
}

TEST(ObsHistogram, EmptyBoundsMeansEverythingIsPlusInf) {
  Histogram hist({});
  hist.observe(1.0);
  hist.observe(100.0);
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.count(), 2u);
}

TEST(ObsHistogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({0.1, 0.01}), std::invalid_argument);
}

TEST(ObsRegistry, ReregistrationReturnsTheSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("same_total", "help", {{"k", "v"}});
  Counter& b = registry.counter("same_total", "ignored", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& other = registry.counter("same_total", "help", {{"k", "w"}});
  EXPECT_NE(&a, &other);
  EXPECT_THROW(registry.gauge("same_total", "wrong type"),
               std::invalid_argument);
}

TEST(ObsRender, PrometheusGolden) {
  Registry registry;
  Histogram& hist = registry.histogram("test_latency_seconds",
                                       "Latency of test requests, seconds",
                                       {0.1, 1.0});
  hist.observe(0.05);
  hist.observe(0.5);
  hist.observe(5.0);
  registry.gauge("test_queue_depth", "Queue depth").set(-2);
  registry.counter("test_requests_total", "Requests served",
                   {{"method", "get"}})
      .inc(3);
  registry.counter("test_requests_total", "Requests served",
                   {{"method", "put"}})
      .inc();

  std::ostringstream out;
  registry.render_prometheus(out);
  EXPECT_EQ(out.str(),
            "# HELP test_latency_seconds Latency of test requests, seconds\n"
            "# TYPE test_latency_seconds histogram\n"
            "test_latency_seconds_bucket{le=\"0.1\"} 1\n"
            "test_latency_seconds_bucket{le=\"1\"} 2\n"
            "test_latency_seconds_bucket{le=\"+Inf\"} 3\n"
            "test_latency_seconds_sum 5.55\n"
            "test_latency_seconds_count 3\n"
            "# HELP test_queue_depth Queue depth\n"
            "# TYPE test_queue_depth gauge\n"
            "test_queue_depth -2\n"
            "# HELP test_requests_total Requests served\n"
            "# TYPE test_requests_total counter\n"
            "test_requests_total{method=\"get\"} 3\n"
            "test_requests_total{method=\"put\"} 1\n");
}

TEST(ObsRender, PrometheusEscapesLabelValues) {
  Registry registry;
  registry.counter("test_escapes_total", "", {{"v", "q\"w\\e\nr"}}).inc();
  std::ostringstream out;
  registry.render_prometheus(out);
  EXPECT_EQ(out.str(),
            "# TYPE test_escapes_total counter\n"
            "test_escapes_total{v=\"q\\\"w\\\\e\\nr\"} 1\n");
}

TEST(ObsRender, JsonGolden) {
  Registry registry;
  Histogram& hist = registry.histogram("j_hist_seconds", "H", {0.5});
  hist.observe(0.25);
  hist.observe(1.0);
  registry.counter("j_total", "C", {{"k", "v"}}).inc(7);

  std::ostringstream out;
  registry.render_json(out);
  EXPECT_EQ(
      out.str(),
      "{\"metrics\":["
      "{\"name\":\"j_hist_seconds\",\"type\":\"histogram\",\"help\":\"H\","
      "\"series\":[{\"labels\":{},\"count\":2,\"sum\":1.25,\"buckets\":["
      "{\"le\":0.5,\"count\":1},{\"le\":\"+Inf\",\"count\":2}]}]},"
      "{\"name\":\"j_total\",\"type\":\"counter\",\"help\":\"C\","
      "\"series\":[{\"labels\":{\"k\":\"v\"},\"value\":7}]}"
      "]}");
}

TEST(ObsStageTimer, ObservesOnlyWhenEnabled) {
  Histogram hist(default_duration_buckets());
  {
    StageTimer timer(&hist);  // gate is off: inert
  }
  EXPECT_EQ(hist.count(), 0u);

  {
    EnabledGuard enabled(true);
    { StageTimer timer(&hist); }
    EXPECT_EQ(hist.count(), 1u);
    StageTimer timer(&hist);
    timer.stop();
    timer.stop();  // idempotent; the destructor is disarmed too
    EXPECT_EQ(hist.count(), 2u);
    StageTimer inert(nullptr);  // null histogram is always safe
  }
  EXPECT_FALSE(enabled());
}

TEST(ObsPipelineMetrics, EveryInstrumentIsRegisteredEagerly) {
  const PipelineMetrics& m = pipeline_metrics();
  for (std::size_t c = 0; c < PipelineMetrics::kCodecs; ++c) {
    ASSERT_NE(m.source_opened[c], nullptr);
    ASSERT_NE(m.source_compressed_bytes[c], nullptr);
    ASSERT_NE(m.source_bytes[c], nullptr);
  }
  ASSERT_NE(m.ingest_frame, nullptr);
  ASSERT_NE(m.ingest_window, nullptr);
  ASSERT_NE(m.pool_queue_wait, nullptr);
  ASSERT_NE(m.analysis_epoch, nullptr);
  EXPECT_EQ(&pass_merge_histogram(2), &pass_merge_histogram(2));

  // Eager registration: an exposition taken before any pipeline ran
  // already names every stage, zero-valued — the contract --follow
  // --metrics relies on.
  std::ostringstream out;
  render_prometheus(out);
  const std::string text = out.str();
  for (const char* needle :
       {"bgpcc_ingest_stage_seconds_count{stage=\"frame\"}",
        "bgpcc_ingest_stage_seconds_count{stage=\"decode\"}",
        "bgpcc_ingest_stage_seconds_count{stage=\"clean\"}",
        "bgpcc_ingest_stage_seconds_count{stage=\"observe\"}",
        "bgpcc_ingest_stage_seconds_count{stage=\"merge\"}",
        "bgpcc_analysis_stage_seconds_count{stage=\"snapshot\"}",
        "bgpcc_source_opened_total{codec=\"gzip\"}",
        "bgpcc_pool_queue_wait_seconds_count"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// The cleaning family adds each CleaningReport field once per window, so
// over a run it moves by exactly IngestResult::cleaning. The input has
// one late record: a second-granularity session whose second goes back
// across a window cut (every record is its own window here).
TEST(ObsPipelineMetrics, CleaningCountersMatchTheCleaningReport) {
  std::ostringstream archive;
  mrt::Writer writer(archive);
  const IpAddress peer = IpAddress::from_string("10.0.0.1");
  const UpdateMessage update =
      core::goldenfix::announce({"10.1.0.0/16"}, {65001, 65100});
  // Second 100 twice (the second is spaced: adjusted), then second 99.
  for (std::int64_t second : {1600000100, 1600000100, 1600000099}) {
    core::goldenfix::write_update(writer, Timestamp::from_unix_seconds(second),
                                  Asn(65001), peer, update,
                                  /*extended_time=*/false);
  }

  const PipelineMetrics& m = pipeline_metrics();
  std::uint64_t before[PipelineMetrics::kCleaningFields];
  for (std::size_t f = 0; f < PipelineMetrics::kCleaningFields; ++f) {
    before[f] = m.cleaning_records[f]->value();
  }
  core::CleaningOptions cleaning;
  core::IngestOptions opt;
  opt.num_threads = 1;
  opt.chunk_records = 1;
  opt.window_records = 1;
  opt.cleaning = &cleaning;
  core::StreamingIngestor engine(opt);
  std::istringstream in(archive.str());
  engine.add_stream("rrc00", in);
  const core::CleaningReport report = engine.finish().cleaning;
  ASSERT_EQ(report.late_records, 1u);
  ASSERT_EQ(report.timestamps_adjusted, 1u);

  const std::size_t expected[] = {
      report.dropped_unallocated_asn, report.dropped_unallocated_prefix,
      report.route_server_paths_repaired, report.timestamps_adjusted,
      report.late_records};
  for (std::size_t f = 0; f < PipelineMetrics::kCleaningFields; ++f) {
    EXPECT_EQ(m.cleaning_records[f]->value() - before[f], expected[f]) << f;
  }
  std::ostringstream text;
  render_prometheus(text);
  EXPECT_NE(
      text.str().find("bgpcc_cleaning_records_total{field=\"late_records\"}"),
      std::string::npos);
}

// ---------------------------------------------------------------------
// The differential contract: metrics never perturb analysis output.

/// One full ingest + analysis run; the returned value is everything an
/// observer could compare: the nine serialized pass states (save_state
/// covers them all, byte for byte) plus the deterministic ingest
/// counters and the cleaned-record count.
struct RunOutput {
  std::string state;
  std::size_t files = 0;
  std::size_t raw_records = 0;
  std::size_t records = 0;
  std::size_t cleaned = 0;

  friend bool operator==(const RunOutput&, const RunOutput&) = default;
};

RunOutput run_pipeline(const std::string& archive_a,
                       const std::string& archive_b,
                       const core::CleaningOptions& cleaning, unsigned threads,
                       std::size_t window, bool metrics_enabled) {
  EnabledGuard guard(metrics_enabled);
  core::IngestOptions opt;
  opt.num_threads = threads;
  opt.chunk_records = 32;
  opt.window_records = window;
  opt.cleaning = &cleaning;

  analytics::AnalysisDriver driver;
  (void)analytics::StandardPasses::add(driver);
  driver.attach(opt);

  core::StreamingIngestor engine(opt);
  std::istringstream in_a(archive_a);
  std::istringstream in_b(archive_b);
  engine.add_stream("rrc00", in_a);
  engine.add_stream("rrc01", in_b);
  if (metrics_enabled) {
    // Exercise the snapshot/render paths mid-run too: they must be
    // just as invisible to the analysis output as the stage timers.
    while (engine.poll()) {
      (void)driver.snapshot();
      std::ostringstream sink;
      render_prometheus(sink);
    }
  }
  RunOutput out;
  core::IngestResult result =
      engine.finish([&out](core::UpdateRecord&&) { ++out.cleaned; });
  out.files = result.stats.files;
  out.raw_records = result.stats.raw_records;
  out.records = result.stats.records;
  std::ostringstream state;
  driver.save_state(state);
  out.state = state.str();
  return out;
}

TEST(ObsDifferential, MetricsNeverPerturbReportsOrSerializedState) {
  const std::string archive_a =
      core::archgen::ArchiveGenerator(20260807).generate(500);
  const std::string archive_b =
      core::archgen::ArchiveGenerator(20260808).generate(300);
  core::Registry registry = core::archgen::allocated_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;

  for (unsigned threads : {1u, 4u}) {
    for (std::size_t window : {std::size_t{0}, std::size_t{64}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " window=" +
                   std::to_string(window));
      RunOutput off =
          run_pipeline(archive_a, archive_b, cleaning, threads, window, false);
      RunOutput on =
          run_pipeline(archive_a, archive_b, cleaning, threads, window, true);
      EXPECT_EQ(off, on);
      EXPECT_EQ(off.files, 2u);  // the satellite: files counts sources
      EXPECT_FALSE(off.state.empty());
    }
  }
}

TEST(ObsIngestStats, FilesIsZeroInitialized) {
  EXPECT_EQ(core::IngestStats{}.files, 0u);
}

}  // namespace
}  // namespace bgpcc::obs
