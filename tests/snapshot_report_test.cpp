// Differential battery for epoch/snapshot reporting
// (AnalysisDriver::snapshot + ReportSnapshot):
//
//   - a snapshot taken at a committed-window boundary equals the final
//     report() of an independent run over the input TRUNCATED at that
//     boundary (prefix-stable ArchiveGenerator makes the truncation
//     exact), for every boundary;
//   - snapshotting never perturbs anything: a run that snapshots after
//     every window reports — and save_state()s, byte for byte — the
//     same as a run that never snapshots, across threads {1,4} ×
//     window {0,64};
//   - concurrent snapshot-while-ingesting (the TSan target): every
//     snapshot taken from a second thread during a pipelined 4-thread
//     run must equal one of the committed-boundary reference reports —
//     never a half-applied window;
//   - the uniform lifecycle: every entry point called after
//     finalization throws ConfigError naming the offending call;
//   - checkpoint() after snapshot() is byte-identical to one taken on a
//     never-snapshotted run (the epoch counter and snapshot buffers
//     never leak into the wire codec) and resumes exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "analytics/standard.h"
#include "archive_gen.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace {

using core::CleaningOptions;
using core::IngestOptions;
using core::IngestResult;
using core::Registry;
using core::StreamingIngestor;
using core::archgen::allocated_registry;
using core::archgen::ArchiveGenerator;

constexpr std::size_t kRecordsA = 700;
constexpr std::size_t kRecordsB = 500;
constexpr std::uint64_t kSeedA = 20260806;
constexpr std::uint64_t kSeedB = 20260807;

/// Two-collector windowed fixture. ArchiveGenerator is prefix-stable
/// (generate(k) with the same seed yields the first k records of a
/// longer run), so any committed raw-record count can be replayed as an
/// independent truncated input.
struct Fixture {
  std::string archive_a;
  std::string archive_b;
  Registry registry;
  CleaningOptions cleaning;

  Fixture() {
    archive_a = ArchiveGenerator(kSeedA).generate(kRecordsA);
    archive_b = ArchiveGenerator(kSeedB).generate(kRecordsB);
    registry = allocated_registry();
    cleaning.registry = &registry;
  }

  [[nodiscard]] IngestOptions options() const {
    IngestOptions opt;
    opt.chunk_records = 32;
    opt.window_records = 128;
    opt.cleaning = &cleaning;
    return opt;
  }

  struct Run {
    AnalysisDriver driver;
    StandardPasses handles;
    IngestOptions opt;
    std::unique_ptr<std::istringstream> in_a;
    std::unique_ptr<std::istringstream> in_b;
    std::unique_ptr<StreamingIngestor> engine;
  };

  [[nodiscard]] std::unique_ptr<Run> start(IngestOptions opt) const {
    auto run = std::make_unique<Run>();
    run->handles = StandardPasses::add(run->driver);
    run->opt = std::move(opt);
    run->driver.attach(run->opt);
    run->engine = std::make_unique<StreamingIngestor>(run->opt);
    run->in_a = std::make_unique<std::istringstream>(archive_a);
    run->in_b = std::make_unique<std::istringstream>(archive_b);
    run->engine->add_stream("rrc00", *run->in_a);
    run->engine->add_stream("rrc01", *run->in_b);
    return run;
  }

  [[nodiscard]] std::unique_ptr<Run> start() const { return start(options()); }

  /// An independent run whose input is the fixture input truncated to
  /// the first `raw_records` framed records (the engine frames rrc00
  /// fully before rrc01, so the prefix splits cleanly by count).
  [[nodiscard]] StandardReports truncated_report(
      std::size_t raw_records) const {
    auto run = std::make_unique<Run>();
    run->handles = StandardPasses::add(run->driver);
    run->opt = options();
    run->driver.attach(run->opt);
    run->engine = std::make_unique<StreamingIngestor>(run->opt);
    std::size_t from_a = raw_records < kRecordsA ? raw_records : kRecordsA;
    run->in_a = std::make_unique<std::istringstream>(
        ArchiveGenerator(kSeedA).generate(from_a));
    run->engine->add_stream("rrc00", *run->in_a);
    if (raw_records > kRecordsA) {
      run->in_b = std::make_unique<std::istringstream>(
          ArchiveGenerator(kSeedB).generate(raw_records - kRecordsA));
      run->engine->add_stream("rrc01", *run->in_b);
    }
    (void)run->engine->finish();
    return run->handles.collect(run->driver);
  }
};

TEST(SnapshotReport, EveryWindowBoundaryEqualsTruncatedRun) {
  Fixture fixture;
  auto run = fixture.start();

  // Boundary 0: a snapshot before any window is the empty report — the
  // same as an independent run over zero records.
  std::vector<std::pair<std::size_t, StandardReports>> boundaries;
  {
    ReportSnapshot snap = run->driver.snapshot();
    EXPECT_EQ(snap.epoch(), 1u);
    boundaries.emplace_back(0, run->handles.collect(snap));
  }
  while (run->engine->poll()) {
    ReportSnapshot snap = run->driver.snapshot();
    boundaries.emplace_back(run->engine->stats().raw_records,
                            run->handles.collect(snap));
  }
  ASSERT_GT(boundaries.size(), 4u) << "fixture too small";
  ASSERT_EQ(boundaries.back().first, kRecordsA + kRecordsB);

  for (const auto& [raw, expected] : boundaries) {
    EXPECT_EQ(fixture.truncated_report(raw), expected) << "boundary " << raw;
  }

  // The snapshotted run's finale is untouched by the snapshots and
  // equals the last boundary (all input was already ingested).
  (void)run->engine->finish();
  EXPECT_EQ(run->handles.collect(run->driver), boundaries.back().second);
}

TEST(SnapshotReport, SnapshottingNeverPerturbsTheFinalReport) {
  Fixture fixture;
  for (unsigned threads : {1u, 4u}) {
    for (std::size_t window : {std::size_t{0}, std::size_t{64}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " window=" +
                   std::to_string(window));
      IngestOptions opt = fixture.options();
      opt.num_threads = threads;
      opt.window_records = window;

      // Run A: snapshot at every boundary, twice at the first one.
      auto snapshotted = fixture.start(opt);
      std::uint64_t last_epoch = 0;
      bool doubled = false;
      while (snapshotted->engine->poll()) {
        ReportSnapshot snap = snapshotted->driver.snapshot();
        EXPECT_GT(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        if (!doubled) {
          // Back-to-back snapshots: new epoch, identical content.
          ReportSnapshot again = snapshotted->driver.snapshot();
          EXPECT_EQ(again.epoch(), snap.epoch() + 1);
          EXPECT_EQ(snapshotted->handles.collect(again),
                    snapshotted->handles.collect(snap));
          doubled = true;
        }
      }
      (void)snapshotted->engine->finish();
      StandardReports with = snapshotted->handles.collect(snapshotted->driver);
      std::ostringstream with_bytes;
      snapshotted->driver.save_state(with_bytes);

      // Run B: identical, but never snapshots.
      auto plain = fixture.start(opt);
      (void)plain->engine->finish();
      StandardReports without = plain->handles.collect(plain->driver);
      std::ostringstream without_bytes;
      plain->driver.save_state(without_bytes);

      EXPECT_EQ(with, without);
      EXPECT_EQ(with_bytes.str(), without_bytes.str());
    }
  }
}

TEST(SnapshotReport, ConcurrentSnapshotWhileIngesting) {
  Fixture fixture;
  IngestOptions opt = fixture.options();
  opt.num_threads = 4;  // pipelined: window N+1 decodes during window N

  // Reference: the committed-boundary report set from a sequential run
  // (boundary 0 = the empty state included).
  std::vector<StandardReports> committed;
  {
    auto run = fixture.start(opt);
    committed.push_back(run->handles.collect(run->driver.snapshot()));
    while (run->engine->poll()) {
      committed.push_back(run->handles.collect(run->driver.snapshot()));
    }
  }
  ASSERT_GT(committed.size(), 4u);

  // Live run: a second thread snapshots continuously while the main
  // thread polls every window. The committed-window barrier must make
  // every concurrent snapshot land exactly on a boundary.
  auto run = fixture.start(opt);
  std::atomic<bool> stop{false};
  std::atomic<bool> live{false};
  std::vector<std::pair<std::uint64_t, StandardReports>> observed;
  std::thread snapshotter([&] {
    do {
      ReportSnapshot snap = run->driver.snapshot();
      observed.emplace_back(snap.epoch(), run->handles.collect(snap));
      live.store(true, std::memory_order_release);
      std::this_thread::yield();
    } while (!stop.load(std::memory_order_relaxed) && observed.size() < 256);
  });
  // Poll only once the snapshotter is running: a fast ingest could
  // otherwise finish before the thread is first scheduled.
  while (!live.load(std::memory_order_acquire)) std::this_thread::yield();
  while (run->engine->poll()) {
  }
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  ASSERT_FALSE(observed.empty());
  std::uint64_t last_epoch = 0;
  for (const auto& [epoch, reports] : observed) {
    EXPECT_GT(epoch, last_epoch) << "epochs must be strictly increasing";
    last_epoch = epoch;
    bool at_boundary = false;
    for (const StandardReports& boundary : committed) {
      if (reports == boundary) {
        at_boundary = true;
        break;
      }
    }
    EXPECT_TRUE(at_boundary)
        << "epoch " << epoch << " observed a non-boundary state";
  }

  // And the live run's finale is unperturbed.
  (void)run->engine->finish();
  EXPECT_EQ(run->handles.collect(run->driver), committed.back());
}

TEST(SnapshotReport, EveryEntryPointNamesItselfAfterFinalize) {
  Fixture fixture;
  auto run = fixture.start();
  (void)run->engine->finish();
  ReportSnapshot before = run->driver.snapshot();  // pre-finalize: fine
  // Finalizes the driver.
  StandardReports final_reports = run->handles.collect(run->driver);

  auto expect_named = [](const char* call, auto&& fn) {
    try {
      fn();
      ADD_FAILURE() << call << " did not throw after finalization";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(call), std::string::npos)
          << call << " error does not name the call: " << e.what();
    }
  };
  AnalysisDriver& d = run->driver;
  expect_named("add()", [&] { (void)d.add(ClassifierPass{}); });
  expect_named("attach()", [&] {
    IngestOptions opt = fixture.options();
    d.attach(opt);
  });
  expect_named("observe()", [&] { d.observe(core::UpdateRecord{}); });
  expect_named("observe_stream()",
               [&] { d.observe_stream(core::UpdateStream{}); });
  expect_named("snapshot()", [&] { (void)d.snapshot(); });
  expect_named("checkpoint()", [&] {
    std::ostringstream out;
    d.checkpoint(out);
  });
  expect_named("restore()", [&] {
    std::istringstream in("x");
    d.restore(in);
  });
  expect_named("load_state()", [&] {
    std::istringstream in("x");
    d.load_state(in);
  });

  // Finalization never invalidates what was already produced: reports
  // stay redeemable and pre-finalize snapshots stay readable.
  EXPECT_EQ(run->handles.collect(run->driver), final_reports);
  EXPECT_EQ(run->handles.collect(before), final_reports);
}

TEST(SnapshotReport, CheckpointAfterSnapshotIsByteIdenticalAndResumes) {
  Fixture fixture;

  // Uninterrupted reference.
  auto reference = fixture.start();
  (void)reference->engine->finish();
  StandardReports expected = reference->handles.collect(reference->driver);

  // Checkpoint bytes after two windows, never snapshotted...
  std::ostringstream plain;
  {
    auto run = fixture.start();
    ASSERT_TRUE(run->engine->poll());
    ASSERT_TRUE(run->engine->poll());
    run->driver.checkpoint(plain, *run->engine);
  }
  // ...versus the same two windows with snapshots before, between, and
  // after: the epoch counter and snapshot buffers must not leak into
  // the v2 codec, so the bytes are identical.
  std::ostringstream snapshotted;
  {
    auto run = fixture.start();
    (void)run->driver.snapshot();
    ASSERT_TRUE(run->engine->poll());
    (void)run->driver.snapshot();
    ASSERT_TRUE(run->engine->poll());
    ReportSnapshot last = run->driver.snapshot();
    EXPECT_EQ(last.epoch(), 3u);
    run->driver.checkpoint(snapshotted, *run->engine);
  }
  EXPECT_EQ(plain.str(), snapshotted.str());

  // And the post-snapshot checkpoint resumes exactly.
  auto resumed = fixture.start();
  std::istringstream in(snapshotted.str());
  resumed->driver.restore(in, *resumed->engine);
  (void)resumed->engine->finish();
  EXPECT_EQ(resumed->handles.collect(resumed->driver), expected);
}

TEST(SnapshotReport, SnapshotOutlivesDriverAndValidatesHandles) {
  Fixture fixture;
  ReportSnapshot survivor;
  StandardPasses handles;
  {
    auto run = fixture.start();
    handles = run->handles;
    (void)run->engine->finish();
    survivor = run->driver.snapshot();
    EXPECT_TRUE(static_cast<bool>(survivor));
    EXPECT_EQ(survivor.size(), 9u);
  }  // driver and engine destroyed

  // The snapshot owns its merged states: still readable.
  StandardReports reports = handles.collect(survivor);
  EXPECT_GT(reports.types.counts.total(), 0u);
  EXPECT_EQ(reports, fixture.truncated_report(kRecordsA + kRecordsB));

  // Copies share the same immutable payload.
  ReportSnapshot copy = survivor;
  EXPECT_EQ(copy.epoch(), survivor.epoch());
  EXPECT_EQ(handles.collect(copy), reports);

  // An empty snapshot and a foreign handle both refuse to project.
  ReportSnapshot empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_EQ(empty.epoch(), 0u);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_THROW((void)empty.report(handles.types), ConfigError);
  AnalysisDriver other;
  auto foreign = other.add(ClassifierPass{});
  EXPECT_THROW((void)survivor.report(foreign), ConfigError);
  EXPECT_THROW((void)survivor.report(PassHandle<ClassifierPass>{}),
               ConfigError);
}

TEST(SnapshotReport, SinkAndObserveModesSnapshotToo) {
  // Epoch reporting is not attach()-only: observe() — also what a
  // StreamingIngestor::finish() callback feeds — takes the same barrier
  // per record, so mid-stream snapshots see a record-
  // exact prefix there as well. All comparisons stay within observe
  // mode (the snapshot contract is per execution mode).
  Fixture fixture;
  core::UpdateStream stream;
  {
    auto run = fixture.start(fixture.options());
    IngestResult result = run->engine->finish();
    stream = std::move(result.stream);
  }
  ASSERT_GT(stream.size(), 0u);

  AnalysisDriver driver;
  StandardPasses handles = StandardPasses::add(driver);
  // `prefix` sees only the first half; `full` sees everything; neither
  // ever snapshots.
  AnalysisDriver prefix;
  StandardPasses prefix_handles = StandardPasses::add(prefix);
  AnalysisDriver full;
  StandardPasses full_handles = StandardPasses::add(full);
  for (const core::UpdateRecord& record : stream.records()) {
    full.observe(record);
  }

  std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    driver.observe(stream.records()[i]);
    prefix.observe(stream.records()[i]);
  }
  // Mid-stream snapshot == finalizing report() of the prefix-only run.
  ReportSnapshot mid = driver.snapshot();
  EXPECT_EQ(handles.collect(mid), prefix_handles.collect(prefix));

  // The snapshotted driver keeps absorbing records, and its finale
  // equals the never-snapshotted full run.
  for (std::size_t i = half; i < stream.size(); ++i) {
    driver.observe(stream.records()[i]);
  }
  EXPECT_EQ(handles.collect(driver), full_handles.collect(full));
}

}  // namespace
}  // namespace bgpcc::analytics
