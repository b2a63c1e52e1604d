// The windowed anomaly/beacon pass battery:
//
//  - differential: AnomalyPass, RevealedPass, ExplorationPass, and
//    UsageClassificationPass must report IDENTICALLY across thread
//    counts × window sizes × execution mode (inline on the shard
//    threads, materialized stream) — the §6/§7
//    detectors' port onto the Pass contract, made executable;
//  - algebra: manual session-partition splits merge to the
//    single-state result;
//  - setup: invalid beacon schedules and anomaly options are refused
//    with ConfigError at pass construction, not UB on a worker thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "archive_gen.h"
#include "core/anomaly.h"
#include "core/beacon.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace {

using core::BeaconSchedule;
using core::CleaningOptions;
using core::IngestOptions;
using core::IngestResult;
using core::Registry;
using core::StreamingIngestor;
using core::UpdateRecord;
using core::archgen::allocated_registry;
using core::archgen::ArchiveGenerator;

// The generator's day starts at 12:26:40 UTC and spans ~15 minutes; this
// schedule puts withdraw (12:28-12:33), announce (12:35-12:40), and
// outside instants all inside that span.
BeaconSchedule test_schedule() {
  BeaconSchedule schedule;
  schedule.period = Duration::hours(1);
  schedule.announce_offset = Duration::minutes(35);
  schedule.withdraw_offset = Duration::minutes(28);
  schedule.window = Duration::minutes(5);
  return schedule;
}

core::AnomalyOptions test_anomaly_options() {
  core::AnomalyOptions options;
  options.min_classified = 10;
  options.sigma_threshold = 1.5;
  options.novelty_window = Duration::minutes(2);
  options.novelty_min_occurrences = 20;
  return options;
}

core::UsageOptions test_usage_options() {
  core::UsageOptions options;
  options.min_occurrences = 5;
  return options;
}

/// Every new pass's report, bundled for equality comparison.
struct AllReports {
  AnomalyPass::Report anomalies;
  RevealedPass::Report revealed;
  ExplorationPass::Report exploration;
  UsageClassificationPass::Report usage;

  friend bool operator==(const AllReports&, const AllReports&) = default;
};

struct Handles {
  PassHandle<AnomalyPass> anomalies;
  PassHandle<RevealedPass> revealed;
  PassHandle<ExplorationPass> exploration;
  PassHandle<UsageClassificationPass> usage;
};

Handles add_all_passes(AnalysisDriver& driver) {
  return Handles{driver.add(AnomalyPass{test_anomaly_options()}),
                 driver.add(RevealedPass{test_schedule()}),
                 driver.add(ExplorationPass{test_schedule()}),
                 driver.add(UsageClassificationPass{test_usage_options()})};
}

AllReports collect(AnalysisDriver& driver, const Handles& handles) {
  return AllReports{driver.report(handles.anomalies),
                    driver.report(handles.revealed),
                    driver.report(handles.exploration),
                    driver.report(handles.usage)};
}

AllReports run_inline(const std::string& archive,
                      const CleaningOptions& cleaning, unsigned threads,
                      std::size_t window_records) {
  IngestOptions options;
  options.num_threads = threads;
  options.chunk_records = 32;
  options.cleaning = &cleaning;
  options.window_records = window_records;

  AnalysisDriver driver;
  Handles handles = add_all_passes(driver);
  std::istringstream in(archive);
  driver.attach(options);
  StreamingIngestor engine(options);
  engine.add_stream("rrc00", in);
  IngestResult result = engine.finish();
  EXPECT_GT(result.stream.size(), 0u);
  return collect(driver, handles);
}

// ---------------------------------------------------------------------------
// Differential: reports are identical across every execution shape.

TEST(AnomalyBeaconDifferential, ThreadsWindowsAndModesAgree) {
  ArchiveGenerator gen(20260802);
  std::string archive = gen.generate(1500);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  // Reference: materialized stream observed on one thread.
  IngestOptions batch;
  batch.num_threads = 1;
  batch.cleaning = &cleaning;
  std::istringstream in(archive);
  IngestResult result = core::ingest_mrt_stream("rrc00", in, batch);
  ASSERT_GT(result.stream.size(), 0u);
  AnalysisDriver reference;
  Handles handles = add_all_passes(reference);
  reference.observe_stream(result.stream);
  AllReports expected = collect(reference, handles);

  // Sanity: the fixture actually exercises every pass.
  ASSERT_GT(expected.anomalies.population_mean_nn_share, 0.0);
  ASSERT_FALSE(expected.anomalies.novelty_bursts.empty());
  ASSERT_GT(expected.revealed.total_unique, 0u);
  ASSERT_GT(expected.revealed.withdrawal_only + expected.revealed.ambiguous,
            0u);
  ASSERT_FALSE(expected.exploration.empty());
  ASSERT_FALSE(expected.usage.empty());

  for (unsigned threads : {1u, 4u}) {
    for (std::size_t window : {std::size_t{0}, std::size_t{64}}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " window=" << window);
      EXPECT_TRUE(run_inline(archive, cleaning, threads, window) == expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Pass algebra: manual splits merge to the single-state result.

TEST(AnomalyBeaconPasses, ManualMergeEqualsSingleState) {
  ArchiveGenerator gen(9);
  std::string archive = gen.generate(400);
  IngestOptions options;
  options.num_threads = 1;
  std::istringstream in(archive);
  IngestResult result = core::ingest_mrt_stream("rrc00", in, options);
  const std::vector<UpdateRecord>& records = result.stream.records();
  ASSERT_GT(records.size(), 10u);

  // One driver sees the whole stream. Two more split it by SESSION (the
  // sharding unit — splitting one session's stream mid-way is outside
  // the Pass contract for order-sensitive passes); the second's saved
  // partial state merges into the first.
  AnalysisDriver whole;
  auto whole_anomaly = whole.add(AnomalyPass{test_anomaly_options()});
  auto whole_exploration = whole.add(ExplorationPass{test_schedule()});
  whole.observe_stream(result.stream);

  AnalysisDriver part_a;
  AnalysisDriver part_b;
  auto part_anomaly = part_a.add(AnomalyPass{test_anomaly_options()});
  auto part_exploration = part_a.add(ExplorationPass{test_schedule()});
  (void)part_b.add(AnomalyPass{test_anomaly_options()});
  (void)part_b.add(ExplorationPass{test_schedule()});
  for (const UpdateRecord& record : records) {
    (record.session.hash() % 2 == 0 ? part_a : part_b).observe(record);
  }
  std::stringstream partial;
  part_b.save_state(partial);
  part_a.load_state(partial);
  EXPECT_TRUE(part_a.report(part_anomaly) == whole.report(whole_anomaly));
  EXPECT_TRUE(part_a.report(part_exploration) ==
              whole.report(whole_exploration));
}

// report() closes runs in flight on copies: it must be repeatable and
// must not perturb the underlying state, through snapshots and the final
// report alike.
TEST(AnomalyBeaconPasses, ExplorationReportIsRepeatable) {
  AnalysisDriver driver;
  auto exploration = driver.add(ExplorationPass{test_schedule()});
  UpdateRecord record;
  record.session = core::SessionKey{"rrc00", Asn(65001),
                                    IpAddress::from_string("10.0.0.1")};
  record.prefix = Prefix::from_string("10.0.0.0/16");
  record.attrs.as_path = AsPath::sequence({Asn(65001), Asn(65200)});
  // Three same-path announcements inside the withdraw phase: two nc, an
  // active run that only closing it reports.
  for (int i = 0; i < 3; ++i) {
    record.time = Timestamp::from_unix_seconds(1600000000 + 120 + i);
    record.attrs.communities.clear();
    record.attrs.communities.add(Community::of(65100, 100 + i));
    driver.observe(record);
  }
  ReportSnapshot snapshot = driver.snapshot();
  auto first = snapshot.report(exploration);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].nc_count, 2);
  EXPECT_TRUE(snapshot.report(exploration) == first);
  EXPECT_TRUE(driver.snapshot().report(exploration) == first);
  EXPECT_TRUE(driver.report(exploration) == first);
  EXPECT_TRUE(driver.report(exploration) == first);
}

// ---------------------------------------------------------------------------
// Setup validation: bad configurations are refused loudly.

TEST(AnomalyBeaconPasses, InvalidScheduleThrowsAtConstruction) {
  BeaconSchedule zero_period;
  zero_period.period = Duration::hours(0);
  EXPECT_THROW(RevealedPass{zero_period}, ConfigError);
  EXPECT_THROW(ExplorationPass{zero_period}, ConfigError);

  BeaconSchedule oversized_window;
  oversized_window.period = Duration::hours(1);
  oversized_window.window = Duration::hours(2);
  EXPECT_THROW(RevealedPass{oversized_window}, ConfigError);
  EXPECT_THROW(ExplorationPass{oversized_window}, ConfigError);
}

TEST(AnomalyBeaconPasses, InvalidAnomalyOptionsThrowAtConstruction) {
  core::AnomalyOptions options;
  options.novelty_window = Duration::hours(0);
  EXPECT_THROW(AnomalyPass{options}, ConfigError);
  options.novelty_window = Duration::micros(-1);
  EXPECT_THROW(AnomalyPass{options}, ConfigError);
}

}  // namespace
}  // namespace bgpcc::analytics
