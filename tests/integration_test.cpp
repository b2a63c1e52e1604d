// Cross-module integration: simulator -> wire codec -> MRT file -> reader
// -> analysis pipeline. The classification of what a collector heard must
// be identical whether computed from its recorded messages, exploded with
// no engine and no encoding, or from its MRT archive on disk.
#include <gtest/gtest.h>

#include "core/ingest.h"
#include "log_reference.h"
#include "run_pass.h"
#include "synth/ingest.h"
#include "synth/labtopo.h"
#include "test_dir.h"

namespace bgpcc {
namespace {

TEST(Integration, MrtRoundTripPreservesClassification) {
  synth::LabConfig config;
  config.scenario = synth::LabScenario::kExp2GeoTagging;
  config.restore_link = true;
  synth::LabExperiment experiment(config);
  (void)experiment.run();

  sim::RouteCollector& collector = experiment.network().collector("C1");
  ASSERT_GT(collector.message_count(), 2u);

  // The engine-free reference: the recorded messages, never encoded.
  core::UpdateStream direct = test::explode_logs({&collector});
  core::TypeCounts direct_counts =
      test::run_pass(analytics::ClassifierPass{}, direct).counts;

  const test::TestDir archive("integration", ".mrt");
  collector.write_mrt(archive.path());
  core::UpdateStream from_disk =
      core::ingest_mrt_file("C1", archive.path()).stream;
  core::TypeCounts disk_counts =
      test::run_pass(analytics::ClassifierPass{}, from_disk).counts;

  ASSERT_EQ(from_disk.size(), direct.size());
  for (core::AnnouncementType type : core::kAllAnnouncementTypes) {
    EXPECT_EQ(disk_counts.count(type), direct_counts.count(type))
        << core::label(type);
  }
  EXPECT_EQ(disk_counts.withdrawals, direct_counts.withdrawals);

  // Record fidelity through encode/decode: every record, attributes
  // included, survives the archive unchanged.
  EXPECT_TRUE(from_disk.records() == direct.records());
}

TEST(Integration, SecondGranularityMrtNeedsCleaning) {
  synth::LabConfig config;
  config.scenario = synth::LabScenario::kExp2GeoTagging;
  config.restore_link = true;
  synth::LabExperiment experiment(config);
  (void)experiment.run();

  sim::RouteCollector& collector = experiment.network().collector("C1");
  const test::TestDir archive("integration", ".mrt");
  collector.write_mrt(archive.path(), /*extended_time=*/false);
  core::UpdateStream stream =
      core::ingest_mrt_file("C1", archive.path()).stream;

  // All records collapse onto whole seconds...
  for (const core::UpdateRecord& record : stream.records()) {
    EXPECT_EQ(record.time.unix_micros() % 1000000, 0);
  }
  // ...and the cleaning pipeline spreads same-second records apart.
  core::CleaningOptions options;
  core::clean(stream, options);
  std::map<std::pair<core::SessionKey, Prefix>, Timestamp> last;
  for (const core::UpdateRecord& record : stream.records()) {
    auto key = std::make_pair(record.session, record.prefix);
    auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_GT(record.time, it->second);
    }
    last[key] = record.time;
  }
}

TEST(Integration, LabExp2ClassifiesAsNcAtCollector) {
  // End-to-end: the Exp2 collector stream, run through the paper's
  // classifier, shows the community-only update as nc.
  synth::LabConfig config;
  config.scenario = synth::LabScenario::kExp2GeoTagging;
  config.restore_link = true;
  synth::LabExperiment experiment(config);
  (void)experiment.run();

  core::UpdateStream stream =
      synth::ingest({&experiment.network().collector("C1")}).stream;
  core::TypeCounts counts =
      test::run_pass(analytics::ClassifierPass{}, stream).counts;
  // Two flap transitions, each a community-only change at the collector.
  EXPECT_EQ(counts.count(core::AnnouncementType::kNc), 2u);
  EXPECT_EQ(counts.count(core::AnnouncementType::kPc), 0u);
  EXPECT_EQ(counts.count(core::AnnouncementType::kPn), 0u);
}

TEST(Integration, LabExp3ClassifiesAsNnAtCollector) {
  synth::LabConfig config;
  config.scenario = synth::LabScenario::kExp3EgressCleaning;
  config.vendor = VendorProfile::cisco_ios();
  config.restore_link = true;
  synth::LabExperiment experiment(config);
  (void)experiment.run();

  core::UpdateStream stream =
      synth::ingest({&experiment.network().collector("C1")}).stream;
  core::TypeCounts counts =
      test::run_pass(analytics::ClassifierPass{}, stream).counts;
  EXPECT_EQ(counts.count(core::AnnouncementType::kNn), 2u);
  EXPECT_EQ(counts.count(core::AnnouncementType::kNc), 0u);
}

}  // namespace
}  // namespace bgpcc
