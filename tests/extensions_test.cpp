// Tests: §7 extension modules — peering inference and anomaly detection,
// validated against simulator ground truth.
#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "core/peering.h"
#include "netbase/error.h"
#include "run_pass.h"
#include "synth/beacon_internet.h"
#include "synth/macrogen.h"

namespace bgpcc::core {
namespace {

UpdateRecord make_record(Asn peer, const std::string& path,
                         const std::string& comms, int t) {
  UpdateRecord r;
  r.time = Timestamp::from_unix_seconds(t);
  r.session = SessionKey{"rrc00", peer, IpAddress::from_string("192.0.2.1")};
  r.prefix = Prefix::from_string("84.205.64.0/24");
  r.announcement = true;
  r.attrs.as_path = AsPath::from_string(path);
  if (!comms.empty()) {
    std::size_t start = 0;
    while (start < comms.size()) {
      std::size_t end = comms.find(' ', start);
      if (end == std::string::npos) end = comms.size();
      r.attrs.communities.add(
          Community::from_string(comms.substr(start, end - start)));
      start = end + 1;
    }
  }
  return r;
}

TEST(Peering, CountsDistinctIngressTagsets) {
  UpdateStream stream;
  // Transit 3356 peers with 174; three distinct ingress tag-sets revealed.
  for (int rep = 0; rep < 3; ++rep) {
    for (int ingress = 0; ingress < 3; ++ingress) {
      stream.add(make_record(Asn(20205), "20205 3356 174 12654",
                             "3356:" + std::to_string(2000 + ingress) +
                                 " 3356:" + std::to_string(500 + ingress / 2),
                             rep * 10 + ingress));
    }
  }
  auto estimates = infer_peering(stream);
  ASSERT_FALSE(estimates.empty());
  const PeeringEstimate* found = nullptr;
  for (const auto& e : estimates) {
    if (e.transit == Asn(3356) && e.neighbor == Asn(174)) found = &e;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->distinct_ingress_tagsets, 3);
  EXPECT_EQ(found->distinct_location_codes, 5);  // 3 cities + 2 countries
  EXPECT_EQ(found->announcements, 9u);
}

TEST(Peering, NoiseFloorFiltersRarePairs) {
  UpdateStream stream;
  stream.add(make_record(Asn(20205), "20205 3356 174 12654", "3356:1", 0));
  PeeringOptions options;
  options.min_announcements = 5;
  EXPECT_TRUE(infer_peering(stream, options).empty());
  options.min_announcements = 1;
  EXPECT_FALSE(infer_peering(stream, options).empty());
}

TEST(Peering, UntaggedAdjacencyRevealsNothing) {
  UpdateStream stream;
  for (int i = 0; i < 10; ++i) {
    stream.add(make_record(Asn(20205), "20205 174 12654", "", i));
  }
  auto estimates = infer_peering(stream, {.min_announcements = 1});
  for (const auto& e : estimates) {
    EXPECT_EQ(e.distinct_ingress_tagsets, 0);
  }
}

TEST(Peering, RecoversInterconnectionCountFromSimulation) {
  // Ground truth: the transit has exactly `transit_ingresses` sessions
  // with U1; community exploration during withdrawals reveals them all.
  synth::BeaconOptions options;
  options.transit_ingresses = 5;
  options.peers_per_collector = 10;
  options.collector_count = 2;
  options.beacon_count = 2;
  synth::BeaconInternet internet(options);
  internet.run_day();

  auto estimates = infer_peering(internet.stream());
  const PeeringEstimate* found = nullptr;
  for (const auto& e : estimates) {
    if (e.transit == Asn(synth::BeaconInternet::kAsnT) &&
        e.neighbor == Asn(synth::BeaconInternet::kAsnU1)) {
      found = &e;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->distinct_ingress_tagsets, options.transit_ingresses);
}

TEST(Anomaly, FlagsDuplicateOutlierSession) {
  UpdateStream stream;
  // 8 normal sessions: alternating nc (no nn at all).
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < 60; ++i) {
      UpdateRecord r = make_record(Asn(20000 + s), "1 2 3",
                                   "100:" + std::to_string(i % 7), i);
      r.session.peer_asn = Asn(20000 + s);
      stream.add(r);
    }
  }
  // One session sending pure duplicates.
  for (int i = 0; i < 60; ++i) {
    UpdateRecord r = make_record(Asn(29999), "1 2 3", "100:1", i);
    r.session.peer_asn = Asn(29999);
    stream.add(r);
  }
  AnomalyOptions options;
  options.min_classified = 10;
  options.novelty_min_occurrences = 1000000;  // disable novelty detector
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  ASSERT_EQ(report.duplicate_outliers.size(), 1u);
  EXPECT_EQ(report.duplicate_outliers[0].session.peer_asn, Asn(29999));
  EXPECT_GT(report.duplicate_outliers[0].nn_share, 0.9);
  EXPECT_GE(report.duplicate_outliers[0].sigma, 2.0);
}

TEST(Anomaly, QuietPopulationHasNoOutliers) {
  UpdateStream stream;
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 60; ++i) {
      UpdateRecord r = make_record(Asn(20000 + s), "1 2 3",
                                   "100:" + std::to_string(i % 5), i);
      r.session.peer_asn = Asn(20000 + s);
      stream.add(r);
    }
  }
  AnomalyOptions options;
  options.min_classified = 10;
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  EXPECT_TRUE(report.duplicate_outliers.empty());
}

TEST(Anomaly, DetectsNoveltyBurst) {
  UpdateStream stream;
  // Background: one established community, trickling over many hours so
  // its first-hour volume stays below the burst threshold.
  for (int i = 0; i < 20; ++i) {
    stream.add(make_record(Asn(20205), "1 2", "100:1", i * 3000));
  }
  // Burst: a brand-new community arriving 150 times within an hour.
  for (int i = 0; i < 150; ++i) {
    stream.add(make_record(Asn(20205), "1 2", "666:666 100:1", 9000 + i));
  }
  AnomalyOptions options;
  options.novelty_min_occurrences = 100;
  options.min_classified = 1000000;  // disable outlier detector
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  ASSERT_EQ(report.novelty_bursts.size(), 1u);
  EXPECT_EQ(report.novelty_bursts[0].community, Community::of(666, 666));
  EXPECT_EQ(report.novelty_bursts[0].occurrences, 150u);
}

// The regression the Pass port fixed: the old detector pinned first_seen
// forever and dropped every occurrence outside the initial window, so a
// community that went quiet and burst hours later was never flagged.
TEST(Anomaly, ReEmergentCommunityBurstIsFlagged) {
  UpdateStream stream;
  // Two quiet sightings at t=0, then silence.
  stream.add(make_record(Asn(20205), "1 2", "666:13", 0));
  stream.add(make_record(Asn(20205), "1 2", "666:13", 30));
  // Ten hours later: 150 occurrences within one hour.
  for (int i = 0; i < 150; ++i) {
    stream.add(make_record(Asn(20205), "1 2", "666:13", 36000 + i));
  }
  AnomalyOptions options;
  options.novelty_min_occurrences = 100;
  options.min_classified = 1000000;  // disable outlier detector
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  ASSERT_EQ(report.novelty_bursts.size(), 1u);
  EXPECT_EQ(report.novelty_bursts[0].community, Community::of(666, 13));
  EXPECT_EQ(report.novelty_bursts[0].occurrences, 150u);
  // first_seen is the re-emergence, not the original quiet sighting.
  EXPECT_EQ(report.novelty_bursts[0].first_seen,
            Timestamp::from_unix_seconds(36000));
}

// The largest episode wins when a community bursts more than once.
TEST(Anomaly, LargestBurstEpisodeIsReported) {
  UpdateStream stream;
  for (int i = 0; i < 110; ++i) {
    stream.add(make_record(Asn(20205), "1 2", "666:13", i));
  }
  // Quiet gap, then a bigger re-emergent burst.
  for (int i = 0; i < 140; ++i) {
    stream.add(make_record(Asn(20205), "1 2", "666:13", 36000 + i));
  }
  AnomalyOptions options;
  options.novelty_min_occurrences = 100;
  options.min_classified = 1000000;
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  ASSERT_EQ(report.novelty_bursts.size(), 1u);
  EXPECT_EQ(report.novelty_bursts[0].occurrences, 140u);
  EXPECT_EQ(report.novelty_bursts[0].first_seen,
            Timestamp::from_unix_seconds(36000));
}

// Defined small-population behavior (n eligible sessions):
//  n == 0 -> zero stats, no outliers;
//  n == 1 -> that session's share is the population mean, stddev 0, and
//            it can never be an outlier;
//  n == 2 -> each scored against the other alone (sigma 1e6 on a
//            zero-stddev remainder).
TEST(Anomaly, NoEligibleSessionsReportsZeroStats) {
  UpdateStream stream;
  for (int i = 0; i < 5; ++i) {
    stream.add(make_record(Asn(20205), "1 2", "100:1", i));
  }
  AnomalyOptions options;
  options.min_classified = 50;  // the 4 classified announcements miss it
  options.novelty_min_occurrences = 1000000;
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  EXPECT_TRUE(report.duplicate_outliers.empty());
  EXPECT_DOUBLE_EQ(report.population_mean_nn_share, 0.0);
  EXPECT_DOUBLE_EQ(report.population_stddev_nn_share, 0.0);
}

TEST(Anomaly, SingleEligibleSessionIsNeverAnOutlier) {
  UpdateStream stream;
  // A session of pure duplicates: extreme, but the only population.
  for (int i = 0; i < 60; ++i) {
    stream.add(make_record(Asn(29999), "1 2 3", "100:1", i));
  }
  AnomalyOptions options;
  options.min_classified = 10;
  options.novelty_min_occurrences = 1000000;
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  EXPECT_TRUE(report.duplicate_outliers.empty());
  EXPECT_DOUBLE_EQ(report.population_mean_nn_share, 1.0);
  EXPECT_DOUBLE_EQ(report.population_stddev_nn_share, 0.0);
}

TEST(Anomaly, TwoEligibleSessionsScoreAgainstEachOther) {
  UpdateStream stream;
  for (int i = 0; i < 60; ++i) {
    // Pure duplicates on one session...
    UpdateRecord dup = make_record(Asn(29999), "1 2 3", "100:1", i);
    dup.session.peer_asn = Asn(29999);
    stream.add(dup);
    // ... pure nc churn on the other.
    UpdateRecord churn =
        make_record(Asn(20205), "1 2 3", "100:" + std::to_string(i % 7), i);
    churn.session.peer_asn = Asn(20205);
    stream.add(churn);
  }
  AnomalyOptions options;
  options.min_classified = 10;
  options.novelty_min_occurrences = 1000000;
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  EXPECT_DOUBLE_EQ(report.population_mean_nn_share, 0.5);
  // The duplicate session exceeds its zero-stddev remainder: infinitely
  // surprising, reported as the 1e6 sentinel. The quiet one is below its
  // remainder and stays unflagged.
  ASSERT_EQ(report.duplicate_outliers.size(), 1u);
  EXPECT_EQ(report.duplicate_outliers[0].session.peer_asn, Asn(29999));
  EXPECT_DOUBLE_EQ(report.duplicate_outliers[0].sigma, 1e6);
}

TEST(Anomaly, NonPositiveNoveltyWindowThrows) {
  AnomalyOptions options;
  options.novelty_window = Duration::hours(0);
  // Rejected at pass construction, before any record is observed.
  EXPECT_THROW((void)analytics::AnomalyPass{options}, ConfigError);
}

TEST(Anomaly, MacroArtifactSessionIsCaught) {
  // The 2012 nn artifact burst must be attributable to its session.
  synth::MacroParams params = synth::MacroParams::march2020(1.0 / 32768,
                                                            1.0 / 1024);
  params.sessions = 40;
  params.peers = 20;
  params.nn_artifact = true;
  synth::MacroGen gen(params);
  UpdateStream stream;
  gen.generate_day(
      [&stream](const UpdateRecord& record) { stream.add(record); });

  AnomalyOptions options;
  options.min_classified = 30;
  options.sigma_threshold = 2.5;
  AnomalyReport report =
      test::run_pass(analytics::AnomalyPass{options}, stream);
  ASSERT_FALSE(report.duplicate_outliers.empty());
  // The artifact session (index 3) uses peer ASN 20003.
  EXPECT_EQ(report.duplicate_outliers[0].session.peer_asn, Asn(20003));
}

}  // namespace
}  // namespace bgpcc::core
