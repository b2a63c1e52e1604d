// Integration tests: the synthetic beacon internet reproduces the §6
// phenomena end-to-end (community exploration, cleaning-induced nn,
// withdrawal-dominated attribute revelation).
#include <gtest/gtest.h>

#include "core/beacon.h"
#include "core/tomography.h"
#include "run_pass.h"
#include "synth/beacon_internet.h"

namespace bgpcc::synth {
namespace {

// One shared small-day simulation: building it is the expensive part, so
// run it once and let all tests inspect the result.
class BeaconDay : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BeaconOptions options;
    options.transit_ingresses = 5;
    options.peers_per_collector = 8;
    options.collector_count = 2;
    options.beacon_count = 2;
    internet_ = new BeaconInternet(options);
    internet_->run_day();
    stream_ = new core::UpdateStream(internet_->stream());
  }
  static void TearDownTestSuite() {
    delete stream_;
    stream_ = nullptr;
    delete internet_;
    internet_ = nullptr;
  }

  static BeaconInternet* internet_;
  static core::UpdateStream* stream_;
};

BeaconInternet* BeaconDay::internet_ = nullptr;
core::UpdateStream* BeaconDay::stream_ = nullptr;

TEST_F(BeaconDay, ProducesTrafficOnAllCollectors) {
  ASSERT_GT(stream_->size(), 100u);
  for (const std::string& name : internet_->collector_names()) {
    EXPECT_GT(internet_->collector_stream(name).size(), 0u) << name;
  }
}

TEST_F(BeaconDay, AnnouncementsOutnumberWithdrawals) {
  // Paper: 307,984 announcements vs 56,640 withdrawals (~5.4:1).
  EXPECT_GT(stream_->announcement_count(),
            2 * stream_->withdrawal_count());
  EXPECT_GT(stream_->withdrawal_count(), 0u);
}

TEST_F(BeaconDay, CommunityExplorationEmerges) {
  core::BeaconSchedule schedule;
  auto events =
      test::run_pass(analytics::ExplorationPass{schedule}, *stream_);
  ASSERT_FALSE(events.empty())
      << "staggered withdrawals through the multi-ingress transit must "
         "produce nc runs on unchanged AS paths";
  // The exploration happens on the canonical T path: peer, 3356, 174, origin.
  bool t_path_seen = false;
  for (const auto& event : events) {
    auto hops = event.as_path.flatten();
    if (hops.size() == 4 && hops[1] == Asn(BeaconInternet::kAsnT) &&
        hops[2] == Asn(BeaconInternet::kAsnU1)) {
      t_path_seen = true;
      EXPECT_GE(event.distinct_attributes, 2);
    }
  }
  EXPECT_TRUE(t_path_seen);
}

TEST_F(BeaconDay, NcAnnouncementsComeFromPropagatingPeers) {
  core::TypeCounts counts =
      test::run_pass(analytics::ClassifierPass{}, *stream_).counts;
  EXPECT_GT(counts.count(core::AnnouncementType::kPc), 0u);
  EXPECT_GT(counts.count(core::AnnouncementType::kNc), 0u);
  EXPECT_GT(counts.count(core::AnnouncementType::kNn), 0u);
  // Path-change types dominate in beacon data (paper: pc+pn ~ 75%).
  EXPECT_GT(counts.count(core::AnnouncementType::kPc) +
                counts.count(core::AnnouncementType::kPn),
            counts.count(core::AnnouncementType::kNc));
}

TEST_F(BeaconDay, CleaningPeersEmitNoCommunities) {
  for (const core::UpdateRecord& record : stream_->records()) {
    if (!record.announcement) continue;
    for (const PeerInfo& peer : internet_->peers()) {
      if (record.session.peer_asn != peer.asn) continue;
      if (peer.hygiene == PeerHygiene::kCleanEgress ||
          peer.hygiene == PeerHygiene::kCleanIngress) {
        EXPECT_TRUE(record.attrs.communities.empty())
            << peer.name << " must clean communities";
      }
    }
  }
}

TEST_F(BeaconDay, WithdrawalPhasesRevealMostAttributes) {
  core::BeaconSchedule schedule;
  core::RevealedStats stats =
      test::run_pass(analytics::RevealedPass{schedule}, *stream_);
  ASSERT_GT(stats.total_unique, 0u);
  // Paper: ~62% withdrawal-exclusive, 17% announce, <1% outside.
  EXPECT_GT(stats.withdrawal_ratio(), 0.35);
  EXPECT_GT(stats.withdrawal_only, stats.announce_only);
}

TEST_F(BeaconDay, AllTrafficInsideBeaconRange) {
  Prefix range(IpAddress::v4(84, 205, 0, 0), 16);
  for (const core::UpdateRecord& record : stream_->records()) {
    EXPECT_TRUE(range.contains(record.prefix));
  }
}

TEST_F(BeaconDay, RegistryCoversEverything) {
  core::Registry registry = internet_->make_registry();
  core::UpdateStream copy = *stream_;
  core::CleaningOptions options;
  options.registry = &registry;
  options.fix_second_granularity = false;
  core::CleaningReport report = core::clean(copy, options);
  EXPECT_EQ(report.dropped_unallocated_asn, 0u);
  EXPECT_EQ(report.dropped_unallocated_prefix, 0u);
  EXPECT_EQ(copy.size(), stream_->size());
}

TEST_F(BeaconDay, TomographyRecoversGroundTruth) {
  auto evidence = test::run_pass(analytics::TomographyPass{}, *stream_);
  // The big transit must be classified as a tagger.
  const core::AsEvidence* transit = nullptr;
  for (const auto& e : evidence) {
    if (e.asn == Asn(BeaconInternet::kAsnT)) transit = &e;
  }
  ASSERT_NE(transit, nullptr);
  EXPECT_EQ(transit->classification, core::CommunityBehavior::kTagger);

  // Cleaning peers with enough announcements classify as cleaners.
  int cleaners_checked = 0;
  for (const PeerInfo& peer : internet_->peers()) {
    if (peer.hygiene != PeerHygiene::kCleanEgress &&
        peer.hygiene != PeerHygiene::kCleanIngress) {
      continue;
    }
    for (const auto& e : evidence) {
      if (e.asn != peer.asn || e.as_peer < 10) continue;
      EXPECT_EQ(e.classification, core::CommunityBehavior::kCleaner)
          << peer.name;
      ++cleaners_checked;
    }
  }
  EXPECT_GT(cleaners_checked, 0);
}

TEST_F(BeaconDay, DeterministicGivenSeed) {
  BeaconOptions options;
  options.transit_ingresses = 3;
  options.peers_per_collector = 3;
  options.collector_count = 1;
  options.beacon_count = 1;
  auto run = [&options] {
    BeaconInternet net(options);
    net.run_day();
    return net.stream().size();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace bgpcc::synth
