// Unit tests: per-AS community behavior inference, through
// analytics::TomographyPass.
#include <gtest/gtest.h>

#include "core/tomography.h"
#include "run_pass.h"

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

const AsEvidence* find_as(const std::vector<AsEvidence>& all, Asn asn) {
  for (const AsEvidence& e : all) {
    if (e.asn == asn) return &e;
  }
  return nullptr;
}

TEST(Tomography, ClassifiesTaggerCleanerPropagator) {
  UpdateStream stream;
  // AS 3356 tags (its namespace appears whenever it is on the path);
  // peer 20205 propagates those foreign communities;
  // peer 20811 cleans (announcements via it carry nothing).
  for (int i = 0; i < 30; ++i) {
    stream.add(make_record(Asn(20205), "20205 3356 12654",
                           "3356:" + std::to_string(2000 + i % 5), i));
    stream.add(make_record(Asn(20811), "20811 3356 12654", "", 100 + i));
  }
  auto evidence = test::run_pass(analytics::TomographyPass{}, stream);

  const AsEvidence* transit = find_as(evidence, Asn(3356));
  ASSERT_NE(transit, nullptr);
  EXPECT_EQ(transit->classification, CommunityBehavior::kTagger);
  EXPECT_EQ(transit->on_path, 60u);
  // Tag signal only counts where the communities are visible.
  EXPECT_EQ(transit->own_namespace_tagged, 30u);

  const AsEvidence* propagator = find_as(evidence, Asn(20205));
  ASSERT_NE(propagator, nullptr);
  EXPECT_EQ(propagator->classification, CommunityBehavior::kPropagator);
  EXPECT_EQ(propagator->as_peer, 30u);
  EXPECT_EQ(propagator->as_peer_with_foreign, 30u);

  const AsEvidence* cleaner = find_as(evidence, Asn(20811));
  ASSERT_NE(cleaner, nullptr);
  EXPECT_EQ(cleaner->classification, CommunityBehavior::kCleaner);
  EXPECT_EQ(cleaner->as_peer_with_communities, 0u);
}

TEST(Tomography, InsufficientEvidenceIsUnknown) {
  UpdateStream stream;
  stream.add(make_record(Asn(20205), "20205 3356 12654", "3356:1", 0));
  auto evidence = test::run_pass(analytics::TomographyPass{}, stream);
  const AsEvidence* peer = find_as(evidence, Asn(20205));
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->classification, CommunityBehavior::kUnknown);
}

TEST(Tomography, PeerTaggingItsOwnNamespace) {
  UpdateStream stream;
  for (int i = 0; i < 30; ++i) {
    stream.add(
        make_record(Asn(20205), "20205 3356 12654", "20205:100", i));
  }
  auto evidence = test::run_pass(analytics::TomographyPass{}, stream);
  const AsEvidence* peer = find_as(evidence, Asn(20205));
  ASSERT_NE(peer, nullptr);
  EXPECT_EQ(peer->classification, CommunityBehavior::kTagger);
}

TEST(Tomography, SortedByOnPathVolume) {
  UpdateStream stream;
  for (int i = 0; i < 20; ++i) {
    stream.add(make_record(Asn(20205), "20205 3356 12654", "", i));
  }
  for (int i = 0; i < 5; ++i) {
    stream.add(make_record(Asn(20811), "20811 174 48", "", 50 + i));
  }
  auto evidence = test::run_pass(analytics::TomographyPass{}, stream);
  ASSERT_GE(evidence.size(), 2u);
  EXPECT_GE(evidence[0].on_path, evidence[1].on_path);
}

TEST(Tomography, WithdrawalsIgnored) {
  UpdateStream stream;
  UpdateRecord w;
  w.time = Timestamp::from_unix_seconds(0);
  w.session = SessionKey{"rrc00", Asn(1), IpAddress::from_string("192.0.2.1")};
  w.prefix = Prefix::from_string("84.205.64.0/24");
  w.announcement = false;
  stream.add(w);
  EXPECT_TRUE(test::run_pass(analytics::TomographyPass{}, stream).empty());
}

TEST(Tomography, LabelsDistinct) {
  EXPECT_STREQ(label(CommunityBehavior::kTagger), "tagger");
  EXPECT_STREQ(label(CommunityBehavior::kCleaner), "cleaner");
  EXPECT_STREQ(label(CommunityBehavior::kPropagator), "propagator");
  EXPECT_STREQ(label(CommunityBehavior::kMixed), "mixed");
  EXPECT_STREQ(label(CommunityBehavior::kUnknown), "unknown");
}

}  // namespace
}  // namespace bgpcc::core
