// The standard pass set (analytics/standard.h): its canonical rendering
// is pinned character by character on a hand-built report set, and its
// registration order is pinned as the wire tags 1-9.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analytics/serialize.h"
#include "analytics/standard.h"

namespace bgpcc::analytics {
namespace {

core::SessionKey session(const char* collector, std::uint32_t asn,
                         const char* address) {
  return core::SessionKey{collector, Asn(asn),
                          IpAddress::from_string(address)};
}

/// One entry in every list section; per_session_types holds two, in
/// ranking order rather than line order.
StandardReports sample_reports() {
  StandardReports r;
  r.types.streams = 3;
  r.types.counts.counts = {5, 4, 3, 2, 1, 0};
  r.types.counts.first_sightings = 3;
  r.types.counts.withdrawals = 7;
  r.types.counts.nn_with_med_change = 1;

  core::TypeCounts busy;
  busy.counts = {2, 0, 1, 0, 0, 0};
  core::TypeCounts quiet;
  quiet.counts = {0, 1, 0, 0, 0, 0};
  r.sessions = {{session("rrc01", 65002, "10.0.0.2"), busy},
                {session("rrc00", 65001, "10.0.0.1"), quiet}};

  core::AsEvidence evidence;
  evidence.asn = Asn(3356);
  evidence.on_path = 10;
  evidence.own_namespace_tagged = 6;
  evidence.as_peer = 4;
  evidence.as_peer_with_communities = 3;
  evidence.as_peer_with_foreign = 2;
  evidence.classification = core::CommunityBehavior::kTagger;
  r.tomography = {evidence};

  r.communities.announcements = 12;
  r.communities.withdrawals = 7;
  r.communities.with_communities = 9;
  r.communities.community_occurrences = 20;
  r.communities.unique_communities = 5;
  r.communities.namespaces = {{3356, 4}};
  r.communities.communities_per_announcement = {3, 4, 5};

  r.duplicates.classified = 15;
  r.duplicates.nn = 2;
  r.duplicates.bursts = 1;
  r.duplicates.sessions = {{session("rrc00", 65001, "10.0.0.1"), 8, 2, 1, 2}};

  r.anomalies.population_mean_nn_share = 0.1;
  r.anomalies.population_stddev_nn_share = 0.5;
  r.anomalies.duplicate_outliers = {
      {session("rrc00", 65001, "10.0.0.1"), 2, 8, 0.25, 3.5}};
  r.anomalies.novelty_bursts = {{Community::from_string("3356:2001"),
                                 Timestamp::from_unix_seconds(1600000000),
                                 60}};

  r.revealed = {6, 1, 2, 0, 3};

  core::ExplorationEvent event;
  event.session = session("rrc01", 65002, "10.0.0.2");
  event.prefix = Prefix::from_string("192.0.2.0/24");
  event.as_path = AsPath::from_string("65002 3356");
  event.begin = Timestamp::from_unix_seconds(1600000000);
  event.end = Timestamp::from_unix_seconds(1600000060);
  event.nc_count = 4;
  event.distinct_attributes = 3;
  r.exploration = {event};

  core::AsUsage usage;
  usage.asn16 = 3356;
  usage.occurrences = 20;
  usage.distinct_values = 5;
  usage.sessions = 2;
  usage.usage_occurrences = {18, 2, 0, 0};
  usage.usage_values = {4, 1, 0, 0};
  usage.profile = core::UsageProfile::kLocation;
  r.usage = {usage};
  return r;
}

TEST(StandardRendering, IsPinned) {
  EXPECT_EQ(sample_reports().render(),
            "[classifier]\n"
            "streams 3\n"
            "pc=5 pn=4 nc=3 nn=2 xc=1 xn=0 first=3 withdrawals=7 nn_med=1\n"
            "[per_session_types] 2\n"
            "rrc00|AS65001|10.0.0.1 pc=0 pn=1 nc=0 nn=0 xc=0 xn=0 first=0 "
            "withdrawals=0 nn_med=0\n"
            "rrc01|AS65002|10.0.0.2 pc=2 pn=0 nc=1 nn=0 xc=0 xn=0 first=0 "
            "withdrawals=0 nn_med=0\n"
            "[tomography] 1\n"
            "3356 10 6 4 3 2 tagger\n"
            "[community_stats]\n"
            "announcements 12 withdrawals 7 with_communities 9 occurrences 20 "
            "unique 5\n"
            "histogram 3 4 5\n"
            "[community_namespaces] 1\n"
            "3356 4\n"
            "[duplicate_burst]\n"
            "classified 15 nn 2 bursts 1\n"
            "[duplicate_sessions] 1\n"
            "rrc00|AS65001|10.0.0.1 8 2 1 2\n"
            "[anomaly]\n"
            "mean 0.10000000000000001 stddev 0.5\n"
            "[duplicate_outliers] 1\n"
            "rrc00|AS65001|10.0.0.1 2 8 0.25 3.5\n"
            "[novelty_bursts] 1\n"
            "3356:2001 1600000000000000 60\n"
            "[revealed]\n"
            "6 1 2 0 3\n"
            "[exploration] 1\n"
            "rrc01|AS65002|10.0.0.2 192.0.2.0/24 65002 3356 1600000000000000 "
            "1600000060000000 4 3\n"
            "[usage] 1\n"
            "3356 20 5 2 18 2 0 0 4 1 0 0 location\n");
}

TEST(StandardPasses, RegistersTheWireTagsInOrder) {
  AnalysisDriver driver;
  static_cast<void>(StandardPasses::add(driver));
  std::ostringstream out;
  driver.save_state(out);
  std::istringstream in(out.str());
  const std::vector<serialize::PassTag> tags = serialize::read_state_tags(in);
  ASSERT_EQ(tags.size(), 9u);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned>(tags[i]), i + 1) << i;
  }
}

}  // namespace
}  // namespace bgpcc::analytics
