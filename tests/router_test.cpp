// Router behavior tests: attribute handling, iBGP/eBGP rules, duplicate
// generation/suppression — driven through small simulated networks.
#include <gtest/gtest.h>

#include <ostream>

#include "netbase/error.h"
#include "sim/network.h"

namespace bgpcc {
namespace {

using sim::Network;
using sim::SessionOptions;

Prefix p() { return Prefix::from_string("203.0.113.0/24"); }

TEST(Router, EbgpPropagationSetsMandatoryAttributes) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  net.add_session("B", "C");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1),
                     [&] { a.originate(p(), net.now()); });
  net.run();

  const auto& messages = net.collector("C").messages();
  ASSERT_EQ(messages.size(), 1u);
  const UpdateMessage& update = messages[0].update;
  ASSERT_TRUE(update.attrs.has_value());
  // B prepended itself after A: path "200 100".
  EXPECT_EQ(update.attrs->as_path.to_string(), "200 100");
  // Next hop rewritten to B's address.
  EXPECT_EQ(update.attrs->next_hop, net.router("B").address());
  // LOCAL_PREF must not cross the eBGP boundary.
  EXPECT_FALSE(update.attrs->local_pref.has_value());
}

TEST(Router, MedNotPropagatedToThirdAs) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  net.add_session("B", "C");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    PathAttributes base;
    base.med = 50;
    a.originate(p(), net.now(), std::move(base));
  });
  net.run();

  // A->B carries the MED (A originated it); B->C must not.
  const auto& messages = net.collector("C").messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_FALSE(messages[0].update.attrs->med.has_value());
  const Route* in_b = net.router("B").loc_rib().find(p());
  ASSERT_NE(in_b, nullptr);
  EXPECT_EQ(in_b->attrs.med, 50u);
}

TEST(Router, CommunitiesAreTransitiveAcrossAses) {
  // The heart of the paper: communities survive ASes that know nothing
  // about them.
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_router("D", Asn(300), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  net.add_session("B", "D");
  net.add_session("D", "C");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    PathAttributes base;
    base.communities.add(Community::of(100, 7));
    a.originate(p(), net.now(), std::move(base));
  });
  net.run();

  const auto& messages = net.collector("C").messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_TRUE(
      messages[0].update.attrs->communities.contains(Community::of(100, 7)));
}

TEST(Router, EbgpLoopRejected) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_session("A", "B");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    PathAttributes base;
    a.originate(p(), net.now(), std::move(base));
  });
  net.run();
  // B received the route; now simulate a loop by injecting an update whose
  // path already contains B's ASN.
  UpdateMessage poison;
  poison.announced = {Prefix::from_string("198.51.100.0/24")};
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100, 200, 300});
  attrs.next_hop = IpAddress::from_string("10.0.0.1");
  poison.attrs = attrs;
  Router& b = net.router("B");
  b.handle_update(1, poison, net.now());
  EXPECT_EQ(b.stats().loop_rejected, 1u);
  EXPECT_EQ(b.loc_rib().find(Prefix::from_string("198.51.100.0/24")),
            nullptr);
}

TEST(Router, NoExportStopsAtEbgpBoundary) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  net.add_session("B", "C");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    PathAttributes base;
    base.communities.add(Community::no_export());
    a.originate(p(), net.now(), std::move(base));
  });
  net.run();
  // B holds the route but must not export it to the collector (eBGP).
  EXPECT_NE(net.router("B").loc_rib().find(p()), nullptr);
  EXPECT_TRUE(net.collector("C").messages().empty());
}

TEST(Router, NoAdvertiseStopsEverywhere) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_router("B2", Asn(200), VendorProfile::cisco_ios());
  net.add_session("A", "B");
  net.add_session("B", "B2");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    PathAttributes base;
    base.communities.add(Community::no_advertise());
    a.originate(p(), net.now(), std::move(base));
  });
  net.run();
  EXPECT_NE(net.router("B").loc_rib().find(p()), nullptr);
  // Not even to the iBGP neighbor.
  EXPECT_EQ(net.router("B2").loc_rib().find(p()), nullptr);
}

TEST(Router, IbgpRoutesNotReflected) {
  // A -- B1 == B2 == B3 chain (== is iBGP, full mesh absent on purpose):
  // B3 must not learn the route through B2 (no reflection).
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B1", Asn(200), VendorProfile::cisco_ios());
  net.add_router("B2", Asn(200), VendorProfile::cisco_ios());
  net.add_router("B3", Asn(200), VendorProfile::cisco_ios());
  net.add_session("A", "B1");
  net.add_session("B1", "B2");
  net.add_session("B2", "B3");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1),
                     [&] { a.originate(p(), net.now()); });
  net.run();
  EXPECT_NE(net.router("B2").loc_rib().find(p()), nullptr);
  EXPECT_EQ(net.router("B3").loc_rib().find(p()), nullptr);
}

TEST(Router, IbgpKeepsLocalPrefAndPath) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B1", Asn(200), VendorProfile::cisco_ios());
  net.add_router("B2", Asn(200), VendorProfile::cisco_ios());
  SessionOptions import_pref;
  import_pref.b_import = [] {
    Policy policy;
    PolicyRule rule;
    rule.actions.set_local_pref = 250;
    policy.add_rule(rule);
    return policy;
  }();
  net.add_session("A", "B1", import_pref);
  net.add_session("B1", "B2");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1),
                     [&] { a.originate(p(), net.now()); });
  net.run();
  const Route* r = net.router("B2").loc_rib().find(p());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->attrs.local_pref, 250u);          // preserved over iBGP
  EXPECT_EQ(r->attrs.as_path.to_string(), "100");  // no self-prepend
}

TEST(Router, WithdrawPropagates) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  net.add_session("B", "C");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1),
                     [&] { a.originate(p(), net.now()); });
  net.scheduler().at(net.now() + Duration::seconds(5),
                     [&] { a.withdraw_origin(p(), net.now()); });
  net.run();
  const auto& messages = net.collector("C").messages();
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_FALSE(messages[0].update.announced.empty());
  EXPECT_TRUE(messages[1].update.is_withdraw_only());
  EXPECT_EQ(net.router("B").loc_rib().find(p()), nullptr);
}

TEST(Router, WithdrawNotSentIfNeverAdvertised) {
  // B denies the route toward C; the origin withdrawal must not produce a
  // spurious withdraw on the C session.
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  SessionOptions deny;
  deny.a_export = Policy::deny_all();
  net.add_session("B", "C", deny);
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1),
                     [&] { a.originate(p(), net.now()); });
  net.scheduler().at(net.now() + Duration::seconds(5),
                     [&] { a.withdraw_origin(p(), net.now()); });
  net.run();
  EXPECT_TRUE(net.collector("C").messages().empty());
}

TEST(Router, SessionDownPurgesAndSessionUpRefreshes) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  std::uint32_t ab = net.add_session("A", "B");
  net.add_session("B", "C");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1),
                     [&] { a.originate(p(), net.now()); });
  net.run();
  ASSERT_EQ(net.collector("C").messages().size(), 1u);

  net.schedule_session_down(ab, net.now() + Duration::seconds(1));
  net.run();
  EXPECT_EQ(net.router("B").loc_rib().find(p()), nullptr);
  ASSERT_EQ(net.collector("C").messages().size(), 2u);
  EXPECT_TRUE(net.collector("C").messages()[1].update.is_withdraw_only());

  net.schedule_session_up(ab, net.now() + Duration::seconds(1));
  net.run();
  EXPECT_NE(net.router("B").loc_rib().find(p()), nullptr);
  ASSERT_EQ(net.collector("C").messages().size(), 3u);
  EXPECT_FALSE(net.collector("C").messages()[2].update.announced.empty());
}

TEST(Router, DuplicateReceivedUpdatesAreAbsorbed) {
  Network net;
  net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_session("A", "B");
  net.start();
  net.run();
  UpdateMessage update;
  update.announced = {p()};
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100});
  attrs.next_hop = IpAddress::from_string("10.0.0.1");
  update.attrs = attrs;
  Router& b = net.router("B");
  b.handle_update(1, update, net.now());
  b.handle_update(1, update, net.now());
  EXPECT_EQ(b.stats().duplicate_updates_received, 1u);
}

TEST(Router, OriginatedRouteWinsOverLearned) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  Router& b = net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_session("A", "B");
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    a.originate(p(), net.now());
    b.originate(p(), net.now());
  });
  net.run();
  const Route* in_b = b.loc_rib().find(p());
  ASSERT_NE(in_b, nullptr);
  EXPECT_EQ(in_b->source.neighbor_id, 0u);  // local, not the learned one
}

TEST(Router, OriginateRejectsNonEmptyPath) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  PathAttributes base;
  base.as_path = AsPath::sequence({1});
  EXPECT_THROW(a.originate(p(), net.now(), std::move(base)), ConfigError);
}

TEST(Router, MraiBatchesUpdates) {
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  SessionOptions mrai;
  mrai.a_mrai = Duration::seconds(30);  // B is endpoint a on this session
  net.add_session("B", "C", mrai);
  net.start();
  // Three quick attribute changes at the origin within the MRAI window.
  for (int i = 1; i <= 3; ++i) {
    net.scheduler().at(net.now() + Duration::seconds(i), [&a, &net, i] {
      PathAttributes base;
      base.communities.add(
          Community::of(100, static_cast<std::uint16_t>(i)));
      a.originate(p(), net.now(), std::move(base));
    });
  }
  net.run();
  // Without MRAI there would be 3 messages; batching collapses the burst.
  const auto& messages = net.collector("C").messages();
  ASSERT_EQ(messages.size(), 2u);  // first immediate, then one batched
  EXPECT_TRUE(
      messages[1].update.attrs->communities.contains(Community::of(100, 3)));
}

// Vendor duplicate behavior sweep: an attribute-identical re-advertisement
// is emitted by cisco/bird and suppressed by junos/ideal.
struct VendorCase {
  const char* name;
  bool expect_duplicate;
};

// Prints the vendor, so CTest names carry no raw parameter bytes.
void PrintTo(const VendorCase& c, std::ostream* os) { *os << c.name; }

class VendorDuplicateSweep : public ::testing::TestWithParam<VendorCase> {};

TEST_P(VendorDuplicateSweep, EgressCleaningDuplicate) {
  VendorProfile vendor = GetParam().name == std::string("junos")
                             ? VendorProfile::junos()
                         : GetParam().name == std::string("bird")
                             ? VendorProfile::bird()
                         : GetParam().name == std::string("ideal")
                             ? VendorProfile::ideal()
                             : VendorProfile::cisco_ios();
  Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), vendor);
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  SessionOptions clean;
  clean.a_export = Policy::clean_all();  // B cleans toward C
  net.add_session("B", "C", clean);
  net.start();
  net.scheduler().at(net.now() + Duration::seconds(1), [&] {
    PathAttributes base;
    base.communities.add(Community::of(100, 1));
    a.originate(p(), net.now(), std::move(base));
  });
  // Community-only change upstream: post-cleaning output is identical.
  net.scheduler().at(net.now() + Duration::seconds(5), [&] {
    PathAttributes base;
    base.communities.add(Community::of(100, 2));
    a.originate(p(), net.now(), std::move(base));
  });
  net.run();
  std::size_t expected = GetParam().expect_duplicate ? 2u : 1u;
  EXPECT_EQ(net.collector("C").messages().size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Vendors, VendorDuplicateSweep,
    ::testing::Values(VendorCase{"cisco", true}, VendorCase{"bird", true},
                      VendorCase{"junos", false}, VendorCase{"ideal", false}),
    [](const ::testing::TestParamInfo<VendorCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bgpcc
