// Robustness & property tests across modules: codec fuzzing, text
// round-trips, attribute transitivity rules, runtime reconfiguration.
#include <gtest/gtest.h>

#include <random>

#include "bgp/codec.h"
#include "core/classifier.h"
#include "netbase/error.h"
#include "sim/network.h"
#include "synth/macrogen.h"

namespace bgpcc {
namespace {

UpdateMessage rich_update() {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("84.205.64.0/24"));
  update.announced.push_back(Prefix::from_string("2001:db8::/32"));
  update.withdrawn.push_back(Prefix::from_string("198.51.100.0/24"));
  PathAttributes attrs;
  attrs.as_path = AsPath::from_string("20205 3356 {174 3257} 12654");
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  attrs.med = 10;
  attrs.local_pref = 120;
  attrs.communities.add(Community::of(3356, 2001));
  attrs.communities.add(Community::no_export());
  attrs.large_communities.add(LargeCommunity{3356, 7, 9});
  update.attrs = std::move(attrs);
  return update;
}

// Property: single-byte mutations of a valid message either decode to
// something or throw DecodeError/ParseError — never crash or loop.
class CodecMutationSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CodecMutationSweep, SingleByteMutationsAreSafe) {
  auto wire = encode_update(rich_update());
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::size_t> pos_dist(0, wire.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int i = 0; i < 500; ++i) {
    auto mutated = wire;
    // Mutate 1-3 bytes, but never the header length (that is framing, and
    // the caller's framing layer validates it separately).
    int mutations = 1 + i % 3;
    for (int m = 0; m < mutations; ++m) {
      std::size_t pos = pos_dist(rng);
      if (pos == 16 || pos == 17) continue;
      mutated[pos] = static_cast<std::uint8_t>(byte_dist(rng));
    }
    try {
      UpdateMessage decoded = decode_update(mutated);
      // If it decodes, re-encoding must not crash either (it may throw
      // on semantic violations, which is acceptable).
      try {
        (void)encode_update(decoded);
      } catch (const DecodeError&) {
      } catch (const ConfigError&) {
      }
    } catch (const DecodeError&) {
      // expected for most mutations
    } catch (const ParseError&) {
      // e.g. mutated prefix lengths
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecMutationSweep,
                         ::testing::Values(101u, 202u, 303u));

// Property: every random single-sequence path round-trips through text.
class AsPathTextSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AsPathTextSweep, ToStringFromStringRoundTrip) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> len_dist(0, 8);
  std::uniform_int_distribution<std::uint32_t> asn_dist(1, 4200000000u);
  for (int i = 0; i < 200; ++i) {
    std::vector<Asn> hops;
    int len = len_dist(rng);
    for (int j = 0; j < len; ++j) hops.emplace_back(asn_dist(rng));
    AsPath path = AsPath::sequence(hops);
    EXPECT_EQ(AsPath::from_string(path.to_string()), path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsPathTextSweep,
                         ::testing::Values(1u, 7u, 42u));

TEST(Robustness, PrefixTextRoundTripSweep) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<int> len_dist(0, 32);
  for (int i = 0; i < 500; ++i) {
    int len = len_dist(rng);
    Prefix p(IpAddress::v4(addr_dist(rng)).masked(len), len);
    EXPECT_EQ(Prefix::from_string(p.to_string()), p);
  }
}

TEST(Robustness, CommunityTextRoundTripSweep) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::uint32_t> raw_dist;
  for (int i = 0; i < 500; ++i) {
    Community c(raw_dist(rng));
    EXPECT_EQ(Community::from_string(c.to_string()), c);
  }
}

// Unknown optional *non-transitive* attributes must be dropped at eBGP
// re-advertisement; optional transitive ones must survive (RFC 4271 §5).
TEST(Robustness, UnknownAttributeTransitivityAcrossRouters) {
  sim::Network net;
  net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  net.add_session("A", "B");
  net.add_session("B", "C");
  net.start();
  net.run();

  UpdateMessage update;
  update.announced = {Prefix::from_string("203.0.113.0/24")};
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100});
  attrs.next_hop = IpAddress::from_string("10.0.0.1");
  RawAttribute transitive;
  transitive.flags = AttrFlags::kOptional | AttrFlags::kTransitive;
  transitive.type = 99;
  transitive.value = {1};
  attrs.add_unknown(transitive);
  RawAttribute non_transitive;
  non_transitive.flags = AttrFlags::kOptional;
  non_transitive.type = 98;
  non_transitive.value = {2};
  attrs.add_unknown(non_transitive);
  update.attrs = std::move(attrs);

  net.router("B").handle_update(1, update, net.now());
  net.run();

  const auto& messages = net.collector("C").messages();
  ASSERT_EQ(messages.size(), 1u);
  ASSERT_TRUE(messages[0].update.attrs.has_value());
  const auto& unknown = messages[0].update.attrs->unknown;
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].type, 99);  // transitive survived; 98 dropped
}

// Runtime policy reconfiguration: switching X-like cleaning from egress
// to ingress changes observable behavior on the next event (the paper's
// Exp3 -> Exp4 distinction, applied live).
TEST(Robustness, LivePolicyReconfiguration) {
  sim::Network net;
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("C", Asn(65000));
  std::uint32_t ab = net.add_session("A", "B");
  sim::SessionOptions bc;
  bc.a_export = Policy::clean_all();  // B cleans toward C (egress)
  std::uint32_t bc_id = net.add_session("B", "C", bc);
  net.start();

  auto announce = [&](int tag, std::int64_t at) {
    net.scheduler().at(net.now() + Duration::seconds(at), [&a, &net, tag] {
      PathAttributes base;
      base.communities.add(Community::of(100, static_cast<std::uint16_t>(tag)));
      a.originate(Prefix::from_string("203.0.113.0/24"), net.now(),
                  std::move(base));
    });
  };
  announce(1, 1);
  announce(2, 5);  // egress cleaning: nn duplicate reaches C
  net.run();
  ASSERT_EQ(net.collector("C").messages().size(), 2u);

  // Reconfigure: clean at ingress instead (Exp4).
  net.router("B").set_neighbor_policies(ab, Policy::clean_all(), Policy{});
  net.router("B").set_neighbor_policies(bc_id, Policy{}, Policy{});
  // The first update after reconfiguration flushes the RIB transition
  // ({100:2} -> {}) — one more duplicate on a cisco-like router.
  announce(3, 1);
  net.run();
  EXPECT_EQ(net.collector("C").messages().size(), 3u);
  // From then on, ingress cleaning absorbs community churn completely.
  announce(4, 1);
  announce(5, 5);
  net.run();
  EXPECT_EQ(net.collector("C").messages().size(), 3u);
  EXPECT_GE(net.router("B").stats().duplicate_updates_received, 2u);
}

// Macro generator + cleaning pipeline: route-server sessions produce
// peer-less paths which normalization repairs, and the classifier output
// is invariant to that repair being applied before classification.
TEST(Robustness, MacroRouteServerRepair) {
  synth::MacroParams params = synth::MacroParams::march2020(1.0 / 65536,
                                                            1.0 / 2048);
  params.sessions = 20;
  params.peers = 10;
  params.route_server_fraction = 1.0;  // every session is a route server
  synth::MacroGen gen(params);
  core::UpdateStream stream;
  gen.generate_day([&stream](const core::UpdateRecord& record) {
    stream.add(record);
  });
  ASSERT_GT(stream.size(), 100u);
  // Before repair: paths do not start with the peer ASN.
  std::size_t missing = 0;
  for (const auto& record : stream.records()) {
    if (!record.announcement) continue;
    auto first = record.attrs.as_path.first_as();
    if (!first || *first != record.session.peer_asn) ++missing;
  }
  EXPECT_GT(missing, 0u);

  core::CleaningOptions options;
  for (const core::SessionKey& key : stream.sessions()) {
    options.route_servers.emplace(key.peer_address, key.peer_asn);
  }
  core::CleaningReport report = core::clean(stream, options);
  EXPECT_EQ(report.route_server_paths_repaired, missing);
  for (const auto& record : stream.records()) {
    if (!record.announcement) continue;
    EXPECT_EQ(record.attrs.as_path.first_as(), record.session.peer_asn);
  }
}

// A withdrawn-then-reannounced origin converges to the same Loc-RIB on
// every router regardless of vendor profile (suppression only affects
// messages, never state).
TEST(Robustness, VendorProfilesConvergeToSameState) {
  for (auto vendor : {VendorProfile::cisco_ios(), VendorProfile::junos(),
                      VendorProfile::bird(), VendorProfile::ideal()}) {
    sim::Network net;
    Router& a = net.add_router("A", Asn(100), vendor);
    net.add_router("B", Asn(200), vendor);
    net.add_router("D", Asn(300), vendor);
    net.add_session("A", "B");
    net.add_session("B", "D");
    net.start();
    Prefix p = Prefix::from_string("203.0.113.0/24");
    net.scheduler().at(net.now() + Duration::seconds(1),
                       [&] { a.originate(p, net.now()); });
    net.scheduler().at(net.now() + Duration::seconds(5),
                       [&] { a.withdraw_origin(p, net.now()); });
    net.scheduler().at(net.now() + Duration::seconds(9),
                       [&] { a.originate(p, net.now()); });
    net.run();
    const Route* in_d = net.router("D").loc_rib().find(p);
    ASSERT_NE(in_d, nullptr) << vendor.name;
    EXPECT_EQ(in_d->attrs.as_path.to_string(), "200 100") << vendor.name;
  }
}

}  // namespace
}  // namespace bgpcc
