// Integration tests: the paper's §3 controlled experiments, Exp1-Exp4,
// across vendor profiles. Each TEST_P assertion corresponds to a claim in
// the paper's text.
#include <gtest/gtest.h>

#include <ostream>

#include "synth/labtopo.h"

namespace bgpcc::synth {
namespace {

struct LabCase {
  const char* vendor;
  bool junos_like;  // suppresses duplicates
};

// Prints the vendor, so CTest names carry no raw parameter bytes.
void PrintTo(const LabCase& c, std::ostream* os) { *os << c.vendor; }

VendorProfile vendor_of(const LabCase& c) {
  if (c.vendor == std::string("junos")) return VendorProfile::junos();
  if (c.vendor == std::string("bird")) return VendorProfile::bird();
  return VendorProfile::cisco_ios();
}

class LabSweep : public ::testing::TestWithParam<LabCase> {};

// Exp1: no communities. Y1 switches next hop Y2 -> Y3. An update with an
// unchanged AS path goes to X1 on duplicate-emitting vendors (Junos stays
// quiet), and nothing propagates to the collector.
TEST_P(LabSweep, Exp1InternalNextHopChange) {
  LabConfig config;
  config.scenario = LabScenario::kExp1NoCommunities;
  config.vendor = vendor_of(GetParam());
  LabExperiment experiment(config);
  LabResult result = experiment.run();

  ASSERT_TRUE(result.quiet_after_convergence);
  EXPECT_TRUE(result.collector_steady_communities.empty());

  if (GetParam().junos_like) {
    EXPECT_TRUE(result.y1_to_x1.empty())
        << "Junos must not generate the duplicate";
  } else {
    ASSERT_EQ(result.y1_to_x1.size(), 1u);
    const UpdateMessage& update = result.y1_to_x1[0].update;
    ASSERT_TRUE(update.attrs.has_value());
    // AS path unchanged: still Y Z.
    EXPECT_EQ(update.attrs->as_path.to_string(), "200 300");
    EXPECT_TRUE(update.attrs->communities.empty());
  }
  // "this update message does not propagate further".
  EXPECT_TRUE(result.x1_to_c1.empty());
}

// Exp2: geo-tagging. The collector saw Y:300; the flap changes only the
// community (Y:400). The community change alone triggers an update at X1
// — for every vendor.
TEST_P(LabSweep, Exp2GeoTaggingPropagatesCommunityOnlyUpdate) {
  LabConfig config;
  config.scenario = LabScenario::kExp2GeoTagging;
  config.vendor = vendor_of(GetParam());
  LabExperiment experiment(config);
  LabResult result = experiment.run();

  ASSERT_TRUE(result.quiet_after_convergence);
  // Steady state: Y2 is preferred, so the collector sees Y:300.
  EXPECT_TRUE(result.collector_steady_communities.contains(
      LabExperiment::y2_tag()));

  // Y1 -> X1: update with unchanged path but changed community.
  ASSERT_EQ(result.y1_to_x1.size(), 1u);
  const UpdateMessage& to_x1 = result.y1_to_x1[0].update;
  ASSERT_TRUE(to_x1.attrs.has_value());
  EXPECT_EQ(to_x1.attrs->as_path.to_string(), "200 300");
  EXPECT_TRUE(to_x1.attrs->communities.contains(LabExperiment::y3_tag()));

  // X1 -> C1: the community change is the sole trigger (X1's next hop did
  // not change); seen at the collector for ALL vendors.
  ASSERT_EQ(result.x1_to_c1.size(), 1u);
  const UpdateMessage& to_c1 = result.x1_to_c1[0].update;
  ASSERT_TRUE(to_c1.attrs.has_value());
  EXPECT_EQ(to_c1.attrs->as_path.to_string(), "100 200 300");
  EXPECT_TRUE(to_c1.attrs->communities.contains(LabExperiment::y3_tag()));
  EXPECT_FALSE(to_c1.attrs->communities.contains(LabExperiment::y2_tag()));
}

// Exp3: X1 cleans communities on egress. The collector-facing update has
// an unchanged path and no communities — an unnecessary duplicate — sent
// by Cisco/BIRD, suppressed by Junos.
TEST_P(LabSweep, Exp3EgressCleaningStillEmitsDuplicate) {
  LabConfig config;
  config.scenario = LabScenario::kExp3EgressCleaning;
  config.vendor = vendor_of(GetParam());
  LabExperiment experiment(config);
  LabResult result = experiment.run();

  ASSERT_TRUE(result.quiet_after_convergence);
  // Steady state at the collector: no communities (cleaned).
  EXPECT_TRUE(result.collector_steady_communities.empty());

  // The nc update still reaches X1 (cleaning is egress-side).
  ASSERT_EQ(result.y1_to_x1.size(), 1u);

  if (GetParam().junos_like) {
    EXPECT_TRUE(result.x1_to_c1.empty());
  } else {
    ASSERT_EQ(result.x1_to_c1.size(), 1u);
    const UpdateMessage& update = result.x1_to_c1[0].update;
    ASSERT_TRUE(update.attrs.has_value());
    EXPECT_EQ(update.attrs->as_path.to_string(), "100 200 300");
    EXPECT_TRUE(update.attrs->communities.empty());
  }
}

// Exp4: X1 cleans on ingress. The communities never enter X1's RIB, so no
// spurious update is generated at all — ingress and egress cleaning are
// observably different.
TEST_P(LabSweep, Exp4IngressCleaningStopsPropagation) {
  LabConfig config;
  config.scenario = LabScenario::kExp4IngressCleaning;
  config.vendor = vendor_of(GetParam());
  LabExperiment experiment(config);
  LabResult result = experiment.run();

  ASSERT_TRUE(result.quiet_after_convergence);
  // Y1 still sends the nc update toward X1...
  ASSERT_EQ(result.y1_to_x1.size(), 1u);
  // ...but X1 absorbs it for every vendor.
  EXPECT_TRUE(result.x1_to_c1.empty());
  Router& x1 = experiment.network().router("X1");
  EXPECT_GE(x1.stats().duplicate_updates_received, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Vendors, LabSweep,
    ::testing::Values(LabCase{"cisco", false}, LabCase{"bird", false},
                      LabCase{"junos", true}),
    [](const ::testing::TestParamInfo<LabCase>& info) {
      return info.param.vendor;
    });

// Flap-back: restoring the link reverses the community (Y:400 -> Y:300),
// producing a second nc at the collector in Exp2.
TEST(LabRestore, Exp2FlapBackReversesCommunity) {
  LabConfig config;
  config.scenario = LabScenario::kExp2GeoTagging;
  config.vendor = VendorProfile::cisco_ios();
  config.restore_link = true;
  LabExperiment experiment(config);
  LabResult result = experiment.run();

  ASSERT_EQ(result.x1_to_c1.size(), 2u);
  EXPECT_TRUE(result.x1_to_c1[0].update.attrs->communities.contains(
      LabExperiment::y3_tag()));
  EXPECT_TRUE(result.x1_to_c1[1].update.attrs->communities.contains(
      LabExperiment::y2_tag()));
}

// The steady-state path at the collector is X Y Z in all scenarios.
TEST(LabTopology, SteadyStatePath) {
  LabExperiment experiment({});
  LabResult result = experiment.run();
  ASSERT_TRUE(result.quiet_after_convergence);
  sim::RouteCollector& c1 = experiment.network().collector("C1");
  ASSERT_FALSE(c1.messages().empty());
  const UpdateMessage& first = c1.messages().front().update;
  ASSERT_TRUE(first.attrs.has_value());
  EXPECT_EQ(first.attrs->as_path.to_string(), "100 200 300");
}

}  // namespace
}  // namespace bgpcc::synth
