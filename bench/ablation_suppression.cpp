// Ablation 2: vendor duplicate suppression (the §3 lab experiments'
// vendor split, src/synth/labtopo.h) and MRAI.
//  (a) What if every router ran Junos-style Adj-RIB-Out comparison?
//      Re-runs the beacon day under different vendor mixes and reports the
//      collector message volume plus suppressed-duplicate counts.
//  (b) MRAI batching on a community-churn burst.
#include <cstdio>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/classifier.h"
#include "core/tables.h"
#include "synth/beacon_internet.h"

using namespace bgpcc;

namespace {

void vendor_mix_row(core::TextTable& table, const char* name,
                    double junos_fraction, double bird_fraction) {
  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = 12;
  options.collector_count = 2;
  options.beacon_count = 3;
  options.junos_fraction = junos_fraction;
  options.bird_fraction = bird_fraction;
  synth::BeaconInternet internet(options);
  internet.run_day();

  core::UpdateStream stream = internet.stream();
  analytics::AnalysisDriver driver;
  auto classifier = driver.add(analytics::ClassifierPass{});
  driver.observe_stream(stream);
  core::TypeCounts types = driver.report(classifier).counts;
  RouterStats stats = internet.network().total_router_stats();
  table.add_row({name, core::with_commas(stream.size()),
                 core::with_commas(types.count(core::AnnouncementType::kNn)),
                 core::with_commas(stats.duplicates_sent),
                 core::with_commas(stats.duplicates_suppressed)});
}

}  // namespace

int main() {
  std::printf("== vendor duplicate-suppression ablation (beacon day) ==\n\n");
  core::TextTable table({"population", "collector msgs", "nn at collectors",
                         "duplicates sent", "duplicates suppressed"});
  vendor_mix_row(table, "all cisco-like", 0.0, 0.0);
  vendor_mix_row(table, "paper-era mix", 0.25, 0.25);
  vendor_mix_row(table, "all junos-like", 1.0, 0.0);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected shape: universal suppression removes the nn"
              " duplicates but cannot\nremove nc traffic — community "
              "changes are real attribute changes.\n\n");

  std::printf("== MRAI ablation (community churn burst through a chain) ==\n\n");
  core::TextTable mrai_table(
      {"MRAI", "updates at collector", "last community seen"});
  for (std::int64_t mrai_seconds : {0ll, 30ll}) {
    sim::Network net;
    Router& origin =
        net.add_router("A", Asn(100), VendorProfile::cisco_ios());
    net.add_router("B", Asn(200), VendorProfile::cisco_ios());
    net.add_collector("C", Asn(65000));
    net.add_session("A", "B");
    sim::SessionOptions options;
    options.a_mrai = Duration::seconds(mrai_seconds);
    net.add_session("B", "C", options);
    net.start();
    // 20 community-only changes, 2 seconds apart.
    Prefix prefix = Prefix::from_string("203.0.113.0/24");
    for (int i = 1; i <= 20; ++i) {
      net.scheduler().at(net.now() + Duration::seconds(i * 2),
                         [&origin, &net, prefix, i] {
                           PathAttributes base;
                           base.communities.add(Community::of(
                               100, static_cast<std::uint16_t>(i)));
                           origin.originate(prefix, net.now(),
                                            std::move(base));
                         });
    }
    net.run();
    const auto& messages = net.collector("C").messages();
    std::string last_comms;
    for (auto it = messages.rbegin(); it != messages.rend(); ++it) {
      if (it->update.attrs) {
        last_comms = it->update.attrs->communities.to_string();
        break;
      }
    }
    mrai_table.add_row({mrai_seconds == 0 ? "off" : "30s",
                        core::with_commas(messages.size()), last_comms});
  }
  std::printf("%s\n", mrai_table.to_string().c_str());
  std::printf("expected shape: MRAI collapses the burst while converging to "
              "the same final\nattributes — fewer messages, same state.\n");
  return 0;
}
