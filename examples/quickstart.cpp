// Quickstart: build a tiny internet, flap a link, and watch a community
// change ripple to a route collector — then classify what the collector
// saw with the paper's announcement-type classifier.
//
//   A (AS100, origin) -- B (AS200, geo-tags at ingress) -- collector
//
// Run: ./quickstart
#include <cstdio>
#include <optional>

#include "core/classifier.h"
#include "sim/network.h"
#include "synth/ingest.h"

using namespace bgpcc;

int main() {
  sim::Network net;

  // Two routers and a collector. Vendor profiles control duplicate
  // behavior; cisco_ios() reproduces the paper's default observations.
  Router& a = net.add_router("A", Asn(100), VendorProfile::cisco_ios());
  net.add_router("B", Asn(200), VendorProfile::cisco_ios());
  net.add_collector("rrc00", Asn(65000));

  // B tags everything it hears from A with a geo community at ingress.
  sim::SessionOptions ab;
  ab.b_import = Policy::tag_all(Community::of(200, 301));
  net.add_session("A", "B", ab);
  net.add_session("B", "rrc00");

  net.start();

  // A announces a prefix, then changes its own community twice —
  // community-only changes that B transitively forwards.
  Prefix prefix = Prefix::from_string("203.0.113.0/24");
  for (int i = 0; i < 3; ++i) {
    net.scheduler().at(net.now() + Duration::seconds(1 + i * 10),
                       [&a, &net, prefix, i] {
                         PathAttributes base;
                         base.communities.add(
                             Community::of(100, static_cast<std::uint16_t>(i)));
                         a.originate(prefix, net.now(), std::move(base));
                       });
  }
  net.run();

  // Analyze the collector's view.
  core::UpdateStream stream = synth::ingest({&net.collector("rrc00")}).stream;
  std::printf("collector heard %zu update records\n", stream.size());
  core::Classifier classifier;
  for (const core::UpdateRecord& record : stream.records()) {
    std::optional<core::AnnouncementType> type = classifier.classify(record);
    std::printf("  %s  %-4s  path=[%s] comms={%s}\n",
                record.time.time_of_day_string().c_str(),
                type ? core::label(*type) : "new",
                record.attrs.as_path.to_string().c_str(),
                record.attrs.communities.to_string().c_str());
  }
  const core::TypeCounts counts = classifier.counts();

  std::printf("\nannouncement types:\n");
  for (core::AnnouncementType t : core::kAllAnnouncementTypes) {
    if (counts.count(t) > 0) {
      std::printf("  %s: %llu\n", core::label(t),
                  static_cast<unsigned long long>(counts.count(t)));
    }
  }
  std::printf(
      "\nThe community-only changes show up as 'nc' — updates that alter "
      "no path\nyet still traverse (and load) every AS on the way to the "
      "collector.\n");
  return 0;
}
