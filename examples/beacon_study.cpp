// Beacon study: simulate one day of RIPE-style routing beacons on the
// synthetic internet, export each collector's view as a real MRT file,
// and run the paper's §5/§6 analyses on the result.
//
// Run: ./beacon_study [output_dir]
#include <cstdio>
#include <string>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/beacon.h"
#include "core/tables.h"
#include "synth/beacon_internet.h"

using namespace bgpcc;

int main(int argc, char** argv) {
  std::string output_dir = argc > 1 ? argv[1] : ".";

  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = 12;
  options.collector_count = 2;
  options.beacon_count = 3;
  synth::BeaconInternet internet(options);

  std::printf("simulating one beacon day (%d beacons, %d collectors)...\n",
              options.beacon_count, options.collector_count);
  core::BeaconSchedule schedule;
  internet.run_day(schedule);

  // Export MRT archives — the same bytes a RouteViews/RIS mirror serves.
  for (const std::string& name : internet.collector_names()) {
    std::string path = output_dir + "/" + name + ".mrt";
    internet.network().collector(name).write_mrt(path);
    std::printf("wrote %s (%zu messages)\n", path.c_str(),
                internet.network().collector(name).message_count());
  }

  core::UpdateStream stream = internet.stream();
  std::printf("\n%zu records (%zu announcements, %zu withdrawals) on %zu "
              "sessions\n",
              stream.size(), stream.announcement_count(),
              stream.withdrawal_count(), stream.sessions().size());

  // One pass over the stream feeds all three analyses.
  analytics::AnalysisDriver driver;
  auto types = driver.add(analytics::ClassifierPass{});
  auto exploration = driver.add(analytics::ExplorationPass{schedule});
  auto revealed_pass = driver.add(analytics::RevealedPass{schedule});
  driver.observe_stream(stream);

  // Announcement-type mix (Table 2's d_beacon column).
  core::TypeCounts counts = driver.report(types).counts;
  core::TextTable table({"type", "count", "share"});
  for (core::AnnouncementType t : core::kAllAnnouncementTypes) {
    table.add_row({core::label(t), core::with_commas(counts.count(t)),
                   core::percent(counts.share(t))});
  }
  std::printf("\nannouncement types (d_beacon):\n%s",
              table.to_string().c_str());

  // Community exploration events (§6, Figure 4's mechanism).
  auto events = driver.report(exploration);
  std::printf("\ncommunity exploration events: %zu\n", events.size());
  for (std::size_t i = 0; i < events.size() && i < 5; ++i) {
    const core::ExplorationEvent& e = events[i];
    std::printf("  path [%s]: %d nc announcements, %d distinct community "
                "attributes\n",
                e.as_path.to_string().c_str(), e.nc_count,
                e.distinct_attributes);
  }

  // Revealed information (§6, Figure 6's per-day numbers).
  core::RevealedStats revealed = driver.report(revealed_pass);
  std::printf("\nrevealed community attributes: %llu unique\n",
              static_cast<unsigned long long>(revealed.total_unique));
  std::printf("  withdrawal-phase exclusive: %llu (%s)\n",
              static_cast<unsigned long long>(revealed.withdrawal_only),
              core::percent(revealed.withdrawal_ratio()).c_str());
  std::printf("  announce-phase exclusive:   %llu\n",
              static_cast<unsigned long long>(revealed.announce_only));
  std::printf("  outside phases only:        %llu\n",
              static_cast<unsigned long long>(revealed.outside_only));
  std::printf("  ambiguous:                  %llu\n",
              static_cast<unsigned long long>(revealed.ambiguous));
  return 0;
}
