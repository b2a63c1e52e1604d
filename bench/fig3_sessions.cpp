// Figure 3: announcement types per BGP session for one beacon prefix at
// one collector (paper: 84.205.64.0/24 at rrc00, March 15, 2020).
//
// Prints the per-session stacked counts sorted by announcement volume —
// the paper's observation is that every session shows a different volume
// AND a different type mix, despite watching a single beacon prefix.
// Runs on the analytics engine: the collector's log is ingested once and
// PerSessionTypesPass observes the beacon prefix's records only.
#include <cstdio>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/tables.h"
#include "synth/beacon_internet.h"
#include "synth/ingest.h"

using namespace bgpcc;

int main() {
  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = 18;
  options.collector_count = 1;  // rrc00
  options.beacon_count = 3;
  synth::BeaconInternet internet(options);
  std::printf("simulating one beacon day at rrc00...\n\n");
  internet.run_day();

  Prefix beacon = internet.beacons().front();
  analytics::AnalysisDriver driver;
  auto handle = driver.add(analytics::PerSessionTypesPass{});
  core::IngestOptions ingest;
  ingest.num_threads = 0;  // hardware concurrency
  const core::UpdateStream stream =
      synth::ingest({&internet.network().collector("rrc00")}, ingest).stream;
  for (const core::UpdateRecord& record : stream.records()) {
    if (record.prefix == beacon) driver.observe(record);
  }
  auto per_session = driver.report(handle);

  std::printf("beacon prefix %s, %zu sessions\n\n",
              beacon.to_string().c_str(), per_session.size());
  core::TextTable table({"session (peer)", "hygiene/vendor", "total", "pc",
                         "pn", "nc", "nn", "xc", "xn", "wdr"});
  for (const auto& [key, counts] : per_session) {
    std::string info = "?";
    for (const synth::PeerInfo& peer : internet.peers()) {
      if (peer.asn == key.peer_asn) {
        info = std::string(synth::label(peer.hygiene)) + "/" + peer.vendor;
      }
    }
    table.add_row({key.peer_asn.to_string(), info,
                   core::with_commas(counts.total()),
                   core::with_commas(counts.count(core::AnnouncementType::kPc)),
                   core::with_commas(counts.count(core::AnnouncementType::kPn)),
                   core::with_commas(counts.count(core::AnnouncementType::kNc)),
                   core::with_commas(counts.count(core::AnnouncementType::kNn)),
                   core::with_commas(counts.count(core::AnnouncementType::kXc)),
                   core::with_commas(counts.count(core::AnnouncementType::kXn)),
                   core::with_commas(counts.withdrawals)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape: sessions differ in both volume and type mix; cleaning "
              "peers show nn\nwhere propagating peers show nc.\n");
  return 0;
}
