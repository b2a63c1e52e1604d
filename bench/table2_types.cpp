// Table 2: announcement-type shares — paper vs measured, for both columns:
//   *d_mar20  (macro generator, one scaled day)
//   d_beacon  (event-driven beacon internet, one simulated day)
//
// The d_beacon column runs on the analytics engine: the collectors' logs
// go through the MRT engine (synth::ingest) and ClassifierPass observes
// inline on the ingestion shard threads, one traversal, no materialized
// intermediate stream walks.
//
// Usage: table2_types [volume_scale_denom]
#include <cstdio>
#include <cstdlib>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/tables.h"
#include "synth/beacon_internet.h"
#include "synth/ingest.h"
#include "synth/macrogen.h"

using namespace bgpcc;

namespace {

// Paper Table 2.
constexpr double kPaperMar20[6] = {33.7, 15.1, 24.5, 25.7, 0.3, 0.7};
constexpr double kPaperBeacon[6] = {44.6, 29.9, 13.8, 11.2, 0.2, 0.3};

}  // namespace

int main(int argc, char** argv) {
  double volume_denom = argc > 1 ? std::atof(argv[1]) : 2048.0;

  std::printf("generating *d_mar20 column (macro, volume 1/%g)...\n",
              volume_denom);
  synth::MacroGen macro(
      synth::MacroParams::march2020(1.0 / volume_denom, 1.0 / 64));
  core::TypeCounts mar20 = macro.classify_day().types;

  std::printf("simulating d_beacon column (event-driven beacon day)...\n\n");
  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = 15;
  options.collector_count = 3;
  options.beacon_count = 5;
  synth::BeaconInternet internet(options);
  internet.run_day();

  analytics::AnalysisDriver driver;
  auto types = driver.add(analytics::ClassifierPass{});
  core::IngestOptions ingest;
  ingest.num_threads = 0;  // hardware concurrency
  driver.attach(ingest);
  (void)synth::ingest(internet.collectors(), ingest);
  core::TypeCounts beacon = driver.report(types).counts;

  core::TextTable table({"type", "observed changes", "*d_mar20 paper",
                         "*d_mar20 meas.", "d_beacon paper",
                         "d_beacon meas."});
  const char* descriptions[6] = {
      "path + community", "path only",       "community only",
      "no change",        "prepending+comm.", "prepending only"};
  for (std::size_t i = 0; i < 6; ++i) {
    core::AnnouncementType t = core::kAllAnnouncementTypes[i];
    table.add_row({core::label(t), descriptions[i],
                   core::format_double(kPaperMar20[i], 1) + "%",
                   core::percent(mar20.share(t)),
                   core::format_double(kPaperBeacon[i], 1) + "%",
                   core::percent(beacon.share(t))});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("key shapes:\n");
  double mar_ncnn = mar20.share(core::AnnouncementType::kNc) +
                    mar20.share(core::AnnouncementType::kNn);
  std::printf("  *d_mar20: nc+nn (no path change) = %s   (paper: 50.2%%)\n",
              core::percent(mar_ncnn).c_str());
  double beacon_pcpn = beacon.share(core::AnnouncementType::kPc) +
                       beacon.share(core::AnnouncementType::kPn);
  std::printf("  d_beacon: pc+pn (path change)    = %s   (paper: 74.5%%)\n",
              core::percent(beacon_pcpn).c_str());
  std::printf("  d_beacon announcements=%llu withdrawals=%llu (paper ratio "
              "~5.4:1)\n",
              static_cast<unsigned long long>(beacon.total() +
                                              beacon.first_sightings),
              static_cast<unsigned long long>(beacon.withdrawals));
  return 0;
}
