// Ablation 1: community filtering — the paper's operational
// recommendation, grounded in its lab experiments Exp3/Exp4 (§3,
// src/synth/labtopo.h). Sweeps the fraction of cleaning peers and compares
// ingress vs egress placement; then sweeps geo-tagging granularity (number
// of distinct transit ingress tags) against exploration burst size.
#include <cstdio>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/beacon.h"
#include "core/tables.h"
#include "synth/beacon_internet.h"

using namespace bgpcc;

namespace {

struct DayCounts {
  std::size_t collector_messages = 0;
  std::uint64_t nc = 0;
  std::uint64_t nn = 0;
  std::size_t exploration_events = 0;
  double mean_event_len = 0.0;
};

DayCounts run_day(double clean_fraction, bool ingress, int ingresses) {
  synth::BeaconOptions options;
  options.transit_ingresses = ingresses;
  options.peers_per_collector = 12;
  options.collector_count = 2;
  options.beacon_count = 3;
  options.tagger_fraction = 0.0;
  options.clean_ingress_fraction = ingress ? clean_fraction : 0.0;
  options.clean_egress_fraction = ingress ? 0.0 : clean_fraction;
  synth::BeaconInternet internet(options);
  core::BeaconSchedule schedule;
  internet.run_day(schedule);

  DayCounts counts;
  core::UpdateStream stream = internet.stream();
  counts.collector_messages = stream.size();
  analytics::AnalysisDriver driver;
  auto classifier = driver.add(analytics::ClassifierPass{});
  auto exploration = driver.add(analytics::ExplorationPass{schedule});
  driver.observe_stream(stream);
  core::TypeCounts types = driver.report(classifier).counts;
  counts.nc = types.count(core::AnnouncementType::kNc);
  counts.nn = types.count(core::AnnouncementType::kNn);
  auto events = driver.report(exploration);
  counts.exploration_events = events.size();
  for (const auto& e : events) {
    counts.mean_event_len += e.nc_count;
  }
  if (!events.empty()) {
    counts.mean_event_len /= static_cast<double>(events.size());
  }
  return counts;
}

}  // namespace

int main() {
  std::printf("== cleaning-fraction sweep (egress vs ingress placement) ==\n");
  std::printf("(peer population cleaning communities; collector-side message "
              "load)\n\n");
  core::TextTable table({"clean fraction", "placement", "collector msgs",
                         "nc", "nn"});
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    for (bool ingress : {false, true}) {
      if (fraction == 0.0 && ingress) continue;
      DayCounts counts = run_day(fraction, ingress, 6);
      table.add_row({core::percent(fraction, 0),
                     fraction == 0.0 ? "-" : (ingress ? "ingress" : "egress"),
                     core::with_commas(counts.collector_messages),
                     core::with_commas(counts.nc),
                     core::with_commas(counts.nn)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected shape: nc falls as cleaning rises; egress cleaning "
              "converts nc into nn\n(Exp3) while ingress cleaning removes "
              "the messages entirely (Exp4).\n\n");

  std::printf("== geo-tagging granularity sweep ==\n");
  std::printf("(more distinct ingress tags -> longer community exploration "
              "bursts)\n\n");
  core::TextTable granularity(
      {"transit ingresses", "exploration events", "mean nc per event", "nc"});
  for (int ingresses : {2, 4, 6, 8}) {
    DayCounts counts = run_day(0.0, false, ingresses);
    granularity.add_row({std::to_string(ingresses),
                         core::with_commas(counts.exploration_events),
                         core::format_double(counts.mean_event_len, 2),
                         core::with_commas(counts.nc)});
  }
  std::printf("%s", granularity.to_string().c_str());
  return 0;
}
