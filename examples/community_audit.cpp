// community_audit: the paper's §7 "future work", implemented — per-AS
// community tomography (tagger / cleaner / propagator), peering-point
// inference from community exploration, and anomaly detection. Everything
// is computed from collector streams alone and scored against the
// simulator's ground truth.
//
// Run: ./community_audit
#include <cstdio>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/anomaly.h"
#include "core/peering.h"
#include "core/tables.h"
#include "core/tomography.h"
#include "synth/beacon_internet.h"

using namespace bgpcc;

int main() {
  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = 15;
  options.collector_count = 2;
  options.beacon_count = 4;
  synth::BeaconInternet internet(options);
  internet.run_day();

  // One observe_stream feeds both the tomography and the anomaly scan.
  core::UpdateStream stream = internet.stream();
  analytics::AnalysisDriver driver;
  auto tomography = driver.add(analytics::TomographyPass{});
  auto anomalies = driver.add(analytics::AnomalyPass{});
  driver.observe_stream(stream);
  auto evidence = driver.report(tomography);

  core::TextTable table(
      {"AS", "on-path", "own-ns tags", "peer anns", "w/ comms", "inferred",
       "ground truth"});
  int correct = 0;
  int evaluated = 0;
  for (const core::AsEvidence& e : evidence) {
    std::string truth = "-";
    for (const synth::PeerInfo& peer : internet.peers()) {
      if (peer.asn != e.asn) continue;
      switch (peer.hygiene) {
        case synth::PeerHygiene::kPropagate:
          truth = "propagate";
          break;
        case synth::PeerHygiene::kCleanEgress:
        case synth::PeerHygiene::kCleanIngress:
          truth = "cleaner";
          break;
        case synth::PeerHygiene::kTagger:
          truth = "tagger";
          break;
      }
    }
    if (e.asn == Asn(synth::BeaconInternet::kAsnT) ||
        e.asn == Asn(synth::BeaconInternet::kAsnH)) {
      truth = "tagger";
    }
    const char* inferred = core::label(e.classification);
    if (truth != "-" && e.classification != core::CommunityBehavior::kUnknown) {
      ++evaluated;
      bool match = truth == inferred ||
                   (truth == "propagate" && std::string(inferred) == "propagator");
      if (match) ++correct;
    }
    if (e.on_path >= 10) {
      table.add_row({e.asn.to_string(), core::with_commas(e.on_path),
                     core::with_commas(e.own_namespace_tagged),
                     core::with_commas(e.as_peer),
                     core::with_commas(e.as_peer_with_communities), inferred,
                     truth});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  if (evaluated > 0) {
    std::printf("inference accuracy vs simulator ground truth: %d/%d (%s)\n",
                correct, evaluated,
                core::percent(static_cast<double>(correct) / evaluated)
                    .c_str());
  }

  // Peering inference (§7: interconnection counts from outside).
  std::printf("\n== inferred interconnections (from community exploration) "
              "==\n\n");
  core::TextTable peering(
      {"transit", "neighbor", "announcements", "ingress tag-sets",
       "location codes", "ground truth"});
  for (const core::PeeringEstimate& e : core::infer_peering(stream)) {
    if (e.distinct_ingress_tagsets == 0) continue;
    std::string truth = "-";
    if (e.transit == Asn(synth::BeaconInternet::kAsnT) &&
        e.neighbor == Asn(synth::BeaconInternet::kAsnU1)) {
      truth = std::to_string(internet.options().transit_ingresses) +
              " sessions";
    }
    peering.add_row({e.transit.to_string(), e.neighbor.to_string(),
                     core::with_commas(e.announcements),
                     std::to_string(e.distinct_ingress_tagsets),
                     std::to_string(e.distinct_location_codes), truth});
  }
  std::printf("%s\n", peering.to_string().c_str());

  // Anomaly scan: a healthy simulated day should be quiet.
  core::AnomalyReport report = driver.report(anomalies);
  std::printf("== anomaly scan ==\n\n");
  std::printf("population nn share: mean %s, stddev %s\n",
              core::percent(report.population_mean_nn_share).c_str(),
              core::percent(report.population_stddev_nn_share).c_str());
  std::printf("duplicate outliers: %zu, novelty bursts: %zu\n",
              report.duplicate_outliers.size(),
              report.novelty_bursts.size());
  for (const core::DuplicateOutlier& outlier : report.duplicate_outliers) {
    std::printf("  OUTLIER %s nn=%llu/%llu (%.1f sigma)\n",
                outlier.session.to_string().c_str(),
                static_cast<unsigned long long>(outlier.nn),
                static_cast<unsigned long long>(outlier.classified),
                outlier.sigma);
  }
  return 0;
}
