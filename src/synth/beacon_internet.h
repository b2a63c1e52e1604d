// A synthetic beacon-measurement internet (the d_beacon substitute).
//
// Topology (ASNs follow the paper's running example):
//
//   O (AS12654, beacon origin)
//   ├── U1 (AS174)  ── T1..TK (AS3356, one border router per ingress city;
//   │                   full iBGP mesh; each tags city/country/continent
//   │                   communities at eBGP ingress)
//   └── U2 (AS50304) ── H1 (AS6939, tags one community)
//                        M1/M2 (AS2914, second transit, no tagging)
//
//   Peer ASes (AS20000+i) buy from T (and subsets of {H, M}), and feed one
//   collector each. Peers differ in community hygiene (propagate / clean
//   egress / tag own / clean ingress) and vendor profile.
//
// Beacons are announced/withdrawn on the RIPE RIS schedule. During global
// withdrawals, staggered propagation delays make T's border routers walk
// through each other's ingress routes — community exploration — which the
// peers transitively expose to the collectors exactly as §6 observes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/beacon.h"
#include "core/registry.h"
#include "core/stream.h"
#include "sim/network.h"

namespace bgpcc::synth {

enum class PeerHygiene {
  kPropagate,     // neither adds nor filters (the paper's AS20205)
  kCleanEgress,   // strips all communities toward the collector (AS20811)
  kTagger,        // adds its own ingress communities
  kCleanIngress,  // strips communities at ingress from upstreams
};

[[nodiscard]] const char* label(PeerHygiene hygiene);

struct BeaconOptions {
  int transit_ingresses = 6;   // K: T's geo-tagged border routers
  int peers_per_collector = 18;
  int collector_count = 3;
  int beacon_count = 5;
  /// Fractions of the peer population per hygiene class (remainder
  /// propagates).
  double clean_egress_fraction = 0.25;
  double tagger_fraction = 0.15;
  double clean_ingress_fraction = 0.05;
  /// Fraction of peers additionally connected to H and/or M.
  double multihomed_h_fraction = 0.6;
  double multihomed_m_fraction = 0.4;
  /// Vendor mix among peer routers (cisco remainder).
  double junos_fraction = 0.25;
  double bird_fraction = 0.25;
  /// Inject a mid-day (out-of-phase) T-U1 session flap at 13:37 UTC.
  bool midday_anomaly = true;
  std::uint64_t seed = 7;
  /// UTC midnight of the simulated day (default: March 15, 2020).
  Timestamp day_start = Timestamp::from_unix_seconds(1584230400);
};

struct PeerInfo {
  std::string name;
  Asn asn;
  PeerHygiene hygiene = PeerHygiene::kPropagate;
  std::string vendor;
  std::string collector;
  int transit_ingress = 0;  // which Tk the peer buys from
  bool has_h = false;
  bool has_m = false;
};

/// Builds the topology, runs one simulated day, and exposes the collector
/// streams plus ground truth for validating the analysis pipeline.
class BeaconInternet {
 public:
  static constexpr std::uint32_t kAsnOrigin = 12654;
  static constexpr std::uint32_t kAsnU1 = 174;
  static constexpr std::uint32_t kAsnU2 = 50304;
  static constexpr std::uint32_t kAsnT = 3356;
  static constexpr std::uint32_t kAsnH = 6939;
  static constexpr std::uint32_t kAsnM = 2914;
  static constexpr std::uint32_t kAsnPeerBase = 20000;
  static constexpr std::uint32_t kAsnCollectorBase = 65500;

  explicit BeaconInternet(BeaconOptions options);

  /// Runs one day on the given schedule (events beyond day end drain).
  void run_day(const core::BeaconSchedule& schedule = {});

  /// Every collector's log, uncleaned, through one multi-source ingest
  /// (synth::ingest) in collector_names() order: time-sorted, equal
  /// timestamps in collector then arrival order.
  [[nodiscard]] core::UpdateStream stream() const;
  /// Stream of a single collector, the same way.
  [[nodiscard]] core::UpdateStream collector_stream(
      const std::string& name) const;
  /// The collectors in collector_names() order, ready for synth::ingest.
  [[nodiscard]] std::vector<const sim::RouteCollector*> collectors() const;

  [[nodiscard]] const std::vector<Prefix>& beacons() const { return beacons_; }
  [[nodiscard]] const std::vector<PeerInfo>& peers() const { return peers_; }
  [[nodiscard]] std::vector<std::string> collector_names() const;
  [[nodiscard]] sim::Network& network() { return network_; }
  [[nodiscard]] const BeaconOptions& options() const { return options_; }

  /// Registry covering everything this internet announces (for cleaning).
  [[nodiscard]] core::Registry make_registry() const;

 private:
  BeaconOptions options_;
  sim::Network network_;
  std::vector<Prefix> beacons_;
  std::vector<PeerInfo> peers_;
  std::vector<std::uint32_t> t_u1_sessions_;  // for the mid-day anomaly
};

}  // namespace bgpcc::synth
