#include "synth/beacon_internet.h"

#include <random>

#include "synth/ingest.h"

namespace bgpcc::synth {
namespace {

// City community values start here; country/continent below.
constexpr std::uint16_t kCityBase = 2000;
constexpr std::uint16_t kCountryBase = 500;
constexpr std::uint16_t kContinentBase = 50;

// Geo plan: ingress k is in city k, country k/2, continent k/4 — several
// cities share a country, several countries a continent, as in real geo
// community numbering plans.
Policy transit_ingress_policy(std::uint16_t asn16, int k) {
  Policy policy;
  PolicyRule rule;
  rule.name = "geo-tag-ingress-" + std::to_string(k);
  rule.actions.add_communities = {
      Community::of(asn16, static_cast<std::uint16_t>(kCityBase + k)),
      Community::of(asn16, static_cast<std::uint16_t>(kCountryBase + k / 2)),
      Community::of(asn16,
                    static_cast<std::uint16_t>(kContinentBase + k / 4)),
  };
  policy.add_rule(std::move(rule));
  return policy;
}

// A node name such as "T3". Appending to a named string keeps GCC 12
// quiet; `"T" + std::to_string(k)` inlines an insert it flags with a
// false -Wrestrict.
std::string node_name(const char* kind, int index) {
  std::string name(kind);
  name += std::to_string(index);
  return name;
}

VendorProfile pick_vendor(double roll, const BeaconOptions& options) {
  if (roll < options.junos_fraction) return VendorProfile::junos();
  if (roll < options.junos_fraction + options.bird_fraction) {
    return VendorProfile::bird();
  }
  return VendorProfile::cisco_ios();
}

}  // namespace

const char* label(PeerHygiene hygiene) {
  switch (hygiene) {
    case PeerHygiene::kPropagate:
      return "propagate";
    case PeerHygiene::kCleanEgress:
      return "clean-egress";
    case PeerHygiene::kTagger:
      return "tagger";
    case PeerHygiene::kCleanIngress:
      return "clean-ingress";
  }
  return "?";
}

BeaconInternet::BeaconInternet(BeaconOptions options)
    : options_(options),
      network_(options.day_start + Duration::hours(-1)) {
  std::mt19937_64 rng(options_.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Beacon prefixes: the RIS 84.205.x.0/24 range.
  for (int i = 0; i < options_.beacon_count; ++i) {
    beacons_.emplace_back(
        IpAddress::v4(84, 205, static_cast<std::uint8_t>(64 + i), 0), 24);
  }

  // Core nodes. Creation order fixes router-id tie-breaks: H1 and M1/M2
  // are created before T's borders so multihomed peers prefer H, then M,
  // then T at equal path lengths.
  network_.add_router("O1", Asn(kAsnOrigin), VendorProfile::cisco_ios());
  network_.add_router("U1", Asn(kAsnU1), VendorProfile::cisco_ios());
  network_.add_router("U2", Asn(kAsnU2), VendorProfile::cisco_ios());
  network_.add_router("H1", Asn(kAsnH), VendorProfile::junos());
  network_.add_router("M1", Asn(kAsnM), VendorProfile::cisco_ios());
  network_.add_router("M2", Asn(kAsnM), VendorProfile::cisco_ios());

  const int k_ingress = options_.transit_ingresses;
  for (int k = 0; k < k_ingress; ++k) {
    network_.add_router(node_name("T", k), Asn(kAsnT),
                        pick_vendor(unit(rng), options_));
  }

  // Origin uplinks: O-U1 and O-U2 (fast).
  {
    sim::SessionOptions fast;
    fast.delay = Duration::millis(5);
    network_.add_session("O1", "U1", fast);
    network_.add_session("O1", "U2", fast);
  }
  // H chain: fast, one tag at ingress.
  {
    sim::SessionOptions options_h;
    options_h.delay = Duration::millis(5);
    options_h.b_import = Policy::tag_all(Community::of(
        static_cast<std::uint16_t>(kAsnH), kCityBase));
    network_.add_session("U2", "H1", options_h);
  }
  // M chain: two borders, medium delay, no tagging; iBGP between them.
  {
    sim::SessionOptions options_m;
    options_m.delay = Duration::millis(25);
    network_.add_session("U1", "M1", options_m);
    options_m.delay = Duration::millis(30);
    network_.add_session("U2", "M2", options_m);
    sim::SessionOptions ibgp;
    ibgp.delay = Duration::millis(5);
    network_.add_session("M1", "M2", ibgp);
  }
  // T ingresses: staggered slow withdraws drive the exploration walk.
  for (int k = 0; k < k_ingress; ++k) {
    sim::SessionOptions options_t;
    options_t.delay = Duration::millis(60 + 45 * k);
    options_t.b_import = transit_ingress_policy(
        static_cast<std::uint16_t>(kAsnT), k);
    t_u1_sessions_.push_back(
        network_.add_session("U1", node_name("T", k), options_t));
  }
  // T full iBGP mesh (fast internal propagation).
  for (int a = 0; a < k_ingress; ++a) {
    for (int b = a + 1; b < k_ingress; ++b) {
      sim::SessionOptions ibgp;
      ibgp.delay = Duration::millis(3 + (a + b) % 5);
      network_.add_session(node_name("T", a), node_name("T", b), ibgp);
    }
  }

  // Collectors and peers.
  for (int c = 0; c < options_.collector_count; ++c) {
    std::string collector_name = "rrc0" + std::to_string(c);
    network_.add_collector(collector_name, Asn(kAsnCollectorBase +
                                               static_cast<std::uint32_t>(c)));
    for (int i = 0; i < options_.peers_per_collector; ++i) {
      int index = c * options_.peers_per_collector + i;
      PeerInfo peer;
      peer.name = node_name("P", index);
      peer.asn = Asn(kAsnPeerBase + static_cast<std::uint32_t>(index));
      peer.collector = collector_name;
      peer.transit_ingress = index % k_ingress;

      double hygiene_roll = unit(rng);
      if (hygiene_roll < options_.clean_egress_fraction) {
        peer.hygiene = PeerHygiene::kCleanEgress;
      } else if (hygiene_roll <
                 options_.clean_egress_fraction + options_.tagger_fraction) {
        peer.hygiene = PeerHygiene::kTagger;
      } else if (hygiene_roll < options_.clean_egress_fraction +
                                    options_.tagger_fraction +
                                    options_.clean_ingress_fraction) {
        peer.hygiene = PeerHygiene::kCleanIngress;
      } else {
        peer.hygiene = PeerHygiene::kPropagate;
      }
      peer.has_h = unit(rng) < options_.multihomed_h_fraction;
      peer.has_m = unit(rng) < options_.multihomed_m_fraction;

      VendorProfile vendor = pick_vendor(unit(rng), options_);
      peer.vendor = vendor.name;
      network_.add_router(peer.name, peer.asn, vendor);

      // Ingress policy of the peer on its transit sessions.
      Policy peer_import;
      if (peer.hygiene == PeerHygiene::kTagger) {
        peer_import = Policy::tag_all(Community::of(
            static_cast<std::uint16_t>(peer.asn.value()), 100));
      } else if (peer.hygiene == PeerHygiene::kCleanIngress) {
        peer_import = Policy::clean_all();
      }

      // Peer -> T (always present).
      {
        sim::SessionOptions so;
        so.delay = Duration::millis(
            static_cast<std::int64_t>(5 + 15 * unit(rng)));
        so.b_import = peer_import;  // peer is endpoint b
        network_.add_session(node_name("T", peer.transit_ingress), peer.name,
                             so);
      }
      if (peer.has_h) {
        sim::SessionOptions so;
        so.delay = Duration::millis(
            static_cast<std::int64_t>(5 + 10 * unit(rng)));
        so.b_import = peer_import;
        network_.add_session("H1", peer.name, so);
      }
      if (peer.has_m) {
        sim::SessionOptions so;
        so.delay = Duration::millis(
            static_cast<std::int64_t>(5 + 12 * unit(rng)));
        so.b_import = peer_import;
        network_.add_session(node_name("M", index % 2 + 1), peer.name,
                             so);
      }
      // Peer -> collector.
      {
        sim::SessionOptions so;
        so.delay = Duration::millis(2);
        if (peer.hygiene == PeerHygiene::kCleanEgress) {
          so.a_export = Policy::clean_all();  // peer is endpoint a
        }
        network_.add_session(peer.name, collector_name, so);
      }
      peers_.push_back(std::move(peer));
    }
  }

  network_.start();
  network_.run();  // empty convergence (no routes yet)
}

void BeaconInternet::run_day(const core::BeaconSchedule& schedule) {
  Router& origin = network_.router("O1");
  Timestamp day_start = options_.day_start;

  for (Timestamp t : schedule.announce_times(day_start)) {
    network_.scheduler().at(t, [this, &origin] {
      for (const Prefix& beacon : beacons_) {
        origin.originate(beacon, network_.now());
      }
    });
  }
  for (Timestamp t : schedule.withdraw_times(day_start)) {
    network_.scheduler().at(t, [this, &origin] {
      for (const Prefix& beacon : beacons_) {
        origin.withdraw_origin(beacon, network_.now());
      }
    });
  }

  if (options_.midday_anomaly && !t_u1_sessions_.empty()) {
    // An out-of-phase internal event: one T ingress flaps at 13:37 for two
    // minutes (the <1% "outside both phases" bucket of §6).
    std::uint32_t session = t_u1_sessions_[t_u1_sessions_.size() / 2];
    network_.schedule_session_down(
        session, day_start + Duration::hours(13) + Duration::minutes(37));
    network_.schedule_session_up(
        session, day_start + Duration::hours(13) + Duration::minutes(39));
  }

  network_.run();
}

core::UpdateStream BeaconInternet::stream() const {
  return ingest(collectors()).stream;
}

core::UpdateStream BeaconInternet::collector_stream(
    const std::string& name) const {
  return ingest({&network_.collector(name)}).stream;
}

std::vector<const sim::RouteCollector*> BeaconInternet::collectors() const {
  std::vector<const sim::RouteCollector*> out;
  for (const std::string& name : collector_names()) {
    out.push_back(&network_.collector(name));
  }
  return out;
}

std::vector<std::string> BeaconInternet::collector_names() const {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(options_.collector_count));
  for (int c = 0; c < options_.collector_count; ++c) {
    out.push_back("rrc0" + std::to_string(c));
  }
  return out;
}

core::Registry BeaconInternet::make_registry() const {
  core::Registry registry;
  for (std::uint32_t asn : {kAsnOrigin, kAsnU1, kAsnU2, kAsnT, kAsnH, kAsnM}) {
    registry.allocate_asn(Asn(asn));
  }
  for (const PeerInfo& peer : peers_) registry.allocate_asn(peer.asn);
  registry.allocate_prefix(Prefix(IpAddress::v4(84, 205, 0, 0), 16));
  return registry;
}

}  // namespace bgpcc::synth
