// The shared golden MRT fixture: a small deterministic archive (built by
// mrt::Writer — identical bytes on every platform and run) exercising
// every cleaning kernel and decode variant: 3 sessions (one a route
// server, one legacy two-octet), same-second bursts, a real-microsecond
// stamp, one unallocated ASN, one unallocated prefix, one state change,
// one withdrawal. ingest_golden_test pins the ingestion output over it;
// analytics_test pins the classifier/tomography pass reports over the
// same bytes — one fixture, so the two goldens can never drift apart.
#pragma once

#include <sstream>
#include <string>

#include "bgp/codec.h"
#include "core/registry.h"
#include "core/stream.h"
#include "mrt/mrt.h"

namespace bgpcc::core::goldenfix {

inline UpdateMessage announce(std::initializer_list<const char*> prefixes,
                              std::initializer_list<std::uint32_t> path,
                              int community = -1) {
  UpdateMessage update;
  for (const char* p : prefixes) {
    update.announced.push_back(Prefix::from_string(p));
  }
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence(path);
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  if (community >= 0) {
    attrs.communities.add(
        Community::of(65100, static_cast<std::uint16_t>(community)));
  }
  update.attrs = std::move(attrs);
  return update;
}

inline UpdateMessage withdraw(std::initializer_list<const char*> prefixes) {
  UpdateMessage update;
  for (const char* p : prefixes) {
    update.withdrawn.push_back(Prefix::from_string(p));
  }
  return update;
}

inline void write_update(mrt::Writer& writer, Timestamp when, Asn peer_asn,
                         const IpAddress& peer_ip,
                         const UpdateMessage& update, bool extended_time,
                         bool as4 = true) {
  CodecOptions codec;
  codec.four_byte_asn = as4;
  mrt::Bgp4mpMessage message;
  message.peer_asn = peer_asn;
  message.local_asn = Asn(64512);
  message.peer_ip = peer_ip;
  message.local_ip = IpAddress::from_string("203.0.113.1");
  message.bgp_message = encode_update(update, codec);
  writer.write_message(when, message, extended_time, as4);
}

/// The checked-in archive bytes (see the header comment for the shape).
inline std::string golden_archive() {
  IpAddress peer_a = IpAddress::from_string("10.0.0.1");
  IpAddress peer_b = IpAddress::from_string("10.0.0.2");
  IpAddress peer_rs = IpAddress::from_string("10.0.0.9");
  Timestamp t0 = Timestamp::from_unix_seconds(1600000000);

  std::ostringstream out;
  mrt::Writer writer(out);
  for (int burst = 0; burst < 6; ++burst) {
    Timestamp t = t0 + Duration::seconds(burst);
    write_update(writer, t, Asn(65001), peer_a,
                 announce({"10.1.0.0/16", "10.2.0.0/16"}, {65001, 65100},
                          burst),
                 /*extended_time=*/false);
    write_update(writer, t, Asn(65002), peer_b,
                 announce({"10.3.0.0/16"}, {65002, 65100}),
                 /*extended_time=*/false, /*as4=*/false);
    write_update(writer, t, Asn(65001), peer_a, withdraw({"10.1.0.0/16"}),
                 /*extended_time=*/false);
    write_update(writer, t, Asn(65010), peer_rs,
                 announce({"10.5.0.0/16"}, {65300, 65100}),
                 /*extended_time=*/true);
    write_update(writer, t + Duration::micros(250000), Asn(65001), peer_a,
                 announce({"10.6.0.0/16"}, {65001, 65200}, 40 + burst),
                 /*extended_time=*/true);
    write_update(writer, t, Asn(65002), peer_b,
                 announce({"10.7.0.0/16"}, {65002, 65999}),
                 /*extended_time=*/false);
    write_update(writer, t, Asn(65001), peer_a,
                 announce({"192.168.0.0/24"}, {65001, 65100}),
                 /*extended_time=*/false);
    mrt::Bgp4mpStateChange change;
    change.peer_asn = Asn(65001);
    change.local_asn = Asn(64512);
    change.peer_ip = peer_a;
    change.local_ip = IpAddress::from_string("203.0.113.1");
    change.old_state = mrt::FsmState::kEstablished;
    change.new_state = mrt::FsmState::kIdle;
    writer.write_state_change(t, change);
  }
  return out.str();
}

/// The registry the golden cleaning runs against.
inline Registry golden_registry() {
  Registry registry;
  for (std::uint32_t asn :
       {65001u, 65002u, 65010u, 65100u, 65200u, 65300u}) {
    registry.allocate_asn(Asn(asn));
  }
  registry.allocate_prefix(Prefix::from_string("10.0.0.0/8"));
  return registry;
}

/// The golden cleaning options (registry must outlive the result).
inline CleaningOptions golden_cleaning(const Registry& registry) {
  CleaningOptions cleaning;
  cleaning.registry = &registry;
  cleaning.route_servers.emplace(IpAddress::from_string("10.0.0.9"),
                                 Asn(65010));
  return cleaning;
}

}  // namespace bgpcc::core::goldenfix
