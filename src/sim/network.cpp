#include "sim/network.h"

#include "netbase/error.h"

namespace bgpcc::sim {
namespace {

// Deterministic loopback-style address per node: 10.x.y.1.
IpAddress node_address(std::uint32_t index) {
  return IpAddress::v4(10, static_cast<std::uint8_t>(index >> 8),
                       static_cast<std::uint8_t>(index & 0xff), 1);
}

}  // namespace

Router& Network::add_router(const std::string& name, Asn asn,
                            VendorProfile vendor) {
  if (routers_.contains(name) || collectors_.contains(name)) {
    throw ConfigError("duplicate node name: " + name);
  }
  std::uint32_t index = next_node_index_++;
  auto router = std::make_unique<Router>(name, asn, index,
                                         node_address(index), vendor);
  Router& ref = *router;
  routers_.emplace(name, std::move(router));
  wire_router(ref);
  return ref;
}

RouteCollector& Network::add_collector(const std::string& name, Asn asn) {
  if (routers_.contains(name) || collectors_.contains(name)) {
    throw ConfigError("duplicate node name: " + name);
  }
  std::uint32_t index = next_node_index_++;
  auto collector =
      std::make_unique<RouteCollector>(name, asn, node_address(index));
  RouteCollector& ref = *collector;
  collectors_.emplace(name, std::move(collector));
  return ref;
}

Router& Network::router(std::string_view name) {
  auto it = routers_.find(name);
  if (it == routers_.end()) {
    throw ConfigError("unknown router: " + std::string(name));
  }
  return *it->second;
}

RouteCollector& Network::collector(std::string_view name) {
  return find_collector(name);
}

const RouteCollector& Network::collector(std::string_view name) const {
  return find_collector(name);
}

RouteCollector& Network::find_collector(std::string_view name) const {
  auto it = collectors_.find(name);
  if (it == collectors_.end()) {
    throw ConfigError("unknown collector: " + std::string(name));
  }
  return *it->second;
}

bool Network::has_router(std::string_view name) const {
  return routers_.contains(name);
}

void Network::wire_router(Router& router) {
  const std::string name = router.name();
  router.set_emit([this, name](std::uint32_t session_id,
                               const UpdateMessage& update) {
    on_emit(name, session_id, update);
  });
  router.set_timer([this](Duration delay, std::function<void()> fn) {
    scheduler_.after(delay, std::move(fn));
  });
}

std::uint32_t Network::add_session(std::string_view a, std::string_view b,
                                   SessionOptions options) {
  Session s;
  s.id = static_cast<std::uint32_t>(sessions_.size()) + 1;
  s.a = Endpoint{std::string(a), has_router(a)};
  s.b = Endpoint{std::string(b), has_router(b)};
  s.delay = options.delay;
  if (!s.a.is_router && !s.b.is_router) {
    throw ConfigError("session needs at least one router endpoint");
  }
  // Resolve endpoint identities (asn/address/router-id).
  struct NodeInfo {
    Asn asn;
    IpAddress address;
    std::uint32_t router_id;
  };
  auto info = [this](const Endpoint& e) -> NodeInfo {
    if (e.is_router) {
      Router& r = router(e.node);
      return {r.asn(), r.address(), r.router_id()};
    }
    RouteCollector& c = collector(e.node);
    return {c.asn(), c.address(), 0};
  };
  NodeInfo ia = info(s.a);
  NodeInfo ib = info(s.b);
  bool ebgp = ia.asn != ib.asn;

  if (s.a.is_router) {
    Router::NeighborConfig config;
    config.neighbor_id = s.id;
    config.peer_asn = ib.asn;
    config.peer_address = ib.address;
    config.local_address = ia.address;
    config.peer_router_id = ib.router_id;
    config.ebgp = ebgp;
    config.igp_metric = options.a_igp_metric;
    config.import_policy = options.a_import;
    config.export_policy = options.a_export;
    config.next_hop_self = options.a_next_hop_self;
    config.mrai = options.a_mrai;
    router(s.a.node).add_neighbor(std::move(config));
  }
  if (s.b.is_router) {
    Router::NeighborConfig config;
    config.neighbor_id = s.id;
    config.peer_asn = ia.asn;
    config.peer_address = ia.address;
    config.local_address = ib.address;
    config.peer_router_id = ia.router_id;
    config.ebgp = ebgp;
    config.igp_metric = options.b_igp_metric;
    config.import_policy = options.b_import;
    config.export_policy = options.b_export;
    config.next_hop_self = options.b_next_hop_self;
    config.mrai = options.b_mrai;
    router(s.b.node).add_neighbor(std::move(config));
  }
  sessions_.push_back(std::move(s));
  return sessions_.back().id;
}

Network::Session& Network::session(std::uint32_t session_id) {
  if (session_id == 0 || session_id > sessions_.size()) {
    throw ConfigError("unknown session id " + std::to_string(session_id));
  }
  return sessions_[session_id - 1];
}

const Network::Session& Network::session(std::uint32_t session_id) const {
  return const_cast<Network*>(this)->session(session_id);
}

const Network::Endpoint& Network::other_end(const Session& s,
                                            const std::string& from) const {
  return s.a.node == from ? s.b : s.a;
}

void Network::start() {
  for (Session& s : sessions_) {
    if (!s.up) set_session_state(s.id, true);
  }
}

void Network::set_session_state(std::uint32_t session_id, bool up) {
  Session& s = session(session_id);
  if (s.up == up) return;
  s.up = up;
  ++s.epoch;
  Timestamp now = scheduler_.now();
  // Down: notify immediately (both sides lose the session at once).
  // Up: likewise; the initial table transfer rides the normal delay path.
  for (const Endpoint* e : {&s.a, &s.b}) {
    if (!e->is_router) continue;
    Router& r = router(e->node);
    if (up) {
      r.session_up(session_id, now);
    } else {
      r.session_down(session_id, now);
    }
  }
}

void Network::schedule_session_down(std::uint32_t session_id, Timestamp when) {
  scheduler_.at(when,
                [this, session_id] { set_session_state(session_id, false); });
}

void Network::schedule_session_up(std::uint32_t session_id, Timestamp when) {
  scheduler_.at(when,
                [this, session_id] { set_session_state(session_id, true); });
}

bool Network::session_up(std::uint32_t session_id) const {
  return session(session_id).up;
}

void Network::tap_session(std::uint32_t session_id, Tap tap) {
  session(session_id).taps.push_back(std::move(tap));
}

void Network::on_emit(const std::string& from, std::uint32_t session_id,
                      const UpdateMessage& update) {
  Session& s = session(session_id);
  if (!s.up) return;  // emitted into a dead session: dropped
  std::uint64_t epoch = s.epoch;
  scheduler_.after(s.delay, [this, session_id, epoch, from, update] {
    deliver(session_id, epoch, from, update);
  });
}

void Network::deliver(std::uint32_t session_id, std::uint64_t epoch,
                      const std::string& from, const UpdateMessage& update) {
  Session& s = session(session_id);
  if (!s.up || s.epoch != epoch) return;  // session reset while in flight
  const Endpoint& to = other_end(s, from);
  Timestamp now = scheduler_.now();
  ++messages_delivered_;
  for (const Tap& tap : s.taps) tap(now, from, to.node, update);
  if (to.is_router) {
    router(to.node).handle_update(session_id, update, now);
  } else {
    // Identify the sending peer for the collector record.
    const Endpoint& peer = other_end(s, to.node);
    Router& sender = router(peer.node);
    collector(to.node).record(now, session_id, sender.asn(),
                              sender.address(), update);
  }
}

RouterStats Network::total_router_stats() const {
  RouterStats total;
  for (const auto& [name, router] : routers_) {
    const RouterStats& s = router->stats();
    total.updates_received += s.updates_received;
    total.announcements_received += s.announcements_received;
    total.withdrawals_received += s.withdrawals_received;
    total.duplicate_updates_received += s.duplicate_updates_received;
    total.updates_sent += s.updates_sent;
    total.announcements_sent += s.announcements_sent;
    total.withdrawals_sent += s.withdrawals_sent;
    total.duplicates_sent += s.duplicates_sent;
    total.duplicates_suppressed += s.duplicates_suppressed;
    total.loop_rejected += s.loop_rejected;
    total.denied_by_import += s.denied_by_import;
  }
  return total;
}

}  // namespace bgpcc::sim
