// Topology builder and message fabric: owns routers, collectors and
// sessions; moves updates between them with configurable propagation
// delays; schedules session flaps. Everything runs on one deterministic
// event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "policy/policy.h"
#include "router/router.h"
#include "sim/collector.h"
#include "sim/scheduler.h"

namespace bgpcc::sim {

/// Per-session configuration (endpoint "a" is the first name passed to
/// add_session). Policies are directional: a_import is what A applies to
/// routes received from B, a_export what A applies before sending to B.
struct SessionOptions {
  Duration delay = Duration::millis(10);
  Policy a_import;
  Policy a_export;
  Policy b_import;
  Policy b_export;
  std::uint32_t a_igp_metric = 10;
  std::uint32_t b_igp_metric = 10;
  bool a_next_hop_self = true;
  bool b_next_hop_self = true;
  Duration a_mrai{};
  Duration b_mrai{};
};

class Network {
 public:
  explicit Network(Timestamp start = Timestamp::from_unix_seconds(0))
      : scheduler_(start) {}

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] Timestamp now() const { return scheduler_.now(); }

  /// Adds a router; router id and loopback address are auto-assigned in
  /// creation order (earlier routers win router-id tie-breaks).
  Router& add_router(const std::string& name, Asn asn, VendorProfile vendor);
  RouteCollector& add_collector(const std::string& name, Asn asn);

  [[nodiscard]] Router& router(std::string_view name);
  [[nodiscard]] RouteCollector& collector(std::string_view name);
  [[nodiscard]] const RouteCollector& collector(std::string_view name) const;
  [[nodiscard]] bool has_router(std::string_view name) const;

  /// Creates a BGP session between two nodes (router-router or
  /// router-collector). eBGP vs iBGP is inferred from the ASNs.
  /// Returns the session id (also used as the routers' neighbor id).
  std::uint32_t add_session(std::string_view a, std::string_view b,
                            SessionOptions options = {});

  /// Brings every session up at the current time (call once after
  /// building the topology), then processes resulting convergence traffic
  /// when run() is called.
  void start();

  /// Immediate session state change at now(); triggers purge/refresh.
  void set_session_state(std::uint32_t session_id, bool up);
  void schedule_session_down(std::uint32_t session_id, Timestamp when);
  void schedule_session_up(std::uint32_t session_id, Timestamp when);
  [[nodiscard]] bool session_up(std::uint32_t session_id) const;

  /// Observation hook on a session (packet capture in the paper's lab):
  /// called for every delivered message with (time, sender, receiver).
  using Tap = std::function<void(Timestamp, const std::string&,
                                 const std::string&, const UpdateMessage&)>;
  void tap_session(std::uint32_t session_id, Tap tap);

  /// Runs until the event queue drains; returns events processed.
  std::size_t run() { return scheduler_.run(); }
  std::size_t run_until(Timestamp until) {
    return scheduler_.run_until(until);
  }

  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }

  /// Sum of a stat across all routers (convenience for experiments).
  [[nodiscard]] RouterStats total_router_stats() const;

 private:
  struct Endpoint {
    std::string node;
    bool is_router = false;
  };
  struct Session {
    std::uint32_t id = 0;
    Endpoint a;
    Endpoint b;
    Duration delay;
    bool up = false;
    std::uint64_t epoch = 0;  // bumped on every state change
    std::vector<Tap> taps;
  };

  void wire_router(Router& router);
  void on_emit(const std::string& from, std::uint32_t session_id,
               const UpdateMessage& update);
  void deliver(std::uint32_t session_id, std::uint64_t epoch,
               const std::string& from, const UpdateMessage& update);
  [[nodiscard]] Session& session(std::uint32_t session_id);
  [[nodiscard]] const Session& session(std::uint32_t session_id) const;
  // Both collector() overloads: the map owns collectors through
  // unique_ptr, so a const lookup can still hand out the mutable one.
  [[nodiscard]] RouteCollector& find_collector(std::string_view name) const;
  [[nodiscard]] const Endpoint& other_end(const Session& s,
                                          const std::string& from) const;

  Scheduler scheduler_;
  std::map<std::string, std::unique_ptr<Router>, std::less<>> routers_;
  std::map<std::string, std::unique_ptr<RouteCollector>, std::less<>>
      collectors_;
  std::vector<Session> sessions_;
  std::uint32_t next_node_index_ = 1;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace bgpcc::sim
