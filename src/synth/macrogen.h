// Macro-scale update-stream synthesizer: the *d_mar20 / d_hist substitute.
//
// Real RouteViews + RIS archives are not available offline, so population
// statistics (Table 1, Table 2's *d_mar20 column, Figures 2 and 6's totals)
// are generated by a mechanism-driven stochastic model instead of a packet-
// level simulation: per (session, prefix) streams evolve under routing
// events (path switches, community retags, duplicate churn, origin flaps,
// prepend toggles), and every record carries real attributes so the §5
// classifier — not the generator — decides the announcement types.
//
// Scale knobs: population_scale shrinks the prefix universe; volume_scale
// shrinks the event volume. Session/peer/collector counts stay full-scale
// (they are cheap). bench/e2e/README.md lists the scales its corpora use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/classifier.h"
#include "core/stream.h"

namespace bgpcc::synth {

/// Population and behavior parameters for one sampled day.
struct MacroParams {
  int year = 2020;
  int quarter = 1;  // 0-based quarter within the year (0..3)

  // Population (full-scale values are divided by the scale factors).
  int sessions = 1504;
  int peers = 581;
  int collectors = 34;
  int prefixes_v4 = 16737;  // 1,071,150 / 64
  int prefixes_v6 = 1549;   // 99,141 / 64
  int origin_ases = 1077;   // 68,911 / 64
  int transit_count = 40;

  // Behavior fractions.
  double tagged_route_fraction = 0.85;  // routes via geo-tagging transits
  double origin_tag_fraction = 0.30;    // origins attaching own communities
  double clean_session_fraction = 0.16; // peers cleaning all communities
  double dup_vendor_fraction = 0.75;    // duplicate-emitting peer routers
  double route_server_fraction = 0.0;   // sessions lacking their own ASN
  double second_granularity_fraction = 0.3;

  // Event mixture (normalized internally). Calibrated so the classifier
  // output lands on Table 2's *d_mar20 shares (pc 33.7 / pn 15.1 /
  // nc 24.5 / nn 25.7 / x ~1).
  double path_event_weight = 0.60;
  double comm_event_weight = 0.08;
  double churn_event_weight = 0.245;
  double flap_event_weight = 0.062;
  double prepend_event_weight = 0.015;
  /// Probability that a path event is followed by community exploration.
  double exploration_probability = 0.3;
  double mean_exploration_length = 1.0;

  /// Target announcements for the day (already scaled).
  std::uint64_t announcement_target = 1000000;

  /// Inject the paper's mid-2012 nn burst artifact (one AS bursting
  /// duplicates for unknown reasons; Figure 2 footnote).
  bool nn_artifact = false;

  std::uint64_t seed = 20200315;
  Timestamp day_start = Timestamp::from_unix_seconds(1584230400);

  /// Parameters reproducing March 15, 2020 at the given scales.
  [[nodiscard]] static MacroParams march2020(double volume_scale = 1.0 / 1024,
                                             double population_scale = 1.0 / 64);
  /// Growth model for the 2010-2020 longitudinal figures: session counts
  /// roughly double, community adoption grows ~2.5x (Streibelt et al.),
  /// volumes grow from ~150M to ~1G announcements/day.
  [[nodiscard]] static MacroParams for_sample(int year, int quarter,
                                              double volume_scale = 1.0 / 4096,
                                              double population_scale = 1.0 / 256);
};

/// Streaming summary accumulated during generation (Table 1 fields).
struct MacroStats {
  std::uint64_t announcements = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t with_communities = 0;
  std::unordered_set<std::uint32_t> community_values;  // raw 32-bit values
  std::unordered_set<std::uint64_t> unique_paths;      // hashed
  std::unordered_set<int> prefixes_seen_v4;
  std::unordered_set<int> prefixes_seen_v6;
  std::unordered_set<std::uint32_t> ases_seen;
};

class MacroGen {
 public:
  explicit MacroGen(MacroParams params);

  /// Generates one day of updates, feeding every record to `sink` in
  /// per-(session, prefix) chronological order (what the classifier
  /// needs). Returns the accumulated overview stats.
  MacroStats generate_day(
      const std::function<void(const core::UpdateRecord&)>& sink);

  /// Convenience: generate and classify in one pass.
  struct DayResult {
    MacroStats stats;
    core::TypeCounts types;
  };
  [[nodiscard]] DayResult classify_day();

  [[nodiscard]] const MacroParams& params() const { return params_; }

 private:
  MacroParams params_;
};

}  // namespace bgpcc::synth
