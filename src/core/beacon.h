// Beacon-phase analysis (§6): phase labeling against the RIPE RIS beacon
// schedule, the revealed-community-attribute statistic (Figure 6), and the
// community-exploration detector (Figure 4's nc bursts).
//
// The revealed detector is split into accumulate / merge / finalize
// kernels (mirroring core/tomography) so analytics::RevealedPass can run
// it per-shard on the ingestion worker threads: phase buckets OR
// together. The exploration detector is analytics::ExplorationPass,
// which reads the driver's stream table; its event type and output
// order live here.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "core/classifier.h"
#include "core/stream.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::core {

/// The fixed beacon timing discipline: announcements every `period`
/// starting at `announce_offset` past UTC midnight, withdrawals every
/// `period` starting at `withdraw_offset`. RIPE RIS: 4h period,
/// announce at 00:00, withdraw at 02:00.
struct BeaconSchedule {
  Duration period = Duration::hours(4);
  Duration announce_offset = Duration::hours(0);
  Duration withdraw_offset = Duration::hours(2);
  /// Messages within this window after a phase start belong to the phase
  /// (the paper uses 15 minutes).
  Duration window = Duration::minutes(15);

  enum class Phase { kAnnounce, kWithdraw, kOutside };

  /// Throws ConfigError when period <= 0 (label's modulo and the
  /// phase-time iteration would divide by zero / never terminate) or
  /// window >= period (every instant would fall inside every phase,
  /// double-labeling the whole day). Offsets at or beyond the period are
  /// fine: phases recur modulo the period.
  void validate() const;

  [[nodiscard]] Phase label(Timestamp time) const;

  /// Phase-start times (announce and withdraw) within [day_start,
  /// day_start+24h), for driving origin routers.
  [[nodiscard]] std::vector<Timestamp> announce_times(Timestamp day_start) const;
  [[nodiscard]] std::vector<Timestamp> withdraw_times(Timestamp day_start) const;
};

[[nodiscard]] const char* label(BeaconSchedule::Phase phase);

/// Figure 6 / §6 "Revealed Information": unique non-empty community
/// attributes bucketed by the phases in which they were observed.
struct RevealedStats {
  std::uint64_t total_unique = 0;
  std::uint64_t withdrawal_only = 0;  // revealed exclusively in withdraw phases
  std::uint64_t announce_only = 0;
  std::uint64_t outside_only = 0;
  std::uint64_t ambiguous = 0;  // seen in more than one bucket

  [[nodiscard]] double withdrawal_ratio() const {
    return total_unique == 0 ? 0.0
                             : static_cast<double>(withdrawal_only) /
                                   static_cast<double>(total_unique);
  }
  friend bool operator==(const RevealedStats&, const RevealedStats&) = default;
};

/// Which phases one community attribute has been observed in. ORs
/// together under merge — a pure multiset summary.
struct PhaseBuckets {
  bool announce = false;
  bool withdraw = false;
  bool outside = false;

  /// The wire form (core/codec.h write_value): one bitmask byte, 1
  /// announce, 2 withdraw, 4 outside. A reader refuses any other bit.
  static void write_wire(ByteWriter& w, const PhaseBuckets& buckets) {
    w.u8(static_cast<std::uint8_t>((buckets.announce ? 1 : 0) |
                                   (buckets.withdraw ? 2 : 0) |
                                   (buckets.outside ? 4 : 0)));
  }
  static void read_wire(ByteReader& r, PhaseBuckets& buckets) {
    std::uint8_t mask = r.u8();
    if (mask > 7) throw DecodeError("corrupt encoding: phase bitmask above 7");
    buckets = PhaseBuckets{(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0};
  }
};

/// Per-attribute phase occupancy, keyed on the full CommunitySet value.
using RevealedEvidence = std::map<CommunitySet, PhaseBuckets>;

/// Folds one record into `evidence` (withdrawals and empty community
/// attributes are ignored).
void accumulate_revealed(const UpdateRecord& record,
                         const BeaconSchedule& schedule,
                         RevealedEvidence& evidence);

/// ORs the phase buckets attribute by attribute.
void merge_revealed(RevealedEvidence& into, RevealedEvidence&& from);

/// Projects the evidence into the Figure-6 exclusivity statistic.
[[nodiscard]] RevealedStats finalize_revealed(const RevealedEvidence& evidence);

/// A community-exploration event: a run of announcements for one
/// (session, prefix) with an unchanged AS path but changing communities,
/// inside a withdrawal phase — the paper's analogue of path exploration.
struct ExplorationEvent {
  SessionKey session;
  Prefix prefix;
  AsPath as_path;
  Timestamp begin;
  Timestamp end;
  int nc_count = 0;
  /// Distinct community attributes observed during the run.
  int distinct_attributes = 0;
  friend bool operator==(const ExplorationEvent&,
                         const ExplorationEvent&) = default;
  /// The wire form (core/codec.h write_value): every member, in order.
  static auto fields(auto& self) {
    return std::tie(self.session, self.prefix, self.as_path, self.begin,
                    self.end, self.nc_count, self.distinct_attributes);
  }
};

/// The deterministic output order: (begin, session, prefix), with end /
/// nc_count tie-breaks for pathological equal-timestamp streams. Mid- and
/// end-of-stream events sort identically regardless of which shard or
/// window emitted them.
void sort_exploration_events(std::vector<ExplorationEvent>& events);

/// One point of the Figure 4/5 cumulative-count series.
struct SeriesPoint {
  Timestamp time;
  AnnouncementType type;
  CommunitySet communities;
  AsPath as_path;
};

/// Extracts the classified announcement series for a single (session,
/// prefix), optionally restricted to one AS path, plus the withdrawal
/// times (the vertical lines of Figures 4/5).
struct RouteSeries {
  std::vector<SeriesPoint> announcements;
  std::vector<Timestamp> withdrawals;
};

[[nodiscard]] RouteSeries route_series(
    const UpdateStream& stream, const SessionKey& session,
    const Prefix& prefix, const std::optional<AsPath>& only_path = std::nullopt);

}  // namespace bgpcc::core
