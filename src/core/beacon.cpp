#include "core/beacon.h"

#include <algorithm>

#include "netbase/error.h"

namespace bgpcc::core {
namespace {

// Phase membership: within [start, start+window) of a recurring offset.
bool in_phase(std::int64_t micros_of_day, Duration offset, Duration period,
              Duration window) {
  std::int64_t rel =
      (micros_of_day - offset.count_micros()) % period.count_micros();
  if (rel < 0) rel += period.count_micros();
  return rel < window.count_micros();
}

}  // namespace

void BeaconSchedule::validate() const {
  if (period.count_micros() <= 0) {
    throw ConfigError("BeaconSchedule: period must be positive");
  }
  if (window >= period) {
    throw ConfigError(
        "BeaconSchedule: window must be shorter than the period — every "
        "instant would be inside every phase");
  }
}

BeaconSchedule::Phase BeaconSchedule::label(Timestamp time) const {
  validate();
  std::int64_t micros = time.micros_of_day();
  if (in_phase(micros, withdraw_offset, period, window)) {
    return Phase::kWithdraw;
  }
  if (in_phase(micros, announce_offset, period, window)) {
    return Phase::kAnnounce;
  }
  return Phase::kOutside;
}

std::vector<Timestamp> BeaconSchedule::announce_times(
    Timestamp day_start) const {
  validate();
  std::vector<Timestamp> out;
  for (Duration t = announce_offset; t < Duration::hours(24);
       t = t + period) {
    out.push_back(day_start + t);
  }
  return out;
}

std::vector<Timestamp> BeaconSchedule::withdraw_times(
    Timestamp day_start) const {
  validate();
  std::vector<Timestamp> out;
  for (Duration t = withdraw_offset; t < Duration::hours(24);
       t = t + period) {
    out.push_back(day_start + t);
  }
  return out;
}

const char* label(BeaconSchedule::Phase phase) {
  switch (phase) {
    case BeaconSchedule::Phase::kAnnounce:
      return "announce";
    case BeaconSchedule::Phase::kWithdraw:
      return "withdraw";
    case BeaconSchedule::Phase::kOutside:
      return "outside";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Revealed information (Figure 6).

void accumulate_revealed(const UpdateRecord& record,
                         const BeaconSchedule& schedule,
                         RevealedEvidence& evidence) {
  if (!record.announcement || record.attrs.communities.empty()) return;
  PhaseBuckets& b = evidence[record.attrs.communities];
  switch (schedule.label(record.time)) {
    case BeaconSchedule::Phase::kAnnounce:
      b.announce = true;
      break;
    case BeaconSchedule::Phase::kWithdraw:
      b.withdraw = true;
      break;
    case BeaconSchedule::Phase::kOutside:
      b.outside = true;
      break;
  }
}

void merge_revealed(RevealedEvidence& into, RevealedEvidence&& from) {
  for (auto& [attr, buckets] : from) {
    auto [it, fresh] = into.try_emplace(attr, buckets);
    if (!fresh) {
      it->second.announce |= buckets.announce;
      it->second.withdraw |= buckets.withdraw;
      it->second.outside |= buckets.outside;
    }
  }
}

RevealedStats finalize_revealed(const RevealedEvidence& evidence) {
  RevealedStats stats;
  stats.total_unique = evidence.size();
  for (const auto& [attr, b] : evidence) {
    int buckets = (b.announce ? 1 : 0) + (b.withdraw ? 1 : 0) +
                  (b.outside ? 1 : 0);
    if (buckets > 1) {
      ++stats.ambiguous;
    } else if (b.withdraw) {
      ++stats.withdrawal_only;
    } else if (b.announce) {
      ++stats.announce_only;
    } else {
      ++stats.outside_only;
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Community exploration (Figure 4).

void sort_exploration_events(std::vector<ExplorationEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const ExplorationEvent& a, const ExplorationEvent& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.session != b.session) return a.session < b.session;
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (a.end != b.end) return a.end < b.end;
              return a.nc_count < b.nc_count;
            });
}

RouteSeries route_series(const UpdateStream& stream, const SessionKey& session,
                         const Prefix& prefix,
                         const std::optional<AsPath>& only_path) {
  RouteSeries series;
  Classifier classifier;
  for (const UpdateRecord& record : stream.records()) {
    if (record.session != session || record.prefix != prefix) continue;
    if (!record.announcement) {
      series.withdrawals.push_back(record.time);
      classifier.classify(record);
      continue;
    }
    auto type = classifier.classify(record);
    if (only_path && record.attrs.as_path != *only_path) continue;
    if (!type) continue;  // first sighting: untyped, not plotted
    series.announcements.push_back(SeriesPoint{
        record.time, *type, record.attrs.communities, record.attrs.as_path});
  }
  return series;
}

}  // namespace bgpcc::core
