#include "analytics/passes.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "netbase/error.h"

namespace bgpcc::analytics {

// ---------------------------------------------------------------------------
// TomographyPass

// ---------------------------------------------------------------------------
// PerSessionTypesPass

PerSessionTypesPass::Report PerSessionTypesPass::State::report(
    const core::SessionLedger& ledger) const {
  Report ranking;
  ranking.reserve(ledger.size());
  for (const auto& [session, tally] : ledger) {
    ranking.emplace_back(session, tally.counts);
  }
  // Ties break by session ascending: a total order, so the ranking never
  // depends on the sort algorithm's internals.
  std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
    if (a.second.total() != b.second.total()) {
      return a.second.total() > b.second.total();
    }
    return a.first < b.first;
  });
  return ranking;
}

// ---------------------------------------------------------------------------
// CommunityStatsPass

void CommunityStatsPass::State::observe(const core::UpdateRecord& record) {
  if (!record.announcement) {
    ++withdrawals_;
    return;
  }
  ++announcements_;
  const CommunitySet& communities = record.attrs.communities;
  std::size_t count = communities.size();
  occurrences_ += count;
  if (count > 0) ++with_communities_;
  ++histogram_.buckets[std::min(count, Histogram::kBuckets - 1)];
  for (Community c : communities) values_.insert(c.raw());
}

void CommunityStatsPass::State::merge(State&& other) {
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    histogram_.buckets[i] += other.histogram_.buckets[i];
  }
  announcements_ += other.announcements_;
  withdrawals_ += other.withdrawals_;
  with_communities_ += other.with_communities_;
  occurrences_ += other.occurrences_;
  if (values_.size() < other.values_.size()) values_.swap(other.values_);
  values_.insert(other.values_.begin(), other.values_.end());
}

CommunityStatsPass::Report CommunityStatsPass::State::report() const {
  Report report;
  report.announcements = announcements_;
  report.withdrawals = withdrawals_;
  report.with_communities = with_communities_;
  report.community_occurrences = occurrences_;
  report.unique_communities = values_.size();
  report.communities_per_announcement = histogram_.buckets;

  std::map<std::uint16_t, std::uint64_t> per_namespace;
  // bgpcc-lint: allow(D1, map increments commute - order cannot reach report)
  for (std::uint32_t raw : values_) {
    ++per_namespace[static_cast<std::uint16_t>(raw >> 16)];
  }
  report.namespaces.reserve(per_namespace.size());
  for (const auto& [asn16, distinct] : per_namespace) {
    report.namespaces.push_back(NamespaceCount{asn16, distinct});
  }
  std::sort(report.namespaces.begin(), report.namespaces.end(),
            [](const NamespaceCount& a, const NamespaceCount& b) {
              if (a.distinct_values != b.distinct_values) {
                return a.distinct_values > b.distinct_values;
              }
              return a.asn16 < b.asn16;
            });
  return report;
}

// ---------------------------------------------------------------------------
// DuplicateBurstPass

DuplicateBurstPass::Report DuplicateBurstPass::State::report(
    const core::SessionLedger& ledger) const {
  Report report;
  for (const auto& [session, tally] : ledger) {
    const std::uint64_t classified = tally.counts.total();
    // Withdrawals and first sightings have no predecessor to duplicate.
    if (classified == 0) continue;
    const auto found = bursts_.find(session);
    const std::uint64_t bursts = found == bursts_.end() ? 0 : found->second;
    const std::uint64_t nn = tally.counts.count(core::AnnouncementType::kNn);
    report.classified += classified;
    report.nn += nn;
    report.bursts += bursts;
    report.sessions.push_back(SessionDuplicates{session, classified, nn,
                                                bursts, tally.longest_nn_run});
  }
  std::sort(report.sessions.begin(), report.sessions.end(),
            [](const SessionDuplicates& a, const SessionDuplicates& b) {
              if (a.nn != b.nn) return a.nn > b.nn;
              return a.session < b.session;
            });
  return report;
}

// ---------------------------------------------------------------------------
// AnomalyPass

void AnomalyPass::validate_options(const core::AnomalyOptions& options) {
  if (options.novelty_window.count_micros() <= 0) {
    throw ConfigError("AnomalyPass: novelty_window must be positive");
  }
}

AnomalyPass::Report AnomalyPass::State::report(
    const core::SessionLedger& ledger) const {
  core::AnomalyReport report;
  core::score_duplicate_outliers(ledger, options_, report);
  report.novelty_bursts = core::finalize_novelty_bursts(novelty_, options_);
  return report;
}

// ---------------------------------------------------------------------------
// ExplorationPass

void ExplorationPass::State::observe(const core::UpdateRecord& record,
                                     const core::StreamEvent& event) {
  using core::AnnouncementType;
  // A first sighting or the first announcement after a withdrawal has no
  // run on its stream (the withdrawal closed it) and opens none.
  if (!event.withdrawal && (!event.type || event.after_withdrawal)) return;
  // Same-path announcements (nc or nn) inside a withdraw phase continue
  // the stream's run; anything else closes it.
  const bool same_path = event.type == AnnouncementType::kNc ||
                         event.type == AnnouncementType::kNn;
  if (!same_path || schedule_.label(record.time) !=
                        core::BeaconSchedule::Phase::kWithdraw) {
    auto it = runs_.find(std::make_pair(record.prefix, record.session));
    if (it == runs_.end()) return;
    if (it->second.event.nc_count >= kMinNc) {
      events_.push_back(std::move(it->second.event));
    }
    runs_.erase(it);
    return;
  }
  if (*event.type == AnnouncementType::kNn) return;
  auto [it, opened] =
      runs_.try_emplace(std::make_pair(record.prefix, record.session));
  Run& run = it->second;
  if (opened) {
    run.event.session = record.session;
    run.event.prefix = record.prefix;
    run.event.as_path = record.attrs.as_path;
    run.event.begin = record.time;
    run.attributes.insert(*event.replaced_communities);
  }
  ++run.event.nc_count;
  run.event.end = record.time;
  run.attributes.insert(record.attrs.communities);
  run.event.distinct_attributes = static_cast<int>(run.attributes.size());
}

void ExplorationPass::State::merge(State&& other) {
  // Streams are disjoint across shard states; map::merge keeps ours on a
  // contract violation.
  runs_.merge(std::move(other.runs_));
  events_.insert(events_.end(),
                 std::make_move_iterator(other.events_.begin()),
                 std::make_move_iterator(other.events_.end()));
}

ExplorationPass::Report ExplorationPass::State::report() const {
  Report events = events_;
  // Runs in flight close on copies: report() is const and repeatable.
  for (const auto& [stream, run] : runs_) {
    if (run.event.nc_count >= kMinNc) events.push_back(run.event);
  }
  core::sort_exploration_events(events);
  return events;
}

}  // namespace bgpcc::analytics
