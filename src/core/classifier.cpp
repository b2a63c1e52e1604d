#include "core/classifier.h"

#include <algorithm>
#include <utility>

namespace bgpcc::core {

const char* label(AnnouncementType type) {
  switch (type) {
    case AnnouncementType::kPc:
      return "pc";
    case AnnouncementType::kPn:
      return "pn";
    case AnnouncementType::kNc:
      return "nc";
    case AnnouncementType::kNn:
      return "nn";
    case AnnouncementType::kXc:
      return "xc";
    case AnnouncementType::kXn:
      return "xn";
  }
  return "??";
}

std::uint64_t TypeCounts::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t c : counts) sum += c;
  return sum;
}

double TypeCounts::share(AnnouncementType type) const {
  std::uint64_t sum = total();
  if (sum == 0) return 0.0;
  return static_cast<double>(count(type)) / static_cast<double>(sum);
}

TypeCounts& TypeCounts::operator+=(const TypeCounts& other) {
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  first_sightings += other.first_sightings;
  withdrawals += other.withdrawals;
  nn_with_med_change += other.nn_with_med_change;
  return *this;
}

SessionTally& SessionTally::operator+=(const SessionTally& other) {
  counts += other.counts;
  longest_nn_run = std::max(longest_nn_run, other.longest_nn_run);
  return *this;
}

StreamEvent Classifier::advance(const UpdateRecord& record) {
  StreamEvent event;
  event.withdrawal = !record.announcement;
  SessionTally& tally = ledger_[record.session];
  if (event.withdrawal) {
    auto it = last_.find(std::make_pair(record.session, record.prefix));
    if (it != last_.end()) it->second.withdrawn = true;
    ++tally.counts.withdrawals;
    return event;
  }
  auto [it, first] =
      last_.try_emplace(std::make_pair(record.session, record.prefix));
  StreamState& prev = it->second;
  // A first sighting has no predecessor: untyped, cursor takes everything.
  bool path_changed = first || prev.as_path != record.attrs.as_path;
  bool comm_changed = first || prev.communities != record.attrs.communities;
  if (first) {
    ++tally.counts.first_sightings;
  } else {
    event.after_withdrawal = prev.withdrawn;
    if (!path_changed) {
      event.type = comm_changed ? AnnouncementType::kNc : AnnouncementType::kNn;
    } else if (record.attrs.as_path.prepending_only_change_from(prev.as_path)) {
      event.type = comm_changed ? AnnouncementType::kXc : AnnouncementType::kXn;
    } else {
      event.type = comm_changed ? AnnouncementType::kPc : AnnouncementType::kPn;
    }
    tally.counts.add(*event.type);
    prev.nn_run = event.type == AnnouncementType::kNn ? prev.nn_run + 1 : 0;
    if (prev.nn_run > 0 && prev.med != record.attrs.med) {
      ++tally.counts.nn_with_med_change;
    }
    event.nn_run = prev.nn_run;
    tally.longest_nn_run = std::max(tally.longest_nn_run, prev.nn_run);
  }
  if (path_changed) prev.as_path = record.attrs.as_path;
  if (comm_changed) {
    // Swap before assign: the replaced set moves into the slot the event
    // points at, with no allocation of its own.
    std::swap(replaced_, prev.communities);
    prev.communities = record.attrs.communities;
    event.replaced_communities = &replaced_;
  }
  prev.med = record.attrs.med;
  prev.withdrawn = false;
  return event;
}

TypeCounts sum_counts(const SessionLedger& ledger) {
  TypeCounts sum;
  for (const auto& [session, tally] : ledger) sum += tally.counts;
  return sum;
}

void Classifier::restore(StreamStates streams, SessionLedger ledger) {
  last_ = std::move(streams);
  ledger_ = std::move(ledger);
}

// ---------------------------------------------------------------------------
// Community usage classification (Krenc et al., IMC 2021).

const char* label(CommunityUsage usage) {
  switch (usage) {
    case CommunityUsage::kLocation:
      return "location";
    case CommunityUsage::kTrafficEngineering:
      return "traffic-eng";
    case CommunityUsage::kBlackhole:
      return "blackhole";
    case CommunityUsage::kInformational:
      return "informational";
  }
  return "??";
}

const char* label(UsageProfile profile) {
  switch (profile) {
    case UsageProfile::kLocation:
      return "location";
    case UsageProfile::kTrafficEngineering:
      return "traffic-eng";
    case UsageProfile::kBlackhole:
      return "blackhole";
    case UsageProfile::kInformational:
      return "informational";
    case UsageProfile::kMixed:
      return "mixed";
    case UsageProfile::kUnclassified:
      return "unclassified";
  }
  return "??";
}

CommunityUsage classify_community_usage(Community community) {
  constexpr std::uint16_t kTeValueMax = 100;
  constexpr std::uint16_t kCountryMin = 500;
  constexpr std::uint16_t kCountryMax = 999;
  constexpr std::uint16_t kCityMin = 2000;
  constexpr std::uint16_t kCityMax = 3999;
  if (community.is_well_known()) {
    return community.raw() == Community::kBlackholeRaw
               ? CommunityUsage::kBlackhole
               : CommunityUsage::kInformational;
  }
  std::uint16_t value = community.value16();
  if (value == 666) return CommunityUsage::kBlackhole;
  if (value < kTeValueMax) return CommunityUsage::kTrafficEngineering;
  if ((value >= kCountryMin && value <= kCountryMax) ||
      (value >= kCityMin && value <= kCityMax)) {
    return CommunityUsage::kLocation;
  }
  return CommunityUsage::kInformational;
}

void accumulate_usage(const UpdateRecord& record, UsageEvidence& evidence) {
  if (!record.announcement) return;
  for (Community c : record.attrs.communities) {
    ++evidence.value_occurrences[c.raw()];
    evidence.namespace_sessions[c.asn16()].insert(record.session);
  }
}

void merge_usage(UsageEvidence& into, UsageEvidence&& from) {
  merge_sum(into.value_occurrences, std::move(from.value_occurrences));
  for (auto& [asn16, sessions] : from.namespace_sessions) {
    auto [it, fresh] =
        into.namespace_sessions.try_emplace(asn16, std::move(sessions));
    if (!fresh) {
      it->second.insert(sessions.begin(), sessions.end());
    }
  }
}

std::vector<AsUsage> finalize_usage(const UsageEvidence& evidence,
                                    const UsageOptions& options) {
  constexpr double kDominantFraction = 0.6;
  std::map<std::uint16_t, AsUsage> per_namespace;
  for (const auto& [raw, count] : evidence.value_occurrences) {
    Community community{raw};
    AsUsage& usage = per_namespace[community.asn16()];
    usage.asn16 = community.asn16();
    usage.occurrences += count;
    ++usage.distinct_values;
    std::size_t category = static_cast<std::size_t>(
        classify_community_usage(community));
    usage.usage_occurrences[category] += count;
    ++usage.usage_values[category];
  }
  std::vector<AsUsage> out;
  out.reserve(per_namespace.size());
  for (auto& [asn16, usage] : per_namespace) {
    auto sessions = evidence.namespace_sessions.find(asn16);
    if (sessions != evidence.namespace_sessions.end()) {
      usage.sessions = sessions->second.size();
    }
    if (usage.occurrences < options.min_occurrences) {
      usage.profile = UsageProfile::kUnclassified;
    } else {
      std::size_t top = 0;
      for (std::size_t i = 1; i < usage.usage_occurrences.size(); ++i) {
        if (usage.usage_occurrences[i] > usage.usage_occurrences[top]) {
          top = i;
        }
      }
      double share = static_cast<double>(usage.usage_occurrences[top]) /
                     static_cast<double>(usage.occurrences);
      // UsageProfile's first four enumerators mirror CommunityUsage.
      usage.profile = share >= kDominantFraction
                          ? static_cast<UsageProfile>(top)
                          : UsageProfile::kMixed;
    }
    out.push_back(usage);
  }
  std::sort(out.begin(), out.end(), [](const AsUsage& a, const AsUsage& b) {
    if (a.occurrences != b.occurrences) return a.occurrences > b.occurrences;
    return a.asn16 < b.asn16;
  });
  return out;
}

}  // namespace bgpcc::core
