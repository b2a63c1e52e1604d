#include "analytics/standard.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

namespace bgpcc::analytics {

StandardPasses StandardPasses::add(AnalysisDriver& driver) {
  core::AnomalyOptions anomaly;
  anomaly.min_classified = 20;
  anomaly.novelty_min_occurrences = 50;
  core::UsageOptions usage;
  usage.min_occurrences = 5;
  StandardPasses h;
  h.types = driver.add(ClassifierPass{});
  h.sessions = driver.add(PerSessionTypesPass{});
  h.tomography = driver.add(TomographyPass{});
  h.communities = driver.add(CommunityStatsPass{});
  h.duplicates = driver.add(DuplicateBurstPass{});
  h.anomalies = driver.add(AnomalyPass{anomaly});
  h.revealed = driver.add(RevealedPass{});
  h.exploration = driver.add(ExplorationPass{});
  h.usage = driver.add(UsageClassificationPass{usage});
  return h;
}

namespace {

// AnalysisDriver::report is non-const (it finalizes), ReportSnapshot's
// is const: one body serves both.
template <typename Source>
StandardReports collect_from(Source& source, const StandardPasses& h) {
  return StandardReports{source.report(h.types),
                         source.report(h.sessions),
                         source.report(h.tomography),
                         source.report(h.communities),
                         source.report(h.duplicates),
                         source.report(h.anomalies),
                         source.report(h.revealed),
                         source.report(h.exploration),
                         source.report(h.usage)};
}

}  // namespace

StandardReports StandardPasses::collect(AnalysisDriver& driver) const {
  return collect_from(driver, *this);
}

StandardReports StandardPasses::collect(
    const ReportSnapshot& snapshot) const {
  return collect_from(snapshot, *this);
}

// ---------------------------------------------------------------------------
// Canonical text.

namespace {

std::string fmt(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string counts_text(const core::TypeCounts& c) {
  std::ostringstream out;
  for (core::AnnouncementType type : core::kAllAnnouncementTypes) {
    out << core::label(type) << '=' << c.count(type) << ' ';
  }
  out << "first=" << c.first_sightings << " withdrawals=" << c.withdrawals
      << " nn_med=" << c.nn_with_med_change;
  return out.str();
}

/// Space-separated fields (doubles must come pre-formatted by fmt()).
template <typename... T>
std::string words(const T&... fields) {
  std::ostringstream out;
  const char* separator = "";
  ((out << separator << fields, separator = " "), ...);
  return out.str();
}

/// A titled list section: its length, then its lines in sorted order.
void section(std::ostringstream& out, const char* title,
             std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  out << '[' << title << "] " << lines.size() << '\n';
  for (const std::string& line : lines) out << line << '\n';
}

}  // namespace

std::string StandardReports::render() const {
  std::ostringstream out;
  out << "[classifier]\nstreams " << types.streams << '\n'
      << counts_text(types.counts) << '\n';

  std::vector<std::string> lines;
  for (const auto& [session, counts] : sessions) {
    lines.push_back(words(session.to_string(), counts_text(counts)));
  }
  section(out, "per_session_types", std::move(lines));

  lines = {};
  for (const core::AsEvidence& e : tomography) {
    lines.push_back(words(e.asn.value(), e.on_path, e.own_namespace_tagged,
                          e.as_peer, e.as_peer_with_communities,
                          e.as_peer_with_foreign,
                          core::label(e.classification)));
  }
  section(out, "tomography", std::move(lines));

  const CommunityStatsPass::Report& c = communities;
  out << "[community_stats]\n"
      << words("announcements", c.announcements, "withdrawals", c.withdrawals,
               "with_communities", c.with_communities, "occurrences",
               c.community_occurrences, "unique", c.unique_communities)
      << "\nhistogram";
  for (std::uint64_t bucket : c.communities_per_announcement) {
    out << ' ' << bucket;
  }
  out << '\n';
  lines = {};
  for (const auto& ns : c.namespaces) {
    lines.push_back(words(ns.asn16, ns.distinct_values));
  }
  section(out, "community_namespaces", std::move(lines));

  out << "[duplicate_burst]\n"
      << words("classified", duplicates.classified, "nn", duplicates.nn,
               "bursts", duplicates.bursts)
      << '\n';
  lines = {};
  for (const auto& s : duplicates.sessions) {
    lines.push_back(words(s.session.to_string(), s.classified, s.nn, s.bursts,
                          s.longest_run));
  }
  section(out, "duplicate_sessions", std::move(lines));

  out << "[anomaly]\n"
      << words("mean", fmt(anomalies.population_mean_nn_share), "stddev",
               fmt(anomalies.population_stddev_nn_share))
      << '\n';
  lines = {};
  for (const core::DuplicateOutlier& o : anomalies.duplicate_outliers) {
    lines.push_back(words(o.session.to_string(), o.nn, o.classified,
                          fmt(o.nn_share), fmt(o.sigma)));
  }
  section(out, "duplicate_outliers", std::move(lines));
  lines = {};
  for (const core::NoveltyBurst& b : anomalies.novelty_bursts) {
    lines.push_back(words(b.community.to_string(),
                          b.first_seen.unix_micros(), b.occurrences));
  }
  section(out, "novelty_bursts", std::move(lines));

  out << "[revealed]\n"
      << words(revealed.total_unique, revealed.withdrawal_only,
               revealed.announce_only, revealed.outside_only,
               revealed.ambiguous)
      << '\n';

  lines = {};
  for (const core::ExplorationEvent& e : exploration) {
    lines.push_back(words(e.session.to_string(), e.prefix.to_string(),
                          e.as_path.to_string(), e.begin.unix_micros(),
                          e.end.unix_micros(), e.nc_count,
                          e.distinct_attributes));
  }
  section(out, "exploration", std::move(lines));

  lines = {};
  for (const core::AsUsage& u : usage) {
    std::ostringstream line;
    line << words(u.asn16, u.occurrences, u.distinct_values, u.sessions);
    for (std::uint64_t n : u.usage_occurrences) line << ' ' << n;
    for (std::uint64_t n : u.usage_values) line << ' ' << n;
    line << ' ' << core::label(u.profile);
    lines.push_back(line.str());
  }
  section(out, "usage", std::move(lines));
  return out.str();
}

}  // namespace bgpcc::analytics
