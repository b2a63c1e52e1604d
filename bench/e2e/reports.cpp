// The nine-pass report set the workloads project, and the canonical
// renderings the correctness gate digests: all nine reports as text, and
// the ordered record stream as bytes.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "e2e.h"

namespace bgpcc::e2e {

// ---------------------------------------------------------------------------
// Digests and JSON.

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out_ += escaped;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separate();
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", number);
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

// ---------------------------------------------------------------------------
// Passes.

const char* const kPassNames[kPassCount] = {
    "classifier",      "per_session_types", "tomography",
    "community_stats", "duplicate_burst",   "anomaly",
    "revealed",        "exploration",       "usage_classification"};

namespace {

// The stream_report example's thresholds: scaled for a sampled day, so
// the anomaly and usage reports are populated rather than empty.
core::AnomalyOptions anomaly_options() {
  core::AnomalyOptions options;
  options.min_classified = 20;
  options.novelty_min_occurrences = 50;
  return options;
}

core::UsageOptions usage_options() {
  core::UsageOptions options;
  options.min_occurrences = 5;
  return options;
}

}  // namespace

Handles add_passes(analytics::AnalysisDriver& driver) {
  Handles h;
  h.types = driver.add(analytics::ClassifierPass{});
  h.sessions = driver.add(analytics::PerSessionTypesPass{});
  h.tomography = driver.add(analytics::TomographyPass{});
  h.communities = driver.add(analytics::CommunityStatsPass{});
  h.duplicates = driver.add(analytics::DuplicateBurstPass{});
  h.anomalies = driver.add(analytics::AnomalyPass{anomaly_options()});
  h.revealed = driver.add(analytics::RevealedPass{});
  h.exploration = driver.add(analytics::ExplorationPass{});
  h.usage = driver.add(analytics::UsageClassificationPass{usage_options()});
  return h;
}

void add_pass(analytics::AnalysisDriver& driver, std::size_t index) {
  switch (index) {
    case 0: (void)driver.add(analytics::ClassifierPass{}); break;
    case 1: (void)driver.add(analytics::PerSessionTypesPass{}); break;
    case 2: (void)driver.add(analytics::TomographyPass{}); break;
    case 3: (void)driver.add(analytics::CommunityStatsPass{}); break;
    case 4: (void)driver.add(analytics::DuplicateBurstPass{}); break;
    case 5: (void)driver.add(analytics::AnomalyPass{anomaly_options()}); break;
    case 6: (void)driver.add(analytics::RevealedPass{}); break;
    case 7: (void)driver.add(analytics::ExplorationPass{}); break;
    case 8:
      (void)driver.add(analytics::UsageClassificationPass{usage_options()});
      break;
    default: throw ConfigError("no pass " + std::to_string(index));
  }
}

Reports collect(const analytics::ReportSnapshot& snap, const Handles& h) {
  return Reports{snap.report(h.types),      snap.report(h.sessions),
                 snap.report(h.tomography), snap.report(h.communities),
                 snap.report(h.duplicates), snap.report(h.anomalies),
                 snap.report(h.revealed),   snap.report(h.exploration),
                 snap.report(h.usage)};
}

Reports collect_final(analytics::AnalysisDriver& driver, const Handles& h) {
  return Reports{driver.report(h.types),      driver.report(h.sessions),
                 driver.report(h.tomography), driver.report(h.communities),
                 driver.report(h.duplicates), driver.report(h.anomalies),
                 driver.report(h.revealed),   driver.report(h.exploration),
                 driver.report(h.usage)};
}

// ---------------------------------------------------------------------------
// Canonical report text.

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

/// A titled list section: its length, then its lines in sorted order, so
/// the text does not depend on how a pass happens to order equal items.
void section(std::ostringstream& out, const char* title,
             std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  out << '[' << title << "] " << lines.size() << '\n';
  for (const std::string& line : lines) out << line << '\n';
}

std::string render_reports(const Reports& r) {
  std::ostringstream out;
  out << "[classifier]\nstreams " << r.types.streams << '\n'
      << counts_text(r.types.counts) << '\n';

  std::vector<std::string> lines;
  for (const auto& [session, counts] : r.sessions) {
    lines.push_back(words(session.to_string(), counts_text(counts)));
  }
  section(out, "per_session_types", std::move(lines));

  lines = {};
  for (const core::AsEvidence& e : r.tomography) {
    lines.push_back(words(e.asn.value(), e.on_path, e.own_namespace_tagged,
                          e.as_peer, e.as_peer_with_communities,
                          e.as_peer_with_foreign,
                          core::label(e.classification)));
  }
  section(out, "tomography", std::move(lines));

  const analytics::CommunityStatsPass::Report& c = r.communities;
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
      << words("classified", r.duplicates.classified, "nn", r.duplicates.nn,
               "bursts", r.duplicates.bursts)
      << '\n';
  lines = {};
  for (const auto& s : r.duplicates.sessions) {
    lines.push_back(words(s.session.to_string(), s.classified, s.nn, s.bursts,
                          s.longest_run));
  }
  section(out, "duplicate_sessions", std::move(lines));

  out << "[anomaly]\n"
      << words("mean", fmt(r.anomalies.population_mean_nn_share), "stddev",
               fmt(r.anomalies.population_stddev_nn_share))
      << '\n';
  lines = {};
  for (const core::DuplicateOutlier& o : r.anomalies.duplicate_outliers) {
    lines.push_back(words(o.session.to_string(), o.nn, o.classified,
                          fmt(o.nn_share), fmt(o.sigma)));
  }
  section(out, "duplicate_outliers", std::move(lines));
  lines = {};
  for (const core::NoveltyBurst& b : r.anomalies.novelty_bursts) {
    lines.push_back(words(b.community.to_string(),
                          b.first_seen.unix_micros(), b.occurrences));
  }
  section(out, "novelty_bursts", std::move(lines));

  out << "[revealed]\n"
      << words(r.revealed.total_unique, r.revealed.withdrawal_only,
               r.revealed.announce_only, r.revealed.outside_only,
               r.revealed.ambiguous)
      << '\n';

  lines = {};
  for (const core::ExplorationEvent& e : r.exploration) {
    lines.push_back(words(e.session.to_string(), e.prefix.to_string(),
                          e.as_path.to_string(), e.begin.unix_micros(),
                          e.end.unix_micros(), e.nc_count,
                          e.distinct_attributes));
  }
  section(out, "exploration", std::move(lines));

  lines = {};
  for (const core::AsUsage& u : r.usage) {
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

}  // namespace

std::uint64_t report_digest(const Reports& reports) {
  return fnv1a64(render_reports(reports));
}

void write_counters(JsonWriter& json, const Reports& reports) {
  const analytics::CommunityStatsPass::Report& c = reports.communities;
  json.begin_object();
  json.key("announcements").value(c.announcements);
  json.key("withdrawals").value(c.withdrawals);
  json.key("with_communities").value(c.with_communities);
  json.key("community_occurrences").value(c.community_occurrences);
  json.key("unique_communities").value(c.unique_communities);
  json.key("types").begin_object();
  for (core::AnnouncementType type : core::kAllAnnouncementTypes) {
    json.key(core::label(type)).value(reports.types.counts.count(type));
  }
  json.end_object();
  json.end_object();
}

// ---------------------------------------------------------------------------
// Stream digest.

namespace {

template <typename T>
void mix(std::uint64_t& hash, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  hash = fnv1a64(std::string_view(bytes, sizeof(T)), hash);
}

void mix_ip(std::uint64_t& hash, const IpAddress& ip) {
  std::span<const std::uint8_t> bytes = ip.bytes();
  mix(hash, static_cast<std::uint8_t>(bytes.size()));
  hash = fnv1a64(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                  bytes.size()),
                 hash);
}

}  // namespace

void StreamHasher::add(const core::UpdateRecord& record) {
  mix(hash_, record.time.unix_micros());
  hash_ = fnv1a64(record.session.collector, hash_);
  mix(hash_, record.session.peer_asn.value());
  mix_ip(hash_, record.session.peer_address);
  mix_ip(hash_, record.prefix.address());
  mix(hash_, static_cast<std::uint8_t>(record.prefix.length()));
  mix(hash_, static_cast<std::uint8_t>(record.announcement));
  if (!record.announcement) return;
  const PathAttributes& a = record.attrs;
  mix(hash_, static_cast<std::uint8_t>(a.origin));
  for (const AsPathSegment& segment : a.as_path.segments()) {
    mix(hash_, static_cast<std::uint8_t>(segment.type));
    mix(hash_, static_cast<std::uint32_t>(segment.asns.size()));
    for (Asn asn : segment.asns) mix(hash_, asn.value());
  }
  mix_ip(hash_, a.next_hop);
  mix(hash_, a.med.value_or(0));
  mix(hash_, static_cast<std::uint8_t>(a.med.has_value()));
  mix(hash_, a.local_pref.value_or(0));
  mix(hash_, static_cast<std::uint8_t>(a.local_pref.has_value()));
  mix(hash_, static_cast<std::uint8_t>(a.atomic_aggregate));
  if (a.aggregator) {
    mix(hash_, a.aggregator->asn.value());
    mix_ip(hash_, a.aggregator->address);
  }
  mix(hash_, static_cast<std::uint32_t>(a.communities.size()));
  for (Community community : a.communities) mix(hash_, community.raw());
  for (const LargeCommunity& lc : a.large_communities.items()) {
    mix(hash_, lc.global_admin);
    mix(hash_, lc.data1);
    mix(hash_, lc.data2);
  }
  for (const RawAttribute& raw : a.unknown) {
    mix(hash_, raw.flags);
    mix(hash_, raw.type);
    hash_ = fnv1a64(std::string_view(reinterpret_cast<const char*>(
                                         raw.value.data()),
                                     raw.value.size()),
                    hash_);
  }
}

}  // namespace bgpcc::e2e
