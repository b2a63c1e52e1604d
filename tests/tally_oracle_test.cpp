// An independent §5 tally oracle: every BGP session's six types, first
// sightings, withdrawals, nn with a MED change, classified/nn counts and
// nn runs, recomputed from the paper's text over a flat record vector and
// a plain map of the last announcement per (collector, peer, prefix). It
// never calls core::Classifier, and has its own prepending-only test.
// Beside it, a community oracle recounts Table 1's community rows and
// Fig 4's namespaces (announcements, withdrawals, values, the
// communities-per-announcement histogram) without CommunityStatsPass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "archive_gen.h"
#include "core/ingest.h"
#include "synth/macrogen.h"

namespace bgpcc::core {
namespace {

constexpr std::uint64_t kMinRun = 3;  // DuplicateBurstPass's burst length

/// What the oracle counts for one session. TypeCounts is plain storage
/// here: the oracle fills its fields itself.
struct OracleTally {
  TypeCounts counts;
  std::uint64_t classified = 0;
  std::uint64_t longest_run = 0;
  std::uint64_t bursts = 0;
};

/// The ASNs of a path, left to right, with repeated neighbours collapsed:
/// two paths that differ only by prepending collapse to the same list.
std::vector<std::uint32_t> collapsed(const AsPath& path) {
  std::vector<std::uint32_t> out;
  for (const AsPathSegment& segment : path.segments()) {
    for (Asn asn : segment.asns) {
      if (out.empty() || out.back() != asn.value()) out.push_back(asn.value());
    }
  }
  return out;
}

std::map<SessionKey, OracleTally> oracle(
    const std::vector<UpdateRecord>& records) {
  struct Last {
    AsPath path;
    CommunitySet communities;
    std::optional<std::uint32_t> med;
    std::uint64_t nn_run = 0;
  };
  std::map<std::pair<SessionKey, Prefix>, Last> last;
  std::map<SessionKey, OracleTally> tallies;
  for (const UpdateRecord& r : records) {
    OracleTally& tally = tallies[r.session];
    const auto key = std::make_pair(r.session, r.prefix);
    // A withdrawal is counted and leaves the comparison state alone.
    if (!r.announcement) {
      ++tally.counts.withdrawals;
      continue;
    }
    auto it = last.find(key);
    if (it == last.end()) {
      ++tally.counts.first_sightings;
      last[key] = Last{r.attrs.as_path, r.attrs.communities, r.attrs.med, 0};
      continue;
    }
    Last& prev = it->second;
    const bool same_path = prev.path == r.attrs.as_path;
    const bool same_comms = prev.communities == r.attrs.communities;
    const bool prepending =
        !same_path && collapsed(prev.path) == collapsed(r.attrs.as_path);
    AnnouncementType type = AnnouncementType::kPn;
    if (same_path) {
      type = same_comms ? AnnouncementType::kNn : AnnouncementType::kNc;
    } else if (prepending) {
      type = same_comms ? AnnouncementType::kXn : AnnouncementType::kXc;
    } else if (!same_comms) {
      type = AnnouncementType::kPc;
    }
    ++tally.counts.counts[static_cast<std::size_t>(type)];
    ++tally.classified;
    if (type == AnnouncementType::kNn) {
      if (prev.med != r.attrs.med) ++tally.counts.nn_with_med_change;
      ++prev.nn_run;
      if (prev.nn_run == kMinRun) ++tally.bursts;
      tally.longest_run = std::max(tally.longest_run, prev.nn_run);
    } else {
      prev.nn_run = 0;
    }
    prev.path = r.attrs.as_path;
    prev.communities = r.attrs.communities;
    prev.med = r.attrs.med;
  }
  return tallies;
}

/// CommunityStatsPass's bucket count: 0 to 15 communities, then
/// one bucket for 16 or more.
constexpr std::size_t kBuckets = 17;

/// Table 1's community rows and Fig 4's namespaces, recounted from the
/// records with plain counters, an ordered value set and a fixed
/// histogram.
analytics::CommunityStatsPass::Report community_oracle(
    const std::vector<UpdateRecord>& records) {
  analytics::CommunityStatsPass::Report out;
  out.communities_per_announcement.assign(kBuckets, 0);
  std::set<std::uint32_t> values;
  for (const UpdateRecord& r : records) {
    if (!r.announcement) {
      ++out.withdrawals;
      continue;
    }
    ++out.announcements;
    std::size_t carried = 0;
    for (Community c : r.attrs.communities) {
      ++carried;
      values.insert(c.raw());
    }
    out.community_occurrences += carried;
    if (carried > 0) ++out.with_communities;
    ++out.communities_per_announcement[std::min(carried, kBuckets - 1)];
  }
  out.unique_communities = values.size();
  // Fig 4: distinct values per 16-bit namespace, most values first and
  // ties by namespace.
  std::map<std::uint16_t, std::uint64_t> per_namespace;
  for (std::uint32_t value : values) {
    ++per_namespace[static_cast<std::uint16_t>(value >> 16)];
  }
  for (const auto& [asn16, distinct] : per_namespace) {
    out.namespaces.push_back({asn16, distinct});
  }
  std::sort(out.namespaces.begin(), out.namespaces.end(),
            [](const auto& a, const auto& b) {
              if (a.distinct_values != b.distinct_values) {
                return a.distinct_values > b.distinct_values;
              }
              return a.asn16 < b.asn16;
            });
  return out;
}

void expect_reports_match_oracle(const std::vector<UpdateRecord>& records) {
  ASSERT_FALSE(records.empty());
  const std::map<SessionKey, OracleTally> expected = oracle(records);

  analytics::AnalysisDriver driver;
  auto types = driver.add(analytics::ClassifierPass{});
  auto sessions = driver.add(analytics::PerSessionTypesPass{});
  auto duplicates = driver.add(analytics::DuplicateBurstPass{});
  auto communities = driver.add(analytics::CommunityStatsPass{});
  for (const UpdateRecord& record : records) driver.observe(record);

  // Table 1's community rows and Fig 4, field by field.
  EXPECT_EQ(driver.report(communities), community_oracle(records));

  // Table 2 is the sum over sessions; §6 sums the typed sessions' rows.
  TypeCounts sum;
  analytics::DuplicateBurstPass::Report totals;
  for (const auto& [session, tally] : expected) {
    for (std::size_t i = 0; i < sum.counts.size(); ++i) {
      sum.counts[i] += tally.counts.counts[i];
    }
    sum.first_sightings += tally.counts.first_sightings;
    sum.withdrawals += tally.counts.withdrawals;
    sum.nn_with_med_change += tally.counts.nn_with_med_change;
    totals.classified += tally.classified;
    totals.nn += tally.counts.count(AnnouncementType::kNn);
    totals.bursts += tally.bursts;
  }
  const analytics::ClassifierPass::Report global = driver.report(types);
  EXPECT_EQ(global.counts, sum);
  EXPECT_EQ(global.streams, sum.first_sightings);

  // Fig 3: every session that sent any record, with all its tallies.
  const analytics::PerSessionTypesPass::Report ranking =
      driver.report(sessions);
  ASSERT_EQ(ranking.size(), expected.size());
  for (const auto& [session, counts] : ranking) {
    ASSERT_TRUE(expected.contains(session)) << session.to_string();
    EXPECT_EQ(counts, expected.at(session).counts) << session.to_string();
  }

  // §6 duplicates: the sessions with at least one typed announcement.
  const analytics::DuplicateBurstPass::Report dup = driver.report(duplicates);
  EXPECT_EQ(dup.classified, totals.classified);
  EXPECT_EQ(dup.nn, totals.nn);
  EXPECT_EQ(dup.bursts, totals.bursts);
  ASSERT_EQ(dup.sessions.size(),
            std::count_if(expected.begin(), expected.end(), [](const auto& e) {
              return e.second.classified > 0;
            }));
  for (const auto& row : dup.sessions) {
    SCOPED_TRACE(row.session.to_string());
    const OracleTally& tally = expected.at(row.session);
    EXPECT_EQ(row.classified, tally.classified);
    EXPECT_EQ(row.nn, tally.counts.count(AnnouncementType::kNn));
    EXPECT_EQ(row.bursts, tally.bursts);
    EXPECT_EQ(row.longest_run, tally.longest_run);
  }
}

/// An announcement of the Fig 3 beacon prefix carrying `communities`
/// values in two namespaces, or a withdrawal when `path` is empty.
UpdateRecord record(const SessionKey& session, const std::string& path,
                    std::optional<std::uint32_t> med = std::nullopt,
                    std::uint16_t communities = 0) {
  UpdateRecord r;
  r.session = session;
  r.prefix = Prefix::from_string("84.205.64.0/24");
  r.announcement = !path.empty();
  if (!r.announcement) return r;
  r.attrs.as_path = AsPath::from_string(path);
  r.attrs.med = med;
  for (std::uint16_t i = 0; i < communities; ++i) {
    const std::uint16_t asn16 = i % 3 == 0 ? 174 : 3356;
    r.attrs.communities.add(
        Community::of(asn16, static_cast<std::uint16_t>(2001 + i)));
  }
  return r;
}

// Hand-built shapes: a session that only withdraws, an nn run straddling
// a withdrawal, prepending with and without a community change, a
// MED-only change, and attributes of 15, 16 and 20 communities (the last
// histogram bucket and the one below it).
TEST(TallyOracle, EdgeCasesMatchReports) {
  const SessionKey a{"rrc00", Asn(20205), IpAddress::from_string("192.0.2.1")};
  const SessionKey b{"rrc01", Asn(3333), IpAddress::from_string("192.0.2.2")};
  const std::string p = "20205 3356 12654";
  expect_reports_match_oracle({
      record(b, ""),                            // b only withdraws
      record(a, p), record(a, p),               // first sighting, nn run 1
      record(a, p, 10),                         // nn with a MED change
      record(a, ""),                            // withdrawal inside the run
      record(a, p, 10), record(a, p, 10),       // nn runs 3 and 4
      record(a, "20205 20205 3356 12654", 10),  // xn
      record(a, p, 10, 1),                      // xc
      record(a, "20205 174 12654", 10, 1),      // pn
      record(a, p, 10),                         // pc
      record(b, p, std::nullopt, 20),           // b's first sighting
      record(b, p, std::nullopt, 16),           // nc
      record(b, p, std::nullopt, 15),           // nc
      record(b, ""),
  });
}

// The seeded archives analytics_test ingests: repeated prefixes (nn and
// nc churn), withdrawals, same-second bursts and sub-second peers.
TEST(TallyOracle, GeneratedArchivesMatchReports) {
  Registry registry = archgen::allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;
  IngestOptions options;
  options.num_threads = 1;
  options.cleaning = &cleaning;
  for (std::uint32_t seed : {20260801u, 7u, 424242u}) {
    SCOPED_TRACE(seed);
    std::istringstream in(archgen::ArchiveGenerator(seed).generate(1500));
    IngestResult result = ingest_mrt_stream("rrc00", in, options);
    expect_reports_match_oracle(result.stream.records());
  }
}

// One small macro-scale day: many sessions, prepending toggles, MED-only
// changes and duplicate churn.
TEST(TallyOracle, MacroGenDayMatchesReports) {
  synth::MacroParams params = synth::MacroParams::march2020(1.0 / 16384,
                                                            1.0 / 512);
  params.sessions = 60;
  params.peers = 30;
  params.collectors = 3;
  params.seed = 99;
  std::vector<UpdateRecord> records;
  (void)synth::MacroGen(params).generate_day(
      [&](const UpdateRecord& record) { records.push_back(record); });
  expect_reports_match_oracle(records);
}

}  // namespace
}  // namespace bgpcc::core
