// Unit tests: the §5 announcement-type classifier.
#include <gtest/gtest.h>

#include <utility>

#include "core/classifier.h"
#include "run_pass.h"

namespace bgpcc::core {
namespace {

SessionKey session_a() {
  return SessionKey{"rrc00", Asn(20205), IpAddress::from_string("192.0.2.1")};
}

UpdateRecord make_record(const std::string& path, const std::string& comms,
                         int t = 0, bool announcement = true) {
  UpdateRecord r;
  r.time = Timestamp::from_unix_seconds(t);
  r.session = session_a();
  r.prefix = Prefix::from_string("84.205.64.0/24");
  r.announcement = announcement;
  if (announcement) {
    r.attrs.as_path = AsPath::from_string(path);
    r.attrs.next_hop = IpAddress::from_string("192.0.2.1");
    if (!comms.empty()) {
      std::size_t start = 0;
      while (start < comms.size()) {
        std::size_t end = comms.find(' ', start);
        if (end == std::string::npos) end = comms.size();
        r.attrs.communities.add(
            Community::from_string(comms.substr(start, end - start)));
        start = end + 1;
      }
    }
  }
  return r;
}

TEST(Classifier, FirstSightingIsUntyped) {
  Classifier c;
  EXPECT_EQ(c.classify(make_record("100 200", "")), std::nullopt);
  EXPECT_EQ(c.counts().first_sightings, 1u);
  EXPECT_EQ(c.counts().total(), 0u);
}

TEST(Classifier, AllSixTypes) {
  Classifier c;
  c.classify(make_record("100 200", "100:1"));
  // pc: path and community change.
  EXPECT_EQ(c.classify(make_record("100 300", "100:2")),
            AnnouncementType::kPc);
  // pn: path change only.
  EXPECT_EQ(c.classify(make_record("100 200", "100:2")),
            AnnouncementType::kPn);
  // nc: community change only.
  EXPECT_EQ(c.classify(make_record("100 200", "100:3")),
            AnnouncementType::kNc);
  // nn: no change.
  EXPECT_EQ(c.classify(make_record("100 200", "100:3")),
            AnnouncementType::kNn);
  // xc: prepending-only path change + community change.
  EXPECT_EQ(c.classify(make_record("100 100 200", "100:4")),
            AnnouncementType::kXc);
  // xn: prepending-only path change.
  EXPECT_EQ(c.classify(make_record("100 100 100 200", "100:4")),
            AnnouncementType::kXn);
  EXPECT_EQ(c.counts().total(), 6u);
  for (AnnouncementType t : kAllAnnouncementTypes) {
    EXPECT_EQ(c.counts().count(t), 1u) << label(t);
  }
}

TEST(Classifier, EmptyToEmptyCommunitiesIsNn) {
  // The paper: "nn announcements also include two empty community
  // attributes in succession".
  Classifier c;
  c.classify(make_record("100 200", ""));
  EXPECT_EQ(c.classify(make_record("100 200", "")), AnnouncementType::kNn);
}

TEST(Classifier, WithdrawalDoesNotResetState) {
  // Figure 4: phases open with pc measured against the pre-withdrawal
  // announcement.
  Classifier c;
  c.classify(make_record("100 200", "100:1"));
  c.classify(make_record("", "", 1, /*announcement=*/false));
  EXPECT_EQ(c.counts().withdrawals, 1u);
  EXPECT_EQ(c.classify(make_record("100 300", "100:2")),
            AnnouncementType::kPc);
}

TEST(Classifier, ReAnnouncementAfterWithdrawIdenticalIsNn) {
  Classifier c;
  c.classify(make_record("100 200", "100:1"));
  c.classify(make_record("", "", 1, false));
  EXPECT_EQ(c.classify(make_record("100 200", "100:1")),
            AnnouncementType::kNn);
}

TEST(Classifier, StreamsAreIndependentPerSessionAndPrefix) {
  Classifier c;
  UpdateRecord a = make_record("100 200", "");
  UpdateRecord b = make_record("100 200", "");
  b.session.peer_asn = Asn(20811);
  UpdateRecord d = make_record("100 200", "");
  d.prefix = Prefix::from_string("84.205.65.0/24");
  EXPECT_EQ(c.classify(a), std::nullopt);
  EXPECT_EQ(c.classify(b), std::nullopt);
  EXPECT_EQ(c.classify(d), std::nullopt);
  EXPECT_EQ(c.counts().first_sightings, 3u);
  EXPECT_EQ(c.stream_states().size(), 3u);
}

TEST(Classifier, MedChangeTrackedWithinNn) {
  Classifier c;
  UpdateRecord first = make_record("100 200", "");
  first.attrs.med = 10;
  c.classify(first);
  UpdateRecord second = make_record("100 200", "");
  second.attrs.med = 20;
  EXPECT_EQ(c.classify(second), AnnouncementType::kNn);
  EXPECT_EQ(c.counts().nn_with_med_change, 1u);
}

// A restored stream table continues its per-session tallies where the
// saved one stopped, as well as its classifications.
TEST(Classifier, RestoreKeepsPerSessionTallies) {
  Classifier saved;
  saved.classify(make_record("100 200", "100:1", 0));
  saved.classify(make_record("100 200", "100:1", 1));
  saved.classify(make_record("", "", 2, false));
  Classifier restored;
  restored.restore(saved.stream_states(), saved.ledger());
  EXPECT_EQ(restored.ledger(), saved.ledger());
  for (Classifier* c : {&saved, &restored}) {
    EXPECT_EQ(c->classify(make_record("100 200", "100:1", 3)),
              AnnouncementType::kNn);
  }
  EXPECT_EQ(restored.ledger(), saved.ledger());
  const SessionTally& tally = restored.ledger().at(session_a());
  EXPECT_EQ(tally.counts.count(AnnouncementType::kNn), 2u);
  EXPECT_EQ(tally.counts.first_sightings, 1u);
  EXPECT_EQ(tally.counts.withdrawals, 1u);
  EXPECT_EQ(tally.longest_nn_run, 2u);
}

TEST(Classifier, SharesSumToOne) {
  Classifier c;
  c.classify(make_record("100 200", "100:1"));
  c.classify(make_record("100 300", "100:2"));
  c.classify(make_record("100 300", "100:3"));
  c.classify(make_record("100 300", "100:3"));
  double sum = 0;
  for (AnnouncementType t : kAllAnnouncementTypes) {
    sum += c.counts().share(t);
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(TypeCounts, Accumulate) {
  TypeCounts a;
  a.add(AnnouncementType::kPc);
  a.withdrawals = 2;
  TypeCounts b;
  b.add(AnnouncementType::kPc);
  b.add(AnnouncementType::kNn);
  b.first_sightings = 1;
  a += b;
  EXPECT_EQ(a.count(AnnouncementType::kPc), 2u);
  EXPECT_EQ(a.count(AnnouncementType::kNn), 1u);
  EXPECT_EQ(a.withdrawals, 2u);
  EXPECT_EQ(a.first_sightings, 1u);
}

TEST(ClassifyStream, CallbackSeesEverything) {
  UpdateStream stream;
  stream.add(make_record("100 200", "100:1"));
  stream.add(make_record("100 200", "100:2", 1));
  stream.add(make_record("", "", 2, false));
  // A plain Classifier loop sees every record, withdrawals included, and
  // tallies exactly what ClassifierPass reports for the stream.
  Classifier classifier;
  int calls = 0;
  for (const UpdateRecord& record : stream.records()) {
    (void)classifier.classify(record);
    ++calls;
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(classifier.counts().count(AnnouncementType::kNc), 1u);
  EXPECT_EQ(classifier.counts().withdrawals, 1u);
  analytics::ClassifierPass::Report report =
      test::run_pass(analytics::ClassifierPass{}, stream);
  EXPECT_EQ(report.counts, classifier.counts());
  EXPECT_EQ(report.streams, 1u);
}

TEST(PerSessionTypes, SortedByVolumeAndFilteredByPrefix) {
  UpdateStream stream;
  // Session A: 3 announcements of the target prefix.
  stream.add(make_record("100 200", "100:1", 0));
  stream.add(make_record("100 200", "100:2", 1));
  stream.add(make_record("100 200", "100:3", 2));
  // Session B: 2 announcements.
  for (int t = 0; t < 2; ++t) {
    UpdateRecord r = make_record("100 200", "", 10 + t);
    r.session.peer_asn = Asn(20811);
    stream.add(r);
  }
  // A different prefix that must be excluded by the filter.
  UpdateRecord other = make_record("100 900", "", 20);
  other.prefix = Prefix::from_string("10.0.0.0/8");
  stream.add(other);

  // The Figure 3 view: only the target prefix's records are observed.
  UpdateStream target;
  for (const UpdateRecord& record : stream.records()) {
    if (record.prefix == Prefix::from_string("84.205.64.0/24")) {
      target.add(record);
    }
  }
  auto per_session =
      test::run_pass(analytics::PerSessionTypesPass{}, target);
  ASSERT_EQ(per_session.size(), 2u);
  EXPECT_EQ(per_session[0].first.peer_asn, Asn(20205));
  EXPECT_EQ(per_session[0].second.count(AnnouncementType::kNc), 2u);
  EXPECT_EQ(per_session[1].first.peer_asn, Asn(20811));
  EXPECT_EQ(per_session[1].second.count(AnnouncementType::kNn), 1u);
}

// Sessions with equal classified totals rank by session ascending, however
// they arrive: the Figure-3 ranking is a total order, not whatever the sort
// algorithm leaves behind. Enough sessions that std::sort leaves its
// insertion-sort regime.
TEST(PerSessionTypes, TiedTotalsRankBySessionAscending) {
  UpdateStream stream;
  const int kSessions = 48;
  for (int i = kSessions - 1; i >= 0; --i) {
    // Totals 3, 2 or 1 by i % 3: sixteen sessions tie at each total.
    int classified = 1 + i % 3;
    for (int t = 0; t <= classified; ++t) {
      UpdateRecord r = make_record("100 200", "100:" + std::to_string(t), t);
      r.session.peer_asn = Asn(static_cast<std::uint32_t>(64512 + i));
      stream.add(r);
    }
  }
  auto ranking = test::run_pass(analytics::PerSessionTypesPass{}, stream);
  ASSERT_EQ(ranking.size(), static_cast<std::size_t>(kSessions));
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    std::uint64_t prev = ranking[i - 1].second.total();
    std::uint64_t cur = ranking[i].second.total();
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(ranking[i - 1].first, ranking[i].first);
    }
  }
  EXPECT_EQ(ranking.front().second.total(), 3u);
  EXPECT_EQ(ranking.front().first.peer_asn, Asn(64512 + 2));
}

TEST(Labels, AllDistinct) {
  std::set<std::string> labels;
  for (AnnouncementType t : kAllAnnouncementTypes) {
    labels.insert(label(t));
  }
  EXPECT_EQ(labels.size(), 6u);
}

// ---------------------------------------------------------------------------
// Community usage classification (Krenc et al.).

TEST(CommunityUsage, ValueHeuristics) {
  EXPECT_EQ(classify_community_usage(Community::of(3356, 666)),
            CommunityUsage::kBlackhole);
  EXPECT_EQ(classify_community_usage(Community::blackhole()),
            CommunityUsage::kBlackhole);
  EXPECT_EQ(classify_community_usage(Community::no_export()),
            CommunityUsage::kInformational);
  EXPECT_EQ(classify_community_usage(Community::of(3356, 70)),
            CommunityUsage::kTrafficEngineering);
  EXPECT_EQ(classify_community_usage(Community::of(3356, 0)),
            CommunityUsage::kTrafficEngineering);
  EXPECT_EQ(classify_community_usage(Community::of(3356, 2001)),
            CommunityUsage::kLocation);
  EXPECT_EQ(classify_community_usage(Community::of(3356, 501)),
            CommunityUsage::kLocation);
  EXPECT_EQ(classify_community_usage(Community::of(3356, 1500)),
            CommunityUsage::kInformational);
  EXPECT_EQ(classify_community_usage(Community::of(3356, 9000)),
            CommunityUsage::kInformational);
  // Every range edge: below 100 is TE, 500-999 and 2000-3999 location.
  const std::pair<std::uint16_t, CommunityUsage> edges[] = {
      {99, CommunityUsage::kTrafficEngineering},
      {100, CommunityUsage::kInformational},
      {499, CommunityUsage::kInformational},
      {500, CommunityUsage::kLocation},
      {999, CommunityUsage::kLocation},
      {1000, CommunityUsage::kInformational},
      {1999, CommunityUsage::kInformational},
      {2000, CommunityUsage::kLocation},
      {3999, CommunityUsage::kLocation},
      {4000, CommunityUsage::kInformational},
  };
  for (const auto& [value, usage] : edges) {
    EXPECT_EQ(classify_community_usage(Community::of(3356, value)), usage)
        << "3356:" << value;
  }
}

TEST(CommunityUsage, DominanceEdgeIsSixtyPercent) {
  // 600 of 1000 occurrences in one category label the namespace; 599
  // leave it mixed.
  for (const auto& [location, expected] :
       {std::pair{std::uint64_t{600}, UsageProfile::kLocation},
        std::pair{std::uint64_t{599}, UsageProfile::kMixed}}) {
    UsageEvidence evidence;
    evidence.value_occurrences[Community::of(3356, 2001).raw()] = location;
    evidence.value_occurrences[Community::of(3356, 80).raw()] =
        1000 - location;
    auto usage = finalize_usage(evidence, UsageOptions{});
    ASSERT_EQ(usage.size(), 1u);
    EXPECT_EQ(usage[0].profile, expected) << location << " of 1000";
  }
}

TEST(CommunityUsage, NamespaceProfilesAndEvidenceFloor) {
  UpdateStream stream;
  // 3356 tags locations (12 occurrences over 3 values), 174 sends only
  // action codes, 9000 appears once: below the evidence floor.
  for (int i = 0; i < 4; ++i) {
    stream.add(make_record(
        "20205 3356 174", "3356:2001 3356:2002 3356:501 174:80", i));
  }
  stream.add(make_record("20205 9000", "9000:1234", 10));

  UsageOptions options;
  options.min_occurrences = 3;
  auto usage =
      test::run_pass(analytics::UsageClassificationPass{options}, stream);
  ASSERT_EQ(usage.size(), 3u);
  // Sorted by occurrences descending.
  EXPECT_EQ(usage[0].asn16, 3356u);
  EXPECT_EQ(usage[0].occurrences, 12u);
  EXPECT_EQ(usage[0].distinct_values, 3u);
  EXPECT_EQ(usage[0].profile, UsageProfile::kLocation);
  EXPECT_EQ(usage[0].sessions, 1u);
  EXPECT_EQ(usage[1].asn16, 174u);
  EXPECT_EQ(usage[1].profile, UsageProfile::kTrafficEngineering);
  EXPECT_EQ(usage[2].asn16, 9000u);
  EXPECT_EQ(usage[2].profile, UsageProfile::kUnclassified);
}

TEST(CommunityUsage, MixedNamespaceNeedsNoDominantCategory) {
  UpdateStream stream;
  // Half location, half TE: no category reaches the 60% default.
  for (int i = 0; i < 5; ++i) {
    stream.add(make_record("20205 3356", "3356:2001 3356:80", i));
  }
  auto usage = test::run_pass(analytics::UsageClassificationPass{}, stream);
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].profile, UsageProfile::kMixed);
  EXPECT_EQ(usage[0].usage_values[static_cast<std::size_t>(
                CommunityUsage::kLocation)],
            1u);
  EXPECT_EQ(usage[0].usage_values[static_cast<std::size_t>(
                CommunityUsage::kTrafficEngineering)],
            1u);
}

TEST(CommunityUsage, EvidenceMergesAcrossSessionPartitions) {
  UpdateRecord a = make_record("20205 3356", "3356:2001 3356:666", 0);
  UpdateRecord b = make_record("20811 3356", "3356:2001 3356:70", 1);
  b.session.peer_asn = Asn(20811);

  UsageEvidence whole;
  accumulate_usage(a, whole);
  accumulate_usage(b, whole);

  UsageEvidence part_a;
  UsageEvidence part_b;
  accumulate_usage(a, part_a);
  accumulate_usage(b, part_b);
  merge_usage(part_a, std::move(part_b));

  UsageOptions options;
  options.min_occurrences = 1;
  EXPECT_TRUE(finalize_usage(part_a, options) ==
              finalize_usage(whole, options));
  auto usage = finalize_usage(part_a, options);
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].sessions, 2u);
  EXPECT_EQ(usage[0].distinct_values, 3u);
}

}  // namespace
}  // namespace bgpcc::core
