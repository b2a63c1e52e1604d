// The analytics engine's correctness battery:
//
//  - differential: every shipped pass must report IDENTICALLY across
//    thread counts × window sizes × execution mode (inline on the shard
//    threads, materialized stream) — the Pass contract
//    (analytics/pass.h) made executable;
//  - golden: classifier and tomography pass reports over the shared
//    golden fixture (tests/golden_fixture.h) are pinned value by value;
//  - driver lifecycle: registration/observation/report ordering is
//    enforced with loud ConfigErrors, not silent miscounts.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "archive_gen.h"
#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "golden_fixture.h"
#include "mrt/mrt.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace {

using core::CleaningOptions;
using core::IngestOptions;
using core::IngestResult;
using core::Registry;
using core::StreamingIngestor;
using core::UpdateRecord;
using core::UpdateStream;
using core::archgen::allocated_registry;
using core::archgen::ArchiveGenerator;

/// Every shipped pass's reports, bundled for equality comparison.
struct AllReports {
  ClassifierPass::Report types;
  PerSessionTypesPass::Report per_session;
  TomographyPass::Report tomography;
  CommunityStatsPass::Report communities;
  DuplicateBurstPass::Report duplicates;

  friend bool operator==(const AllReports&, const AllReports&) = default;
};

struct Handles {
  PassHandle<ClassifierPass> types;
  PassHandle<PerSessionTypesPass> per_session;
  PassHandle<TomographyPass> tomography;
  PassHandle<CommunityStatsPass> communities;
  PassHandle<DuplicateBurstPass> duplicates;
};

Handles add_all_passes(AnalysisDriver& driver) {
  core::TomographyOptions tomography;
  tomography.min_on_path = 5;
  return Handles{driver.add(ClassifierPass{}),
                 driver.add(PerSessionTypesPass{}),
                 driver.add(TomographyPass{tomography}),
                 driver.add(CommunityStatsPass{}),
                 driver.add(DuplicateBurstPass{})};
}

AllReports collect(AnalysisDriver& driver, const Handles& handles) {
  return AllReports{driver.report(handles.types),
                    driver.report(handles.per_session),
                    driver.report(handles.tomography),
                    driver.report(handles.communities),
                    driver.report(handles.duplicates)};
}

AllReports run_inline(const std::string& archive,
                      const CleaningOptions& cleaning, unsigned threads,
                      std::size_t window_records) {
  IngestOptions options;
  options.num_threads = threads;
  options.chunk_records = 32;
  options.cleaning = &cleaning;
  options.window_records = window_records;

  AnalysisDriver driver;
  Handles handles = add_all_passes(driver);
  std::istringstream in(archive);
  driver.attach(options);
  StreamingIngestor engine(options);
  engine.add_stream("rrc00", in);
  IngestResult result = engine.finish();
  EXPECT_GT(result.stream.size(), 0u);
  return collect(driver, handles);
}

// ---------------------------------------------------------------------------
// Differential: reports are identical across every execution shape.

TEST(AnalyticsDifferential, ThreadsWindowsAndModesAgree) {
  ArchiveGenerator gen(20260801);
  std::string archive = gen.generate(1200);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  // Reference: materialized stream observed on one thread.
  IngestOptions batch;
  batch.num_threads = 1;
  batch.cleaning = &cleaning;
  std::istringstream in(archive);
  IngestResult result = core::ingest_mrt_stream("rrc00", in, batch);
  ASSERT_GT(result.stream.size(), 0u);
  AnalysisDriver reference;
  Handles handles = add_all_passes(reference);
  reference.observe_stream(result.stream);
  AllReports expected = collect(reference, handles);

  // Sanity: the fixture actually exercises every pass.
  ASSERT_GT(expected.types.counts.total(), 0u);
  ASSERT_GT(expected.duplicates.nn, 0u);
  ASSERT_GT(expected.communities.unique_communities, 0u);
  ASSERT_FALSE(expected.tomography.empty());
  ASSERT_FALSE(expected.per_session.empty());

  for (unsigned threads : {1u, 4u}) {
    for (std::size_t window : {std::size_t{0}, std::size_t{64}}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " window=" << window);
      EXPECT_TRUE(run_inline(archive, cleaning, threads, window) == expected);
    }
  }
}

// Multi-archive inline analysis through the one-call helper: same
// reports as single-archive ingestion of the concatenation.
TEST(AnalyticsDifferential, MultiArchiveHelperAgrees) {
  ArchiveGenerator gen(42);
  std::string archive = gen.generate(600);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 16;
  options.cleaning = &cleaning;

  AnalysisDriver whole_driver;
  Handles whole_handles = add_all_passes(whole_driver);
  whole_driver.attach(options);
  std::istringstream whole_in(archive);
  (void)core::ingest_mrt_stream("rrc00", whole_in, options);
  AllReports expected = collect(whole_driver, whole_handles);

  // Split on a record boundary and ingest as two files of one collector.
  std::size_t cut = 0;
  {
    std::istringstream frame_in(archive);
    mrt::Reader reader(frame_in);
    while (reader.next()) {
      std::size_t pos = static_cast<std::size_t>(frame_in.tellg());
      if (pos <= archive.size() / 2) cut = pos;
    }
  }
  ASSERT_GT(cut, 0u);
  std::istringstream in_a(archive.substr(0, cut));
  std::istringstream in_b(archive.substr(cut));

  AnalysisDriver split_driver;
  Handles split_handles = add_all_passes(split_driver);
  IngestOptions split_options;
  split_options.num_threads = 2;
  split_options.chunk_records = 16;
  split_options.cleaning = &cleaning;
  split_driver.attach(split_options);
  (void)core::ingest_mrt_sources({core::MrtSource{"rrc00", &in_a},
                                  core::MrtSource{"rrc00", &in_b}},
                                 split_options);
  EXPECT_TRUE(collect(split_driver, split_handles) == expected);
}

// ---------------------------------------------------------------------------
// Golden: classifier and tomography pass reports over the shared golden
// fixture, pinned value by value. Regenerate ONLY for an intentional,
// reviewed change to a pass's contract.

const core::AsEvidence* find_asn(const TomographyPass::Report& report,
                                 std::uint32_t asn) {
  for (const core::AsEvidence& e : report) {
    if (e.asn == Asn(asn)) return &e;
  }
  return nullptr;
}

TEST(AnalyticsGolden, ClassifierAndTomographyReportsPinned) {
  Registry registry = core::goldenfix::golden_registry();
  CleaningOptions cleaning = core::goldenfix::golden_cleaning(registry);

  IngestOptions options;
  options.num_threads = 1;
  options.chunk_records = 8;
  options.cleaning = &cleaning;

  AnalysisDriver driver;
  auto types = driver.add(ClassifierPass{});
  core::TomographyOptions tomography_options;
  tomography_options.min_on_path = 5;
  auto tomography = driver.add(TomographyPass{tomography_options});
  auto communities = driver.add(CommunityStatsPass{});
  auto duplicates = driver.add(DuplicateBurstPass{});
  driver.attach(options);
  std::istringstream in(core::goldenfix::golden_archive());
  IngestResult result = core::ingest_mrt_stream("rrc00", in, options);
  ASSERT_EQ(result.stream.size(), 36u);

  ClassifierPass::Report t = driver.report(types);
  EXPECT_EQ(t.counts.count(core::AnnouncementType::kPc), 0u);
  EXPECT_EQ(t.counts.count(core::AnnouncementType::kPn), 0u);
  EXPECT_EQ(t.counts.count(core::AnnouncementType::kNc), 15u);
  EXPECT_EQ(t.counts.count(core::AnnouncementType::kNn), 10u);
  EXPECT_EQ(t.counts.count(core::AnnouncementType::kXc), 0u);
  EXPECT_EQ(t.counts.count(core::AnnouncementType::kXn), 0u);
  EXPECT_EQ(t.counts.first_sightings, 5u);
  EXPECT_EQ(t.counts.withdrawals, 6u);
  EXPECT_EQ(t.counts.nn_with_med_change, 0u);
  EXPECT_EQ(t.streams, 5u);

  TomographyPass::Report evidence = driver.report(tomography);
  ASSERT_EQ(evidence.size(), 6u);
  const core::AsEvidence* tagger = find_asn(evidence, 65100);
  ASSERT_NE(tagger, nullptr);
  EXPECT_EQ(tagger->on_path, 24u);
  EXPECT_EQ(tagger->own_namespace_tagged, 12u);
  EXPECT_EQ(tagger->classification, core::CommunityBehavior::kTagger);
  const core::AsEvidence* propagator = find_asn(evidence, 65001);
  ASSERT_NE(propagator, nullptr);
  EXPECT_EQ(propagator->on_path, 18u);
  EXPECT_EQ(propagator->as_peer, 18u);
  EXPECT_EQ(propagator->as_peer_with_communities, 18u);
  EXPECT_EQ(propagator->as_peer_with_foreign, 12u);
  EXPECT_EQ(propagator->classification,
            core::CommunityBehavior::kPropagator);
  const core::AsEvidence* cleaner = find_asn(evidence, 65002);
  ASSERT_NE(cleaner, nullptr);
  EXPECT_EQ(cleaner->as_peer, 6u);
  EXPECT_EQ(cleaner->as_peer_with_communities, 0u);
  EXPECT_EQ(cleaner->classification, core::CommunityBehavior::kCleaner);

  CommunityStatsPass::Report stats = driver.report(communities);
  EXPECT_EQ(stats.announcements, 30u);
  EXPECT_EQ(stats.withdrawals, 6u);
  EXPECT_EQ(stats.with_communities, 18u);
  EXPECT_EQ(stats.community_occurrences, 18u);
  EXPECT_EQ(stats.unique_communities, 12u);
  ASSERT_EQ(stats.namespaces.size(), 1u);
  EXPECT_EQ(stats.namespaces[0].asn16, 65100u);
  EXPECT_EQ(stats.namespaces[0].distinct_values, 12u);
  ASSERT_GE(stats.communities_per_announcement.size(), 2u);
  EXPECT_EQ(stats.communities_per_announcement[0], 12u);
  EXPECT_EQ(stats.communities_per_announcement[1], 18u);
  EXPECT_DOUBLE_EQ(stats.mean_communities(), 0.6);

  DuplicateBurstPass::Report dup = driver.report(duplicates);
  EXPECT_EQ(dup.classified, 25u);
  EXPECT_EQ(dup.nn, 10u);
  EXPECT_EQ(dup.bursts, 2u);
  ASSERT_EQ(dup.sessions.size(), 3u);
  EXPECT_EQ(dup.sessions[0].session.peer_asn, Asn(65002));
  EXPECT_EQ(dup.sessions[0].nn, 5u);
  EXPECT_EQ(dup.sessions[0].bursts, 1u);
  EXPECT_EQ(dup.sessions[0].longest_run, 5u);
  EXPECT_EQ(dup.sessions[1].session.peer_asn, Asn(65010));
  EXPECT_EQ(dup.sessions[1].nn, 5u);
  EXPECT_EQ(dup.sessions[2].session.peer_asn, Asn(65001));
  EXPECT_EQ(dup.sessions[2].nn, 0u);
  EXPECT_EQ(dup.sessions[2].classified, 15u);
}

// ---------------------------------------------------------------------------
// Pass algebra: manual splits merge to the single-state result.

TEST(AnalyticsPasses, ManualMergeEqualsSingleState) {
  ArchiveGenerator gen(7);
  std::string archive = gen.generate(300);
  IngestOptions options;
  options.num_threads = 1;
  std::istringstream in(archive);
  IngestResult result = core::ingest_mrt_stream("rrc00", in, options);
  const std::vector<UpdateRecord>& records = result.stream.records();
  ASSERT_GT(records.size(), 10u);

  // One driver sees the whole stream. Two more split it by SESSION (the
  // sharding unit — splitting one session's stream mid-way is outside
  // the Pass contract for order-sensitive passes); the second's saved
  // partial state merges into the first.
  AnalysisDriver whole;
  auto whole_stats = whole.add(CommunityStatsPass{});
  auto whole_dup = whole.add(DuplicateBurstPass{});
  whole.observe_stream(result.stream);

  AnalysisDriver part_a;
  AnalysisDriver part_b;
  auto part_stats = part_a.add(CommunityStatsPass{});
  auto part_dup = part_a.add(DuplicateBurstPass{});
  (void)part_b.add(CommunityStatsPass{});
  (void)part_b.add(DuplicateBurstPass{});
  for (const UpdateRecord& record : records) {
    (record.session.hash() % 2 == 0 ? part_a : part_b).observe(record);
  }
  std::stringstream partial;
  part_b.save_state(partial);
  part_a.load_state(partial);
  EXPECT_TRUE(part_a.report(part_stats) == whole.report(whole_stats));
  EXPECT_TRUE(part_a.report(part_dup) == whole.report(whole_dup));
}

// ClassifierPass::Report::streams is counts.first_sightings. It still
// counts every (session, prefix) stream exactly once when the records
// are spread over several shards and the run resumes from a checkpoint
// taken mid-way.
TEST(AnalyticsPasses, StreamCountSurvivesShardsAndResume) {
  ArchiveGenerator gen(20261017);
  std::string archive = gen.generate(800);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;
  IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 32;
  options.window_records = 128;
  options.cleaning = &cleaning;

  std::ostringstream checkpoint;
  {
    AnalysisDriver driver;
    (void)driver.add(ClassifierPass{});
    IngestOptions opt = options;
    driver.attach(opt);
    StreamingIngestor engine(opt);
    std::istringstream in(archive);
    engine.add_stream("rrc00", in);
    ASSERT_TRUE(engine.poll());
    ASSERT_TRUE(engine.poll());
    ASSERT_GT(engine.stats().shards, 1u);
    driver.checkpoint(checkpoint, engine);
  }
  AnalysisDriver driver;
  auto types = driver.add(ClassifierPass{});
  IngestOptions opt = options;
  driver.attach(opt);
  StreamingIngestor engine(opt);
  std::istringstream in(archive);
  engine.add_stream("rrc00", in);
  std::istringstream checkpoint_in(checkpoint.str());
  driver.restore(checkpoint_in, engine);
  IngestResult rest = engine.finish();
  ASSERT_GT(rest.stream.size(), 0u) << "the checkpoint must land mid-run";

  IngestOptions batch;
  batch.num_threads = 1;
  batch.cleaning = &cleaning;
  std::istringstream all_in(archive);
  IngestResult all = core::ingest_mrt_stream("rrc00", all_in, batch);
  std::set<std::pair<core::SessionKey, Prefix>> announced;
  for (const UpdateRecord& record : all.stream.records()) {
    if (record.announcement) announced.emplace(record.session, record.prefix);
  }
  ASSERT_GT(announced.size(), 1u);
  EXPECT_EQ(driver.report(types).streams, announced.size());
}

// ---------------------------------------------------------------------------
// Driver lifecycle: misuse throws instead of miscounting.

TEST(AnalyticsDriver, LifecycleErrors) {
  AnalysisDriver driver;
  auto handle = driver.add(ClassifierPass{});
  IngestOptions options;
  driver.attach(options);
  // Registration after observation started: refused.
  EXPECT_THROW((void)driver.add(ClassifierPass{}), ConfigError);

  UpdateRecord record;
  record.session = core::SessionKey{"rrc00", Asn(65001),
                                    IpAddress::from_string("10.0.0.1")};
  record.prefix = Prefix::from_string("10.0.0.0/16");
  driver.observe(record);
  ClassifierPass::Report report = driver.report(handle);
  EXPECT_EQ(report.streams, 1u);
  // Reports are re-redeemable; observation after report() is not.
  EXPECT_EQ(driver.report(handle).counts.first_sightings, 1u);
  EXPECT_THROW(driver.observe(record), ConfigError);
  // Registration after report(): refused (a handle minted now would
  // index past the merged state set).
  EXPECT_THROW((void)driver.add(CommunityStatsPass{}), ConfigError);
}

// A still-attached IngestOptions reused after report() must surface the
// contract violation as ConfigError from the ingest call — not an
// out-of-range crash on a worker thread.
TEST(AnalyticsDriver, ReattachedOptionsAfterReportThrow) {
  ArchiveGenerator gen(11);
  std::string archive = gen.generate(100);
  AnalysisDriver driver;
  auto handle = driver.add(ClassifierPass{});
  IngestOptions options;
  options.num_threads = 2;
  driver.attach(options);
  {
    std::istringstream in(archive);
    (void)core::ingest_mrt_stream("rrc00", in, options);
  }
  EXPECT_GT(driver.report(handle).streams, 0u);
  std::istringstream again(archive);
  EXPECT_THROW((void)core::ingest_mrt_stream("rrc00", again, options),
               ConfigError);
}

TEST(AnalyticsDriver, ForeignHandleThrows) {
  AnalysisDriver a;
  AnalysisDriver b;
  (void)a.add(TomographyPass{});
  auto foreign = b.add(ClassifierPass{});
  // In-range index, wrong driver: refused instead of reading the wrong
  // pass's state through the wrong type.
  EXPECT_THROW((void)a.report(foreign), ConfigError);
}

TEST(AnalyticsDriver, EmptyDriverReportsEmpty) {
  AnalysisDriver driver;
  auto handle = driver.add(ClassifierPass{});
  ClassifierPass::Report report = driver.report(handle);
  EXPECT_EQ(report.streams, 0u);
  EXPECT_EQ(report.counts.total(), 0u);
}

}  // namespace
}  // namespace bgpcc::analytics
