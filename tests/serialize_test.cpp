// The wire codec's correctness battery (analytics/serialize.h):
//
//  - primitives: big-endian byte layouts pinned, roundtrips exact;
//  - roundtrip: save_state → load_state reproduces every shipped pass's
//    report exactly;
//  - differential: per-collector partial runs, serialized and fanned
//    back in, report identically to the monolithic run — the
//    associativity proof for the on-disk path;
//  - robustness: truncation at every prefix length, bad magic, wrong
//    version, cross-driver tag mismatches, bare-cursor misuse, and a
//    corrupt length prefix all throw DecodeError/ConfigError — never UB
//    (the ASan/UBSan CI jobs run this suite);
//  - state files: a trailing byte, a blob length off by one and an
//    output stream that fails mid-write all throw DecodeError;
//  - canonical bytes: every pass payload, a stream table section and a
//    cursor block, cut at every byte and flipped at every byte, either
//    throw or decode to a value that re-encodes to the same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "analytics/serialize.h"
#include "analytics/standard.h"
#include "archive_gen.h"
#include "core/cleaning.h"
#include "core/codec.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace {

using core::CleaningOptions;
using core::IngestOptions;
using core::IngestResult;
using core::Registry;
using core::StreamingIngestor;
using core::archgen::allocated_registry;
using core::archgen::ArchiveGenerator;

/// The bytes `w` holds, as a string (the fixtures compare strings).
std::string str(const ByteWriter& w) {
  return {w.data().begin(), w.data().end()};
}

/// A reader over `bytes`, which must outlive it.
ByteReader reader_of(const std::string& bytes) {
  return ByteReader({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                     bytes.size()});
}

/// Decodes one value of type T through the generic codec.
template <class T>
T read_as(ByteReader& r) {
  T value{};
  core::codec::read_value(r, value);
  return value;
}

// ---------------------------------------------------------------------------
// Primitives.

TEST(SerializePrimitives, BigEndianLayoutsArePinned) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  std::string bytes = str(w);
  ASSERT_EQ(bytes.size(), 15u);
  const unsigned char expected[] = {0xAB, 0x12, 0x34, 0xDE, 0xAD,
                                    0xBE, 0xEF, 0x01, 0x02, 0x03,
                                    0x04, 0x05, 0x06, 0x07, 0x08};
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected[i]) << i;
  }
  EXPECT_EQ(w.size(), 15u);
}

// The v5 layouts, byte for byte: a ClassifierPass partial state (v5: the
// ledger section, then an empty tag 1 payload), a one-stream table
// section of a checkpoint and the ledger section that follows it, and an
// ExplorationPass partial state holding one run in flight (v5: after the
// ledger section).
TEST(SerializePrimitives, V5LayoutsArePinned) {
  core::UpdateRecord record;
  record.session =
      core::SessionKey{"rrc00", Asn(65001), IpAddress::v4(10, 0, 0, 1)};
  record.prefix = Prefix::from_string("10.0.0.0/8");
  record.attrs.as_path = AsPath::sequence({Asn(65001), Asn(65002)});
  record.attrs.communities.add(Community::of(65001, 1));
  core::UpdateRecord changed = record;
  changed.attrs.communities.add(Community::of(65001, 2));

  auto as_bytes = [](const std::string& s) {
    return std::vector<unsigned char>(s.begin(), s.end());
  };
  auto u64 = [](std::uint64_t v) {
    std::vector<unsigned char> out;
    for (int i = 7; i >= 0; --i) out.push_back((v >> (8 * i)) & 0xFF);
    return out;
  };
  auto cat = [](std::vector<std::vector<unsigned char>> parts) {
    std::vector<unsigned char> out;
    for (const auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  const std::vector<unsigned char> session = {
      0x00, 0x00, 0x00, 0x05, 'r', 'r', 'c', '0', '0',  // collector
      0x00, 0x00, 0xFD, 0xE9,                           // peer AS65001
      0x04, 0x0A, 0x00, 0x00, 0x01};                    // peer IP
  const std::vector<unsigned char> prefix = {0x04, 0x0A, 0x00,
                                             0x00, 0x00, 0x08};  // 10/8
  const std::vector<unsigned char> path = {
      0x00, 0x00, 0x00, 0x01, 0x02,  // one sequence
      0x00, 0x00, 0x00, 0x02,        // of two ASNs
      0x00, 0x00, 0xFD, 0xE9, 0x00, 0x00, 0xFD, 0xEA};
  const std::vector<unsigned char> comms = {0x00, 0x00, 0x00, 0x01,
                                            0xFD, 0xE9, 0x00, 0x01};
  const std::vector<unsigned char> changed_comms = {
      0x00, 0x00, 0x00, 0x02, 0xFD, 0xE9, 0x00, 0x01, 0xFD, 0xE9, 0x00, 0x02};

  // Tag 1: first sighting, then an nc (communities change). The ledger
  // holds the tallies; the pass's own payload is empty.
  AnalysisDriver driver;
  (void)driver.add(ClassifierPass{});
  driver.observe(record);
  driver.observe(changed);
  std::ostringstream partial;
  driver.save_state(partial);
  EXPECT_EQ(as_bytes(partial.str()),
            cat({{0x42, 0x47, 0x50, 0x43, 0x00, 0x05, 0x01},  // header v5
                 {0x00, 0x01, 0x00, 0x01},                     // tag 1 only
                 u64(1), session,                     // ledger: one session
                 u64(0), u64(0), u64(1), u64(0), u64(0), u64(0),  // pc..xn
                 u64(1), u64(0), u64(0),  // first, withdrawals, nn+MED
                 u64(0),                  // longest nn run
                 u64(0)}));               // blob length: no payload

  // Table section: three identical announcements leave nn run 2; the
  // withdrawal after them sets the withdrawn bit.
  core::Classifier table;
  for (int i = 0; i < 3; ++i) (void)table.advance(record);
  core::UpdateRecord withdrawal = record;
  withdrawal.announcement = false;
  (void)table.advance(withdrawal);
  ByteWriter w;
  serialize::write_stream_table(w, table.stream_states());
  EXPECT_EQ(as_bytes(str(w)),
            cat({u64(1),  // one stream
                 session, prefix, path, comms,
                 {0x00},    // no MED
                 u64(2),    // nn run
                 {0x01}}));  // withdrawn
  ByteWriter lw;
  core::codec::write_value(lw, table.ledger());
  EXPECT_EQ(as_bytes(str(lw)),
            cat({u64(1), session,                                // one session
                 u64(0), u64(0), u64(0), u64(2), u64(0), u64(0),  // pc..xn
                 u64(1), u64(1), u64(0),  // first, withdrawals, nn+MED
                 u64(2)}));               // longest nn run

  // Tag 8: the nc inside the default withdraw phase (02:00 UTC) opens a
  // run that is still in flight at save time.
  const Timestamp phase = Timestamp::from_unix_seconds(1584237600);
  record.time = phase;
  changed.time = phase + Duration::seconds(1);
  AnalysisDriver explorer;
  (void)explorer.add(ExplorationPass{});
  explorer.observe(record);
  explorer.observe(changed);
  std::ostringstream runs;
  explorer.save_state(runs);
  auto micros = [&](Timestamp t) {
    return u64(static_cast<std::uint64_t>(t.unix_micros()));
  };
  EXPECT_EQ(as_bytes(runs.str()),
            cat({{0x42, 0x47, 0x50, 0x43, 0x00, 0x05, 0x01},  // header v5
                 {0x00, 0x01, 0x00, 0x08},                     // tag 8 only
                 u64(1), session,                     // ledger: one session
                 u64(0), u64(0), u64(1), u64(0), u64(0), u64(0),  // pc..xn
                 u64(1), u64(0), u64(0), u64(0),  // first, wdr, MED, run
                 u64(117),                                     // blob length
                 u64(1),                                       // one run
                 session, prefix, path,                        // its event
                 micros(changed.time), micros(changed.time),   // begin, end
                 u64(1), u64(2),              // nc count, distinct
                 u64(2), comms, changed_comms,  // attributes seen
                 u64(0)}));                     // no completed events
}

TEST(SerializePrimitives, RoundtripAllTypes) {
  using core::codec::write_value;
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0x80000001u);
  w.u64(~0ULL);
  write_value(w, std::int64_t{-123456789012345LL});
  write_value(w, true);
  write_value(w, false);
  write_value(w, std::string("collector.example"));
  write_value(w, std::string());

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u16(), 65535u);
  EXPECT_EQ(r.u32(), 0x80000001u);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(read_as<std::int64_t>(r), -123456789012345LL);
  EXPECT_TRUE(read_as<bool>(r));
  EXPECT_FALSE(read_as<bool>(r));
  EXPECT_EQ(read_as<std::string>(r), "collector.example");
  EXPECT_EQ(read_as<std::string>(r), "");
  EXPECT_EQ(r.position(), w.size());
}

TEST(SerializePrimitives, TruncatedReadThrows) {
  const std::uint8_t bytes[] = {0x01, 0x02};
  ByteReader r(bytes);
  EXPECT_THROW((void)r.u32(), DecodeError);
}

TEST(SerializePrimitives, OversizedStringLengthThrows) {
  ByteWriter w;
  w.u32(0x7FFFFFFF);  // a corrupt length prefix, not followed by data
  ByteReader r(w.data());
  EXPECT_THROW((void)read_as<std::string>(r), DecodeError);
}

// The writer and the reader share one string cap: a string of exactly
// the cap round-trips, and one byte more is refused when written, not
// later when a checkpoint is restored.
TEST(SerializePrimitives, StringCapIsSharedByWriterAndReader) {
  const std::string at_cap(core::codec::kMaxStringBytes, 'c');
  ByteWriter w;
  core::codec::write_value(w, at_cap);
  ByteReader r(w.data());
  EXPECT_EQ(read_as<std::string>(r), at_cap);

  ByteWriter over;
  EXPECT_THROW(core::codec::write_value(over, at_cap + "c"), ConfigError);
  EXPECT_EQ(over.size(), 0u);
}

TEST(SerializeHeader, BadMagicAndVersionThrow) {
  {
    const std::string bytes = "NOPE....";
    ByteReader r = reader_of(bytes);
    EXPECT_THROW((void)serialize::read_block_header(r), DecodeError);
  }
  {
    ByteWriter w;
    w.u32(serialize::kMagic);
    w.u16(serialize::kFormatVersion + 1);  // a future format
    w.u8(1);
    ByteReader r(w.data());
    EXPECT_THROW((void)serialize::read_block_header(r), DecodeError);
  }
  {
    ByteWriter w;
    w.u32(serialize::kMagic);
    w.u16(1);  // the retired v1 layout (no cursor shard count): rejected
    w.u8(1);
    ByteReader r(w.data());
    EXPECT_THROW((void)serialize::read_block_header(r), DecodeError);
  }
  {
    ByteWriter w;
    w.u32(serialize::kMagic);
    w.u16(3);  // the retired v3 layout (no withdrawn bit): rejected
    w.u8(2);
    ByteReader r(w.data());
    EXPECT_THROW((void)serialize::read_block_header(r), DecodeError);
  }
  {
    ByteWriter w;
    w.u32(serialize::kMagic);
    w.u16(serialize::kFormatVersion);
    w.u8(99);  // unknown block kind
    ByteReader r(w.data());
    EXPECT_THROW((void)serialize::read_block_header(r), DecodeError);
  }
}

// ---------------------------------------------------------------------------
// Full-driver fixtures.

/// Ingests `archives` (collector → archive bytes) inline through one
/// driver; returns the driver finalized via collect() when `reports` is
/// non-null, or serialized via save_state into `state` otherwise.
void run_archives(const std::vector<std::pair<std::string, std::string>>&
                      archives,
                  const CleaningOptions& cleaning, StandardReports* reports,
                  std::string* state) {
  IngestOptions options;
  options.chunk_records = 32;
  options.cleaning = &cleaning;

  AnalysisDriver driver;
  StandardPasses handles = StandardPasses::add(driver);
  driver.attach(options);
  StreamingIngestor engine(options);
  std::vector<std::unique_ptr<std::istringstream>> inputs;
  for (const auto& [collector, bytes] : archives) {
    inputs.push_back(std::make_unique<std::istringstream>(bytes));
    engine.add_stream(collector, *inputs.back());
  }
  IngestResult result = engine.finish();
  ASSERT_GT(result.stats.records, 0u);
  if (reports != nullptr) *reports = handles.collect(driver);
  if (state != nullptr) {
    std::ostringstream out;
    driver.save_state(out);
    *state = out.str();
  }
}

// ---------------------------------------------------------------------------
// Roundtrip: save_state → load_state preserves every report.

TEST(SerializeRoundtrip, AllPassesSurviveSaveAndLoad) {
  ArchiveGenerator gen(20260807);
  std::string archive = gen.generate(900);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  StandardReports expected;
  std::string state;
  run_archives({{"rrc00", archive}}, cleaning, &expected, &state);
  ASSERT_FALSE(state.empty());
  ASSERT_GT(expected.types.counts.total(), 0u);
  ASSERT_GT(expected.communities.unique_communities, 0u);
  ASSERT_FALSE(expected.sessions.empty());

  AnalysisDriver loaded;
  StandardPasses handles = StandardPasses::add(loaded);
  std::istringstream in(state);
  loaded.load_state(in);
  EXPECT_EQ(handles.collect(loaded), expected);
}

TEST(SerializeRoundtrip, SaveIsDeterministic) {
  ArchiveGenerator gen(20260807);
  std::string archive = gen.generate(400);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  std::string first;
  std::string second;
  run_archives({{"rrc00", archive}}, cleaning, nullptr, &first);
  run_archives({{"rrc00", archive}}, cleaning, nullptr, &second);
  // unordered containers are serialized sorted, so two identical runs
  // produce identical bytes — the property bgpcc-merge's byte-compare
  // tests (and any content-addressed artifact store) rely on.
  EXPECT_EQ(first, second);
}

TEST(SerializeRoundtrip, StateTagsAreReadable) {
  ArchiveGenerator gen(1);
  std::string archive = gen.generate(100);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;
  std::string state;
  run_archives({{"rrc00", archive}}, cleaning, nullptr, &state);

  std::istringstream in(state);
  std::vector<serialize::PassTag> tags = serialize::read_state_tags(in);
  ASSERT_EQ(tags.size(), 9u);
  EXPECT_EQ(tags.front(), serialize::PassTag::kClassifier);
  EXPECT_EQ(tags.back(), serialize::PassTag::kUsageClassification);
}

// ---------------------------------------------------------------------------
// Differential: per-collector partial runs merge to the monolithic run.

TEST(SerializeDifferential, PerCollectorPartialsEqualMonolithicRun) {
  // Distinct collectors → disjoint sessions, the precondition for
  // combining independently ingested partials.
  ArchiveGenerator gen_a(101);
  ArchiveGenerator gen_b(202);
  ArchiveGenerator gen_c(303);
  std::string archive_a = gen_a.generate(600);
  std::string archive_b = gen_b.generate(500);
  std::string archive_c = gen_c.generate(400);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  StandardReports monolithic;
  run_archives({{"rrc00", archive_a}, {"rrc01", archive_b},
                {"rrc03", archive_c}},
               cleaning, &monolithic, nullptr);
  ASSERT_GT(monolithic.types.counts.total(), 0u);
  ASSERT_FALSE(monolithic.tomography.empty());
  ASSERT_GT(monolithic.duplicates.nn, 0u);
  ASSERT_GT(monolithic.revealed.total_unique, 0u);
  ASSERT_FALSE(monolithic.usage.empty());

  std::string state_a;
  std::string state_b;
  std::string state_c;
  run_archives({{"rrc00", archive_a}}, cleaning, nullptr, &state_a);
  run_archives({{"rrc01", archive_b}}, cleaning, nullptr, &state_b);
  run_archives({{"rrc03", archive_c}}, cleaning, nullptr, &state_c);

  // Fan-in order must not matter (associativity + commutativity of the
  // evidence merges over disjoint sessions).
  for (const auto& order :
       std::vector<std::vector<const std::string*>>{
           {&state_a, &state_b, &state_c},
           {&state_c, &state_a, &state_b}}) {
    AnalysisDriver merged;
    StandardPasses handles = StandardPasses::add(merged);
    for (const std::string* state : order) {
      std::istringstream in(*state);
      merged.load_state(in);
    }
    EXPECT_EQ(handles.collect(merged), monolithic);
  }
}

// ---------------------------------------------------------------------------
// Robustness.

std::string small_state() {
  ArchiveGenerator gen(7);
  std::string archive = gen.generate(120);
  static Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;
  std::string state;
  run_archives({{"rrc00", archive}}, cleaning, nullptr, &state);
  return state;
}

TEST(SerializeRobustness, TruncationAtEveryPrefixThrows) {
  std::string state = small_state();
  ASSERT_GT(state.size(), 16u);
  // Every strict prefix must fail loudly. Step through short prefixes
  // byte by byte (header + tag list) and sample the long tail.
  for (std::size_t cut = 0; cut < state.size();
       cut += (cut < 64 ? 1 : 97)) {
    AnalysisDriver driver;
    (void)StandardPasses::add(driver);
    std::istringstream in(state.substr(0, cut));
    EXPECT_THROW(driver.load_state(in), DecodeError) << "cut=" << cut;
  }
}

TEST(SerializeRobustness, BitFlipInHeaderThrows) {
  std::string state = small_state();
  for (std::size_t byte : {0u, 1u, 4u, 5u}) {  // magic, version
    std::string corrupt = state;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
    AnalysisDriver driver;
    (void)StandardPasses::add(driver);
    std::istringstream in(corrupt);
    EXPECT_THROW(driver.load_state(in), DecodeError) << "byte=" << byte;
  }
}

TEST(SerializeRobustness, CrossDriverTagMismatchThrows) {
  std::string state = small_state();  // nine passes, tags 1..9

  {
    // Fewer passes than the file holds.
    AnalysisDriver driver;
    (void)driver.add(ClassifierPass{});
    std::istringstream in(state);
    EXPECT_THROW(driver.load_state(in), ConfigError);
  }
  {
    // Same count, different order → tag mismatch at slot 0.
    AnalysisDriver driver;
    (void)driver.add(UsageClassificationPass{});
    (void)driver.add(PerSessionTypesPass{});
    (void)driver.add(TomographyPass{});
    (void)driver.add(CommunityStatsPass{});
    (void)driver.add(DuplicateBurstPass{});
    (void)driver.add(AnomalyPass{});
    (void)driver.add(RevealedPass{});
    (void)driver.add(ExplorationPass{});
    (void)driver.add(ClassifierPass{});
    std::istringstream in(state);
    EXPECT_THROW(driver.load_state(in), ConfigError);
  }
}

TEST(SerializeRobustness, MismatchedHistogramBucketsThrow) {
  ArchiveGenerator gen(11);
  std::string archive = gen.generate(150);
  Registry registry = allocated_registry();
  CleaningOptions cleaning;
  cleaning.registry = &registry;

  IngestOptions options;
  options.cleaning = &cleaning;
  AnalysisDriver writer_driver;
  auto handle = writer_driver.add(CommunityStatsPass{/*histogram_buckets=*/8});
  writer_driver.attach(options);
  StreamingIngestor engine(options);
  std::istringstream in(archive);
  engine.add_stream("rrc00", in);
  (void)engine.finish();
  (void)handle;
  std::ostringstream out;
  writer_driver.save_state(out);

  AnalysisDriver reader_driver;
  (void)reader_driver.add(CommunityStatsPass{/*histogram_buckets=*/17});
  std::istringstream state_in(out.str());
  // Same wire tag, different configuration: merging the histograms would
  // index out of bounds, so load refuses.
  EXPECT_THROW(reader_driver.load_state(state_in), ConfigError);
}

TEST(SerializeRobustness, BareIngestCursorIsRejected) {
  core::IngestCheckpoint cursor;
  cursor.chunk_records = 4096;
  cursor.carry.resize(core::kIngestShards);
  ByteWriter w;
  serialize::write_ingest_checkpoint(w, cursor);

  AnalysisDriver driver;
  (void)StandardPasses::add(driver);
  std::istringstream in(str(w));
  EXPECT_THROW(driver.load_state(in), DecodeError);

  std::istringstream tags_in(str(w));
  EXPECT_THROW((void)serialize::read_state_tags(tags_in), DecodeError);
}

TEST(SerializeRobustness, IngestCheckpointRoundtrips) {
  core::IngestCheckpoint cursor;
  cursor.chunk_records = 1024;
  cursor.collectors = {"rrc00", "route-views2"};
  cursor.cursor.next_source = 2;
  cursor.cursor.input_open = true;
  cursor.cursor.current_file = 1;
  cursor.cursor.chunk_index = 42;
  cursor.carry.resize(core::kIngestShards);
  core::SessionKey session{"rrc00", Asn(65001), IpAddress::v4(10, 0, 0, 1)};
  cursor.carry[session.hash() % core::kIngestShards][session] = {1600000000,
                                                                 3};
  cursor.cleaning.dropped_unallocated_asn = 7;
  cursor.cleaning.late_records = 5;
  cursor.stats.raw_records = 99;

  ByteWriter w;
  serialize::write_ingest_checkpoint(w, cursor);
  ByteReader r(w.data());
  core::IngestCheckpoint back = serialize::read_ingest_checkpoint(r);

  EXPECT_EQ(back.chunk_records, cursor.chunk_records);
  EXPECT_EQ(back.collectors, cursor.collectors);
  EXPECT_EQ(back.cursor.next_source, cursor.cursor.next_source);
  EXPECT_EQ(back.cursor.input_open, cursor.cursor.input_open);
  EXPECT_EQ(back.cursor.current_file, cursor.cursor.current_file);
  EXPECT_EQ(back.cursor.chunk_index, cursor.cursor.chunk_index);
  ASSERT_EQ(back.carry.size(), cursor.carry.size());
  const auto& shard = back.carry[session.hash() % core::kIngestShards];
  ASSERT_EQ(shard.size(), 1u);
  EXPECT_EQ(shard.at(session), (std::pair<std::int64_t, int>{1600000000, 3}));
  EXPECT_EQ(back.cleaning.dropped_unallocated_asn, 7u);
  EXPECT_EQ(back.cleaning.late_records, 5u);
  EXPECT_EQ(back.stats.raw_records, 99u);
}

// The reader takes every source count the writer writes: one collector's
// 5-minute dumps pass 2^16 files in about 7.5 months.
TEST(SerializeRobustness, CursorWithManySourcesRoundtrips) {
  core::IngestCheckpoint cursor;
  cursor.chunk_records = 4096;
  for (std::uint32_t i = 0; i < (1u << 16) + 1; ++i) {
    cursor.collectors.push_back(std::to_string(i));
  }
  cursor.carry.resize(core::kIngestShards);
  ByteWriter w;
  serialize::write_ingest_checkpoint(w, cursor);
  ByteReader r(w.data());
  EXPECT_EQ(serialize::read_ingest_checkpoint(r).collectors,
            cursor.collectors);
  EXPECT_EQ(r.position(), w.size());
}

void write_nine_counts(ByteWriter& w, std::uint64_t nc) {
  for (int i = 0; i < 9; ++i) w.u64(i == 2 ? nc : 0);
}

// A map key the writer can never repeat: the reader refuses the file
// instead of silently keeping one of the two entries.
TEST(SerializeRobustness, RepeatedSessionKeyThrows) {
  const core::SessionKey session{"rrc00", Asn(65001),
                                 IpAddress::v4(10, 0, 0, 1)};
  ByteWriter payload;
  payload.u64(2);
  core::codec::write_session(payload, session);
  write_nine_counts(payload, 1);
  core::codec::write_session(payload, session);
  write_nine_counts(payload, 2);

  ByteWriter w;
  serialize::write_block_header(w, serialize::BlockKind::kPartialState);
  w.u16(1);
  w.u16(static_cast<std::uint16_t>(serialize::PassTag::kPerSessionTypes));
  w.u64(payload.size());
  w.bytes(payload.data());

  AnalysisDriver driver;
  (void)driver.add(PerSessionTypesPass{});
  std::istringstream in(str(w));
  EXPECT_THROW(driver.load_state(in), DecodeError);
}

// An AsPath holds no empty segment, so an encoded one is corruption (the
// decoded path would drop it and re-encode to other bytes).
TEST(SerializeRobustness, EmptyAsPathSegmentThrows) {
  ByteWriter w;
  w.u32(2);  // two segments
  w.u8(2);   // a sequence
  w.u32(0);  // of no ASNs
  w.u8(2);
  w.u32(1);
  w.u32(65001);
  ByteReader r(w.data());
  EXPECT_THROW((void)core::codec::read_aspath(r), DecodeError);
}

// Booleans are written as 0 or 1, so a withdrawn byte of 2 is corruption.
TEST(SerializeRobustness, NonBinaryWithdrawnByteThrows) {
  core::UpdateRecord record;
  record.session =
      core::SessionKey{"rrc00", Asn(65001), IpAddress::v4(10, 0, 0, 1)};
  record.prefix = Prefix::from_string("10.0.0.0/8");
  record.attrs.as_path = AsPath::sequence({Asn(65001)});
  core::Classifier table;
  (void)table.advance(record);
  ByteWriter w;
  serialize::write_stream_table(w, table.stream_states());
  std::string bytes = str(w);
  ASSERT_EQ(bytes.back(), '\x00');  // withdrawn: the entry's last byte
  bytes.back() = '\x02';
  ByteReader r = reader_of(bytes);
  EXPECT_THROW((void)serialize::read_stream_table(r), DecodeError);
}

TEST(SerializeRobustness, IngestCursorShardFieldIsValidated) {
  // The writer records the carry's size as the resolved shard count, and
  // the reader hands back a carry of that shape.
  core::IngestCheckpoint cursor;
  cursor.chunk_records = 1024;
  cursor.carry.resize(8);
  ByteWriter w;
  serialize::write_ingest_checkpoint(w, cursor);
  std::string bytes = str(w);
  {
    ByteReader r = reader_of(bytes);
    EXPECT_EQ(serialize::read_ingest_checkpoint(r).carry.size(), 8u);
  }

  // A shard count that disagrees with the carry is corruption, not a
  // judgement call: the reader must refuse. The carry's own count is the
  // big-endian u64 after the block header (7 bytes), chunk_records (8),
  // the collector count (4), next_source (8), input_open (1),
  // current_file (4), chunk_index (4) and the resolved count (8).
  constexpr std::size_t kCarryCount = 7 + 8 + 4 + 8 + 1 + 4 + 4 + 8;
  ASSERT_GT(bytes.size(), kCarryCount + 8);
  ASSERT_EQ(bytes[kCarryCount - 1], '\x08');  // resolved count, low byte
  ASSERT_EQ(bytes[kCarryCount + 7], '\x08');  // carry count, low byte
  bytes[kCarryCount + 7] = '\x04';
  ByteReader r = reader_of(bytes);
  EXPECT_THROW((void)serialize::read_ingest_checkpoint(r), DecodeError);
}

/// A pass that deliberately does NOT model SerializablePass.
struct OpaquePass {
  struct State {
    std::uint64_t seen = 0;
    void observe(const core::UpdateRecord&) { ++seen; }
    void merge(State&& other) { seen += other.seen; }
    [[nodiscard]] std::uint64_t report() const { return seen; }
  };
  [[nodiscard]] State make_state() const { return {}; }
};
static_assert(Pass<OpaquePass>);
static_assert(!SerializablePass<OpaquePass>);
static_assert(SerializablePass<ClassifierPass>);
static_assert(SerializablePass<UsageClassificationPass>);

TEST(SerializeRobustness, NonSerializablePassThrowsConfigError) {
  AnalysisDriver driver;
  (void)driver.add(OpaquePass{});
  std::ostringstream out;
  EXPECT_THROW(driver.save_state(out), ConfigError);

  AnalysisDriver checkpointer;
  (void)checkpointer.add(OpaquePass{});
  std::ostringstream cp;
  EXPECT_THROW(checkpointer.checkpoint(cp), ConfigError);
}

// ---------------------------------------------------------------------------
// Canonical bytes: a reader accepts only what its writer can produce.

/// 48 records over three sessions (one on IPv6) and three prefixes,
/// spread over the beacon announce phase, the withdraw phase and outside
/// both: nc/nn/pc churn, MED changes, withdrawals and exploration runs,
/// so every pass holds evidence in every member it serializes.
std::vector<core::UpdateRecord> canonical_fixture() {
  const core::SessionKey sessions[] = {
      {"rrc00", Asn(65001), IpAddress::v4(10, 0, 0, 1)},
      {"rrc00", Asn(65002), IpAddress::v4(10, 0, 0, 2)},
      {"rrc01", Asn(65003), IpAddress::from_string("2001:db8::1")}};
  const Prefix prefixes[] = {Prefix::from_string("10.0.0.0/8"),
                             Prefix::from_string("192.0.2.0/24"),
                             Prefix::from_string("2001:db8::/32")};
  const Timestamp midnight = Timestamp::from_unix_seconds(1584230400);
  std::vector<core::UpdateRecord> records;
  for (int i = 0; i < 48; ++i) {
    core::UpdateRecord record;
    record.session = sessions[i % 3];
    record.prefix = prefixes[(i / 3) % 3];
    record.time = i < 16   ? midnight + Duration::seconds(10 * i)
                  : i < 40 ? midnight + Duration::hours(2) +
                                 Duration::seconds(i)
                           : midnight + Duration::hours(3) +
                                 Duration::seconds(i);
    record.announcement = i % 7 != 6;
    record.attrs.as_path = AsPath::sequence(
        {record.session.peer_asn, Asn(i % 11 == 0 ? 65300 : 65100),
         Asn(65200)});
    if (i % 5 != 0) {
      record.attrs.communities.add(Community::of(
          static_cast<std::uint16_t>(65001 + i % 3),
          static_cast<std::uint16_t>(100 + (i / 4) % 3)));
    }
    if ((i / 2) % 2 == 0) record.attrs.communities.add(Community::of(65100, 7));
    if (i % 6 == 5) record.attrs.communities.add(Community::of(65535, 1));
    if (i % 4 == 0) record.attrs.med = static_cast<std::uint32_t>(i % 8);
    records.push_back(std::move(record));
  }
  return records;
}

/// Cuts `payload` at every byte and flips every byte (three masks).
/// Every cut must throw DecodeError. Every flip must throw DecodeError,
/// decode to a value that `roundtrip` re-encodes to exactly the flipped
/// bytes, or throw ConfigError from a configuration field that ends at
/// `config_end`: only a flip before that end can reach its check.
void expect_checked_or_canonical(
    const std::string& payload,
    const std::function<std::string(const std::string&)>& roundtrip,
    std::size_t config_end = 0) {
  ASSERT_EQ(roundtrip(payload), payload);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)roundtrip(payload.substr(0, cut)), DecodeError)
        << "cut=" << cut;
  }
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      std::string bytes = payload;
      bytes[i] = static_cast<char>(bytes[i] ^ mask);
      try {
        EXPECT_TRUE(roundtrip(bytes) == bytes)
            << "byte " << i << " mask " << mask << " decoded to other bytes";
      } catch (const DecodeError&) {
      } catch (const ConfigError&) {
        EXPECT_LT(i, config_end)
            << "byte " << i << " mask " << mask << " threw ConfigError";
      }
    }
  }
}

/// Decodes one payload with `read`, requiring every byte consumed (the
/// driver's state-blob rule), and re-encodes it with `write`.
std::string reencode(const std::string& bytes,
                     const std::function<void(ByteReader&)>& read,
                     const std::function<void(ByteWriter&)>& write) {
  ByteReader r = reader_of(bytes);
  read(r);
  if (!r.empty()) throw DecodeError("payload not consumed exactly");
  ByteWriter w;
  write(w);
  return str(w);
}

/// The ledger section of a stream table that classified `records`.
std::string ledger_section(const std::vector<core::UpdateRecord>& records) {
  core::Classifier table;
  for (const core::UpdateRecord& record : records) (void)table.advance(record);
  ByteWriter w;
  core::codec::write_value(w, table.ledger());
  return str(w);
}

/// The one state payload of `pass` after it observes `records`, and its
/// check: decode into a fresh state and re-encode.
template <class P>
void expect_pass_payload_canonical(P pass,
                                   const std::vector<core::UpdateRecord>&
                                       records) {
  AnalysisDriver driver;
  (void)driver.add(pass);
  for (const core::UpdateRecord& record : records) driver.observe(record);
  std::ostringstream file;
  driver.save_state(file);
  // Header (7), pass count (2), tag (2), the ledger section when the pass
  // rests on the stream table, blob length (8), payload.
  std::size_t offset = 19;
  using S = typename P::State;
  if constexpr (ObservesStreamEvents<S> || ReadsLedger<S>) {
    offset += ledger_section(records).size();
  }
  const std::string payload = file.str().substr(offset);
  if constexpr (std::is_same_v<P, ClassifierPass> ||
                std::is_same_v<P, PerSessionTypesPass>) {
    EXPECT_EQ(payload, "") << "tag " << P::kStateTag << ": the ledger holds "
                           << "its evidence";
    return;
  }
  ASSERT_GT(payload.size(), 8u) << "tag " << P::kStateTag;

  std::size_t config_end = 0;
  if constexpr (std::is_same_v<P, CommunityStatsPass>) {
    // The u64 histogram size follows the u64 value count and u32 values.
    std::uint64_t values = 0;
    for (int b = 0; b < 8; ++b) {
      values = (values << 8) | static_cast<unsigned char>(payload[b]);
    }
    config_end = 8 + 4 * values + 8;
  }
  SCOPED_TRACE("tag " + std::to_string(P::kStateTag));
  expect_checked_or_canonical(
      payload,
      [&pass](const std::string& bytes) {
        auto state = pass.make_state();
        return reencode(
            bytes, [&](ByteReader& r) { core::codec::read_value(r, state); },
            [&](ByteWriter& w) { core::codec::write_value(w, state); });
      },
      config_end);
}

TEST(SerializeCanonical, EveryPassPayloadByteIsCheckedOrCanonical) {
  const std::vector<core::UpdateRecord> records = canonical_fixture();
  expect_pass_payload_canonical(ClassifierPass{}, records);
  expect_pass_payload_canonical(PerSessionTypesPass{}, records);
  expect_pass_payload_canonical(TomographyPass{}, records);
  expect_pass_payload_canonical(CommunityStatsPass{}, records);
  // Four repeats of the first announcement: the first changes its
  // stream back, the other three are the nn burst tag 5 serializes.
  std::vector<core::UpdateRecord> bursty = records;
  bursty.insert(bursty.end(), 4, records.front());
  expect_pass_payload_canonical(DuplicateBurstPass{}, bursty);
  expect_pass_payload_canonical(AnomalyPass{}, records);
  expect_pass_payload_canonical(RevealedPass{}, records);
  expect_pass_payload_canonical(ExplorationPass{}, records);
  expect_pass_payload_canonical(UsageClassificationPass{}, records);
}

TEST(SerializeCanonical, StreamTableByteIsCheckedOrCanonical) {
  core::Classifier table;
  for (const core::UpdateRecord& record : canonical_fixture()) {
    (void)table.advance(record);
  }
  ByteWriter w;
  serialize::write_stream_table(w, table.stream_states());
  expect_checked_or_canonical(str(w), [](const std::string& bytes) {
    core::Classifier::StreamStates streams;
    return reencode(
        bytes,
        [&](ByteReader& r) { streams = serialize::read_stream_table(r); },
        [&](ByteWriter& w) { serialize::write_stream_table(w, streams); });
  });
}

TEST(SerializeCanonical, LedgerSectionByteIsCheckedOrCanonical) {
  expect_checked_or_canonical(
      ledger_section(canonical_fixture()), [](const std::string& bytes) {
        core::SessionLedger ledger;
        return reencode(
            bytes,
            [&](ByteReader& r) { core::codec::read_value(r, ledger); },
            [&](ByteWriter& w) { core::codec::write_value(w, ledger); });
      });
}

TEST(SerializeCanonical, CursorBlockByteIsCheckedOrCanonical) {
  core::IngestCheckpoint cursor;
  cursor.chunk_records = 1024;
  cursor.collectors = {"rrc00", "rrc01"};
  cursor.cursor = {1, true, 1, 3};
  cursor.carry.resize(4);
  for (const core::UpdateRecord& record : canonical_fixture()) {
    cursor.carry[record.session.hash() % 4][record.session] = {
        record.time.unix_micros() / 1000000, 2};
  }
  cursor.cleaning.dropped_unallocated_asn = 7;
  cursor.cleaning.late_records = 5;
  cursor.stats.raw_records = 99;
  cursor.stats.windows = 3;
  ByteWriter w;
  serialize::write_ingest_checkpoint(w, cursor);
  expect_checked_or_canonical(str(w), [](const std::string& bytes) {
    core::IngestCheckpoint back;
    return reencode(
        bytes,
        [&](ByteReader& r) { back = serialize::read_ingest_checkpoint(r); },
        [&](ByteWriter& w) { serialize::write_ingest_checkpoint(w, back); });
  });
}

// ---------------------------------------------------------------------------
// State files: the block is the whole file, each blob is its declared
// bytes, and a failed write is never a good checkpoint.

/// A driver with the standard passes over the canonical fixture.
void observe_fixture(AnalysisDriver& driver) {
  (void)StandardPasses::add(driver);
  for (const core::UpdateRecord& record : canonical_fixture()) {
    driver.observe(record);
  }
}

TEST(SerializeStateFile, TrailingByteIsRefused) {
  const std::string state = small_state();
  AnalysisDriver live;
  observe_fixture(live);
  std::ostringstream checkpoint;
  live.checkpoint(checkpoint);
  const std::string ckpt = checkpoint.str();

  for (const std::string* file : {&state, &ckpt}) {
    for (const std::string& bytes : {*file, *file + '\0'}) {
      AnalysisDriver driver;
      (void)StandardPasses::add(driver);
      std::istringstream in(bytes);
      if (bytes.size() == file->size()) {
        EXPECT_NO_THROW(driver.load_state(in));
      } else {
        EXPECT_THROW(driver.load_state(in), DecodeError);
      }
    }
  }
  AnalysisDriver restored;
  (void)StandardPasses::add(restored);
  std::istringstream in(ckpt + 'x');
  EXPECT_THROW(restored.restore(in), DecodeError);
}

/// `bytes` with the big-endian u64 at `at` moved by `delta`.
std::string shift_u64(std::string bytes, std::size_t at, int delta) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    value = (value << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  value += static_cast<std::uint64_t>(static_cast<std::int64_t>(delta));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>(value >> (8 * (7 - i)));
  }
  return bytes;
}

// A blob length one short makes its pass's decoder run out of bytes; one
// long leaves a byte unread (or, for the last blob, runs past the file).
// Either way the offending pass throws DecodeError: its decoder never
// reads into the next pass's bytes.
TEST(SerializeStateFile, BlobLengthOffByOneThrowsDecodeError) {
  const std::string state = small_state();
  ByteReader walk = reader_of(state);
  walk.skip(7 + 2 + 2 * 9);  // header, pass count, nine tags
  (void)read_as<core::SessionLedger>(walk);
  std::size_t blobs = 0;
  while (!walk.empty()) {
    const std::size_t at = walk.position();
    walk.skip(walk.u64());
    ++blobs;
    for (int delta : {-1, 1}) {
      AnalysisDriver driver;
      (void)StandardPasses::add(driver);
      std::istringstream in(shift_u64(state, at, delta));
      EXPECT_THROW(driver.load_state(in), DecodeError)
          << "blob " << blobs << " delta " << delta;
    }
  }
  EXPECT_EQ(blobs, 9u);
}

/// A stream buffer that takes `budget` bytes, then refuses every write.
class FailingBuffer : public std::streambuf {
 public:
  explicit FailingBuffer(std::size_t budget) : budget_(budget) {}

 protected:
  int_type overflow(int_type ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return traits_type::not_eof(ch);
  }

 private:
  std::size_t budget_;
};

// The stream fails in the header section, inside a shard slot, and on
// the last byte: every one is a DecodeError, never a short good file.
TEST(SerializeStateFile, FailingOutputStreamThrowsDecodeError) {
  AnalysisDriver driver;
  observe_fixture(driver);
  std::ostringstream whole;
  driver.checkpoint(whole);
  const std::size_t size = whole.str().size();
  for (std::size_t budget : {std::size_t{0}, std::size_t{8}, size / 2,
                             size - 1}) {
    FailingBuffer buffer(budget);
    std::ostream out(&buffer);
    EXPECT_THROW(driver.checkpoint(out), DecodeError) << "budget " << budget;
  }

  std::ostringstream saved;
  driver.save_state(saved);
  const std::size_t saved_size = saved.str().size();
  for (std::size_t budget : {std::size_t{0}, std::size_t{8}, saved_size / 2,
                             saved_size - 1}) {
    FailingBuffer buffer(budget);
    std::ostream out(&buffer);
    EXPECT_THROW(driver.save_state(out), DecodeError) << "budget " << budget;
  }
}

}  // namespace
}  // namespace bgpcc::analytics
