// Differential tests for the streaming windowed engine and the
// transparent gzip/bz2 input layer: the same seeded archive ingested
// with any window size (1 chunk, 1 file, unbounded), any thread count,
// spilled to disk or buffered in memory, compressed or raw, must produce
// byte-identical record streams, identical cleaning reports, and
// identical deterministic stats — the batch path is just the
// one-window special case of the same core.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/codec.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "netbase/error.h"
#include "sim/collector.h"
#include "test_dir.h"

namespace bgpcc::core {
namespace {

struct GenPeer {
  Asn asn;
  IpAddress ip;
  bool extended_time;
  bool as4;
};

/// Seeded archive generator (same shape as ingest_differential_test's):
/// per-record byte strings with bursty same-second ties, sub-second
/// stamps, a route-server session, and unallocated resources, so every
/// cleaning kernel is on the window-boundary path. The bursty clock only
/// moves forward, so each session's second-granularity timestamps are
/// non-decreasing in arrival order — the documented streaming-cleaning
/// invariant real collector dumps satisfy.
class ArchiveGenerator {
 public:
  explicit ArchiveGenerator(std::uint32_t seed) : rng_(seed) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      peers_.push_back(GenPeer{Asn(65001 + i), IpAddress::v4(0x0a000001u + i),
                               /*extended_time=*/i % 2 == 0,
                               /*as4=*/i % 3 != 0});
    }
    peers_.push_back(GenPeer{Asn(65010), IpAddress::from_string("10.0.0.9"),
                             /*extended_time=*/true, /*as4=*/true});
  }

  [[nodiscard]] std::vector<std::string> generate(int count) {
    std::vector<std::string> records;
    records.reserve(static_cast<std::size_t>(count));
    Timestamp now = Timestamp::from_unix_seconds(1600000000);
    for (int i = 0; i < count; ++i) {
      if (pick(10) < 4) now = now + Duration::seconds(pick(3) + 1);
      const GenPeer& peer = peers_[pick(peers_.size())];
      Timestamp when = now;
      if (peer.extended_time && pick(2) == 0) {
        when = when + Duration::micros(static_cast<std::int64_t>(pick(999)) *
                                       1000);
      }
      records.push_back(render(peer, when, i));
    }
    return records;
  }

 private:
  std::string render(const GenPeer& peer, Timestamp when, int index) {
    std::ostringstream out;
    mrt::Writer writer(out);
    UpdateMessage update;
    if (pick(4) == 0) {
      update.withdrawn.push_back(random_prefix());
    } else {
      std::size_t prefixes = 1 + pick(3);
      for (std::size_t p = 0; p < prefixes; ++p) {
        update.announced.push_back(random_prefix());
      }
      PathAttributes attrs;
      attrs.as_path = random_path();
      attrs.next_hop = IpAddress::from_string("192.0.2.1");
      if (pick(2) == 0) {
        attrs.communities.add(Community::of(
            65100, static_cast<std::uint16_t>(100 + index % 50)));
      }
      update.attrs = std::move(attrs);
    }
    CodecOptions codec;
    codec.four_byte_asn = peer.as4;
    mrt::Bgp4mpMessage message;
    message.peer_asn = peer.asn;
    message.local_asn = Asn(64512);
    message.peer_ip = peer.ip;
    message.local_ip = IpAddress::from_string("203.0.113.1");
    message.bgp_message = encode_update(update, codec);
    writer.write_message(when, message, peer.extended_time, peer.as4);
    return out.str();
  }

  Prefix random_prefix() {
    if (pick(8) == 0) {
      return Prefix(IpAddress::v4(0xc0a80000u + (pick(16) << 8)), 24);
    }
    return Prefix(IpAddress::v4(0x0a000000u + (pick(4096) << 12)), 20);
  }

  AsPath random_path() {
    std::vector<Asn> hops;
    hops.push_back(Asn(65001 + pick(5)));
    std::size_t extra = 1 + pick(3);
    for (std::size_t h = 0; h < extra; ++h) {
      hops.push_back(Asn(65100 + pick(3)));
    }
    if (pick(10) == 0) hops.push_back(Asn(65999));
    return AsPath::sequence(hops);
  }

  std::uint32_t pick(std::size_t bound) {
    return static_cast<std::uint32_t>(rng_() % bound);
  }

  std::mt19937 rng_;
  std::vector<GenPeer> peers_;
};

Registry allocated_registry() {
  Registry registry;
  for (std::uint32_t asn = 65001; asn <= 65010; ++asn) {
    registry.allocate_asn(Asn(asn));
  }
  for (std::uint32_t asn : {65100u, 65101u, 65102u}) {
    registry.allocate_asn(Asn(asn));
  }
  registry.allocate_prefix(Prefix::from_string("10.0.0.0/8"));
  return registry;
}

CleaningOptions cleaning_options(const Registry& registry) {
  CleaningOptions options;
  options.registry = &registry;
  options.route_servers.emplace(IpAddress::from_string("10.0.0.9"),
                                Asn(65010));
  return options;
}

std::vector<std::string> split_archives(const std::vector<std::string>& records,
                                        std::size_t k) {
  std::vector<std::string> parts(k);
  std::size_t n = records.size();
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t i = p * n / k; i < (p + 1) * n / k; ++i) {
      parts[p] += records[i];
    }
  }
  return parts;
}

void expect_identical(const IngestResult& x, const IngestResult& y) {
  ASSERT_EQ(x.stream.size(), y.stream.size());
  EXPECT_TRUE(x.stream.records() == y.stream.records());
  EXPECT_EQ(x.cleaning.dropped_unallocated_asn,
            y.cleaning.dropped_unallocated_asn);
  EXPECT_EQ(x.cleaning.dropped_unallocated_prefix,
            y.cleaning.dropped_unallocated_prefix);
  EXPECT_EQ(x.cleaning.route_server_paths_repaired,
            y.cleaning.route_server_paths_repaired);
  EXPECT_EQ(x.cleaning.timestamps_adjusted, y.cleaning.timestamps_adjusted);
  EXPECT_EQ(x.stats.raw_records, y.stats.raw_records);
  EXPECT_EQ(x.stats.update_messages, y.stats.update_messages);
  EXPECT_EQ(x.stats.records, y.stats.records);
  EXPECT_EQ(x.stats.chunks, y.stats.chunks);
}

void expect_same_stats(const IngestStats& x, const IngestStats& y) {
  EXPECT_EQ(x.files, y.files);
  EXPECT_EQ(x.chunks, y.chunks);
  EXPECT_EQ(x.raw_records, y.raw_records);
  EXPECT_EQ(x.update_messages, y.update_messages);
  EXPECT_EQ(x.records, y.records);
  EXPECT_EQ(x.shards, y.shards);
  EXPECT_EQ(x.threads, y.threads);
  EXPECT_EQ(x.windows, y.windows);
}

/// finish() alone over `parts`; also checks that the stats() accessor
/// reports the finished run, whichever path produced it.
IngestResult streaming_ingest(const std::vector<std::string>& parts,
                              const IngestOptions& options) {
  std::vector<std::istringstream> streams;
  streams.reserve(parts.size());
  for (const std::string& part : parts) streams.emplace_back(part);
  StreamingIngestor engine(options);
  for (std::istringstream& in : streams) engine.add_stream("C1", in);
  IngestResult result = engine.finish();
  expect_same_stats(engine.stats(), result.stats);
  return result;
}

std::size_t spill_files_in(const std::string& dir) {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".spill") ++count;
  }
  return count;
}

// The acceptance matrix: window ∈ {1 chunk, ~1 file, unbounded-windowed,
// batch} × threads ∈ {1, 4} × {in-memory, spill-to-disk}, all compared
// against the sequential batch reference — including cleaning reports,
// so window-boundary session-state carry-over is provably exact. Batch
// (window 0) is one window and ignores spill_dir: it never creates it.
TEST(IngestStreaming, WindowThreadSpillEquivalence) {
  for (std::uint32_t seed : {3u, 21u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ArchiveGenerator gen(seed);
    std::vector<std::string> records = gen.generate(400);
    Registry registry = allocated_registry();
    CleaningOptions cleaning = cleaning_options(registry);
    std::vector<std::string> parts = split_archives(records, 3);

    IngestOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.chunk_records = 16;
    reference_options.cleaning = &cleaning;
    IngestResult reference = streaming_ingest(parts, reference_options);
    ASSERT_GT(reference.stream.size(), 0u);
    EXPECT_EQ(reference.stats.windows, 1u);

    // 16 records ≈ one chunk per window; ~140 ≈ one file per window; a
    // huge budget runs the windowed machinery with a single window; 0 is
    // the batch run (the multi-file framers on a pool).
    for (std::size_t window : {std::size_t{16}, std::size_t{140},
                               std::size_t{1} << 40, std::size_t{0}}) {
      for (unsigned threads : {1u, 4u}) {
        for (bool spill : {false, true}) {
          SCOPED_TRACE("window=" + std::to_string(window) +
                       " threads=" + std::to_string(threads) +
                       " spill=" + std::to_string(spill));
          IngestOptions options = reference_options;
          options.num_threads = threads;
          options.window_records = window;
          test::TestDir spill_owner(
              "spill", "_" + std::to_string(seed) + "_" +
                           std::to_string(window) + "_" +
                           std::to_string(threads));
          std::string spill_dir;
          if (spill) {
            spill_dir = spill_owner.path();
            options.spill_dir = spill_dir;
          }
          IngestResult result = streaming_ingest(parts, options);
          expect_identical(reference, result);
          if (window == std::size_t{16}) {
            EXPECT_GT(result.stats.windows, 1u);
          }
          if (window == 0) {
            EXPECT_EQ(result.stats.windows, 1u);
            if (spill) {
              EXPECT_FALSE(std::filesystem::exists(spill_dir))
                  << "batch ingest must ignore spill_dir";
            }
          }
          if (spill) {
            EXPECT_EQ(spill_files_in(spill_dir), 0u)
                << "spill runs must be removed after the merge";
          }
        }
      }
    }
  }
}

// The pipelining worst case: window_records=1 puts every chunk in its
// own window, so the prefetch framer is re-armed on every poll and the
// processed window / prefetched window hand-off happens hundreds of
// times. Differential equality vs the sequential batch reference at one
// thread (no pool) and four (pipelined); with chunk_records=1 this is
// also the TSan stress target for the pool-based window machinery (many
// tiny decode tasks racing the shard-clean/merge stages of the previous
// window).
TEST(IngestStreaming, TinyWindowsPipeliningMatrix) {
  ArchiveGenerator gen(47);
  std::vector<std::string> records = gen.generate(300);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);
  std::vector<std::string> parts = split_archives(records, 2);

  IngestOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.chunk_records = 1;
  reference_options.cleaning = &cleaning;
  IngestResult reference = streaming_ingest(parts, reference_options);
  ASSERT_GT(reference.stream.size(), 0u);

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options = reference_options;
    options.num_threads = threads;
    options.window_records = 1;
    IngestResult result = streaming_ingest(parts, options);
    expect_identical(reference, result);
    EXPECT_GT(result.stats.windows, 100u);
  }
}

// poll() is incremental: each call processes exactly one window, stats()
// advance monotonically, and finish() after a poll loop (or a partial
// one) produces the same stream as batch.
TEST(IngestStreaming, PollDrivesWindowsIncrementally) {
  ArchiveGenerator gen(13);
  std::vector<std::string> records = gen.generate(200);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);
  std::vector<std::string> parts = split_archives(records, 2);

  IngestOptions batch_options;
  batch_options.num_threads = 1;
  batch_options.chunk_records = 16;
  batch_options.cleaning = &cleaning;
  IngestResult reference = streaming_ingest(parts, batch_options);

  IngestOptions options = batch_options;
  options.window_records = 64;
  std::vector<std::istringstream> streams;
  for (const std::string& part : parts) streams.emplace_back(part);
  StreamingIngestor engine(options);
  for (std::istringstream& in : streams) engine.add_stream("C1", in);

  std::size_t polls = 0;
  std::size_t last_raw = 0;
  while (engine.poll()) {
    ++polls;
    EXPECT_EQ(engine.stats().windows, polls);
    EXPECT_GT(engine.stats().raw_records, last_raw);
    last_raw = engine.stats().raw_records;
  }
  EXPECT_GT(polls, 1u);
  EXPECT_EQ(last_raw, reference.stats.raw_records);

  IngestResult result = engine.finish();
  expect_identical(reference, result);
  EXPECT_EQ(result.stats.windows, polls);
}

// The callback-sink variant emits the records in exactly the final
// stream order, without materializing them.
TEST(IngestStreaming, SinkEmitsFinalOrder) {
  ArchiveGenerator gen(29);
  std::vector<std::string> records = gen.generate(150);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);
  std::vector<std::string> parts = split_archives(records, 2);

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 8;
  options.cleaning = &cleaning;
  IngestResult reference = streaming_ingest(parts, options);

  options.window_records = 32;
  std::vector<std::istringstream> streams;
  for (const std::string& part : parts) streams.emplace_back(part);
  StreamingIngestor engine(options);
  for (std::istringstream& in : streams) engine.add_stream("C1", in);
  std::vector<UpdateRecord> emitted;
  IngestResult result = engine.finish(
      [&](UpdateRecord&& record) { emitted.push_back(std::move(record)); });
  EXPECT_EQ(result.stream.size(), 0u);
  EXPECT_TRUE(emitted == reference.stream.records());
  EXPECT_EQ(result.stats.records, reference.stats.records);
}

// A same-second burst of one session sliced across window boundaries:
// the carry-over state must space the burst exactly as one batch pass
// (window_records=1 puts every record in its own window — the worst
// case).
TEST(IngestStreaming, SecondGranularityCarryAcrossWindows) {
  sim::RouteCollector collector("rrc00", Asn(64512),
                                IpAddress::from_string("203.0.113.1"));
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int i = 0; i < 40; ++i) {
    UpdateMessage update;
    update.announced.push_back(
        Prefix(IpAddress::v4(0x0a000000u +
                             (static_cast<std::uint32_t>(i % 8) << 12)),
               20));
    PathAttributes attrs;
    attrs.as_path = AsPath::sequence({65001, 65100});
    attrs.next_hop = IpAddress::from_string("192.0.2.1");
    update.attrs = std::move(attrs);
    // 10-record same-second bursts on one session.
    collector.record(base + Duration::seconds(i / 10), 0, Asn(65001),
                     IpAddress::v4(0x0a000001u), update);
  }
  std::ostringstream archive;
  collector.write_mrt(archive, /*extended_time=*/false);

  CleaningOptions cleaning;  // timestamp repair only
  IngestOptions batch_options;
  batch_options.num_threads = 1;
  batch_options.chunk_records = 1;
  batch_options.cleaning = &cleaning;
  IngestResult reference =
      streaming_ingest({archive.str()}, batch_options);
  ASSERT_GT(reference.cleaning.timestamps_adjusted, 0u);

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options = batch_options;
    options.num_threads = threads;
    options.window_records = 1;
    IngestResult result = streaming_ingest({archive.str()}, options);
    expect_identical(reference, result);
    EXPECT_EQ(result.stats.windows, 40u);
  }
}

// gzip and bzip2 archives — in-memory streams and files, including a
// multi-member gzip produced by concatenating two compressed halves —
// ingest to the same records as their uncompressed originals.
TEST(IngestStreaming, CompressedInputMatchesUncompressed) {
  if (!mrt::gzip_supported() || !mrt::bzip2_supported()) {
    GTEST_SKIP() << "built without zlib/libbz2";
  }
  ArchiveGenerator gen(17);
  std::vector<std::string> records = gen.generate(250);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);
  std::string archive = split_archives(records, 1)[0];

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 16;
  options.cleaning = &cleaning;
  IngestResult reference = streaming_ingest({archive}, options);
  ASSERT_GT(reference.stream.size(), 0u);

  std::string gz = mrt::gzip_compress(archive);
  std::string bz2 = mrt::bzip2_compress(archive);
  ASSERT_EQ(mrt::detect_compression(
                reinterpret_cast<const std::uint8_t*>(gz.data()), gz.size()),
            mrt::Compression::kGzip);
  ASSERT_EQ(mrt::detect_compression(
                reinterpret_cast<const std::uint8_t*>(bz2.data()), bz2.size()),
            mrt::Compression::kBzip2);

  // Multi-member gzip: two members whose decompressed concatenation is
  // the archive (the `cat a.gz b.gz` / pigz shape).
  std::string multi_member =
      mrt::gzip_compress(archive.substr(0, archive.size() / 2)) +
      mrt::gzip_compress(archive.substr(archive.size() / 2));

  for (const std::string* compressed : {&gz, &bz2, &multi_member}) {
    expect_identical(reference, streaming_ingest({*compressed}, options));
  }

  // Through the filesystem front-end, with mixed compression per source.
  test::TestDir fixture_dir("streaming");
  std::filesystem::create_directories(fixture_dir.path());
  const std::string& dir = fixture_dir.path();
  std::string gz_path = dir + "/bgpcc_streaming_in.gz";
  std::string bz2_path = dir + "/bgpcc_streaming_in.bz2";
  std::string raw_path = dir + "/bgpcc_streaming_in.mrt";
  std::vector<std::pair<std::string, std::string>> fixtures{
      {gz_path, gz}, {bz2_path, bz2}, {raw_path, archive}};
  for (const auto& [path, payload] : fixtures) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.write(payload.data(),
                          static_cast<std::streamsize>(payload.size())));
  }
  for (const std::string& path : {gz_path, bz2_path, raw_path}) {
    SCOPED_TRACE(path);
    IngestResult result = ingest_mrt_file("C1", path, options);
    expect_identical(reference, result);
  }

  // Mixed sources in one run: a raw part followed by compressed parts
  // must interleave exactly like three raw parts.
  std::vector<std::string> parts = split_archives(records, 3);
  IngestResult raw_parts = streaming_ingest(parts, options);
  IngestResult mixed = streaming_ingest(
      {parts[0], mrt::gzip_compress(parts[1]), mrt::bzip2_compress(parts[2])},
      options);
  expect_identical(raw_parts, mixed);
}

// The full production shape end to end: a collector's log rotated into
// compressed archives on disk, ingested windowed + spilled + parallel,
// equals the uncompressed single-archive batch ingest.
TEST(IngestStreaming, CompressedRotatedArchivesWindowedSpilled) {
  if (!mrt::gzip_supported() || !mrt::bzip2_supported()) {
    GTEST_SKIP() << "built without zlib/libbz2";
  }
  sim::RouteCollector collector("rrc00", Asn(64512),
                                IpAddress::from_string("203.0.113.1"));
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int i = 0; i < 180; ++i) {
    std::uint32_t session = static_cast<std::uint32_t>(i % 4);
    UpdateMessage update;
    update.announced.push_back(
        Prefix(IpAddress::v4(0x0a000000u +
                             (static_cast<std::uint32_t>(i) << 12)),
               20));
    PathAttributes attrs;
    attrs.as_path = AsPath::sequence({65001 + session, 65100});
    attrs.next_hop = IpAddress::from_string("192.0.2.1");
    update.attrs = std::move(attrs);
    collector.record(base + Duration::millis(i * 3), session,
                     Asn(65001 + session), IpAddress::v4(0x0a000001u + session),
                     update);
  }

  test::TestDir fixture_dir("streaming");
  std::filesystem::create_directories(fixture_dir.path());
  const std::string& dir = fixture_dir.path();
  std::string single = dir + "/bgpcc_streaming_single.mrt";
  collector.write_mrt(single, /*extended_time=*/false);

  CleaningOptions cleaning;  // timestamp repair only
  IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 16;
  options.cleaning = &cleaning;
  IngestResult reference = ingest_mrt_file("rrc00", single, options);

  for (mrt::Compression compression :
       {mrt::Compression::kGzip, mrt::Compression::kBzip2}) {
    SCOPED_TRACE(mrt::to_string(compression));
    std::vector<std::string> paths = collector.write_mrt_rotated(
        dir + "/bgpcc_streaming_rot_" + mrt::to_string(compression), 4,
        /*extended_time=*/false, compression);
    ASSERT_EQ(paths.size(), 4u);
    EXPECT_NE(paths[0].find(mrt::compression_suffix(compression)),
              std::string::npos);

    IngestOptions windowed = options;
    windowed.window_records = 32;
    test::TestDir spill_dir("spill", "_" + mrt::to_string(compression));
    windowed.spill_dir = spill_dir.path();
    StreamingIngestor engine(windowed);
    for (const std::string& path : paths) engine.add_file("rrc00", path);
    IngestResult result = engine.finish();
    expect_identical(reference, result);
    EXPECT_GT(result.stats.windows, 1u);
    EXPECT_EQ(spill_files_in(windowed.spill_dir), 0u);
  }
}

// Dual-stack updates leave exploded records whose next_hop family
// disagrees with the prefix family (the MP_REACH next hop overwrites
// the classic one for every record of the message). The spill codec
// must round-trip that verbatim — neither rejecting the record nor
// v4-mapping the address — so spilled and in-memory runs stay
// byte-identical.
TEST(IngestStreaming, DualStackNextHopSurvivesSpill) {
  std::ostringstream archive;
  mrt::Writer writer(archive);
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int i = 0; i < 24; ++i) {
    UpdateMessage update;
    update.announced.push_back(
        Prefix(IpAddress::v4(0x0a000000u +
                             (static_cast<std::uint32_t>(i) << 12)),
               20));
    update.announced.push_back(Prefix::from_string(
        "2001:db8:" + std::to_string(i) + "::/48"));
    PathAttributes attrs;
    attrs.as_path = AsPath::sequence({65001, 65100});
    attrs.next_hop = IpAddress::from_string("192.0.2.1");
    update.attrs = std::move(attrs);

    mrt::Bgp4mpMessage message;
    message.peer_asn = Asn(65001);
    message.local_asn = Asn(64512);
    message.peer_ip = IpAddress::v4(0x0a000001u);
    message.local_ip = IpAddress::from_string("203.0.113.1");
    message.bgp_message = encode_update(update);
    writer.write_message(base + Duration::seconds(i), message);
  }

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 4;
  IngestResult reference = streaming_ingest({archive.str()}, options);
  ASSERT_EQ(reference.stream.size(), 48u);
  // The fixture actually produces the family mismatch under test.
  bool mixed_family = false;
  for (const UpdateRecord& record : reference.stream.records()) {
    mixed_family = mixed_family ||
                   (record.prefix.family() != record.attrs.next_hop.family());
  }
  ASSERT_TRUE(mixed_family) << "fixture no longer exercises the dual-stack "
                               "next-hop family mismatch";

  IngestOptions spilled = options;
  spilled.window_records = 8;
  test::TestDir spill_dir("spill");
  spilled.spill_dir = spill_dir.path();
  IngestResult result = streaming_ingest({archive.str()}, spilled);
  expect_identical(reference, result);
}

// Every attribute the MRT decode can produce survives a spilled run:
// MED, LOCAL_PREF, atomic aggregate, aggregator, large communities, an
// unknown optional transitive attribute and an AS_SET segment, next to
// withdrawals.
TEST(IngestStreaming, EveryAttributeSurvivesSpill) {
  std::ostringstream archive;
  mrt::Writer writer(archive);
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int i = 0; i < 24; ++i) {
    const auto network = 0x0a000000u + (static_cast<std::uint32_t>(i) << 12);
    Prefix prefix(IpAddress::v4(network), 20);
    UpdateMessage update;
    if (i % 3 == 2) {
      update.withdrawn.push_back(prefix);
    } else {
      update.announced.push_back(prefix);
      PathAttributes attrs;
      attrs.origin = Origin::kEgp;
      attrs.as_path = AsPath::from_string("65001 65100 {65200 4200000001}");
      attrs.next_hop = IpAddress::from_string("192.0.2.1");
      attrs.med = static_cast<std::uint32_t>(i);
      attrs.local_pref = 100;
      attrs.atomic_aggregate = true;
      attrs.aggregator = Aggregator{Asn(65100), IpAddress::v4(192, 0, 2, 9)};
      attrs.communities.add(Community(0xfde80000u + i));
      attrs.large_communities.add(LargeCommunity{64500, 1, network});
      attrs.add_unknown(RawAttribute{0xc0, 99, {1, 2, 3}});
      update.attrs = std::move(attrs);
    }
    mrt::Bgp4mpMessage message;
    message.peer_asn = Asn(65001);
    message.local_asn = Asn(64512);
    message.peer_ip = IpAddress::v4(0x0a000001u);
    message.local_ip = IpAddress::from_string("203.0.113.1");
    message.bgp_message = encode_update(update);
    writer.write_message(base + Duration::seconds(i), message);
  }

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 4;
  IngestResult reference = streaming_ingest({archive.str()}, options);
  ASSERT_EQ(reference.stream.size(), 24u);
  const PathAttributes& first = reference.stream.records().front().attrs;
  ASSERT_TRUE(first.aggregator && first.med && first.local_pref);
  ASSERT_EQ(first.unknown.size(), 1u);
  ASSERT_FALSE(first.large_communities.empty());

  IngestOptions spilled = options;
  spilled.window_records = 8;
  test::TestDir spill_dir("spill");
  spilled.spill_dir = spill_dir.path();
  IngestResult result = streaming_ingest({archive.str()}, spilled);
  expect_identical(reference, result);
}

// Misuse guards: finish() twice and poll() after finish() are loud
// ConfigErrors, not silent empties.
TEST(IngestStreaming, LifecycleMisuseThrows) {
  StreamingIngestor engine{IngestOptions{}};
  (void)engine.finish();
  EXPECT_THROW((void)engine.finish(), ConfigError);
  EXPECT_THROW((void)engine.poll(), ConfigError);
}

// A 1250-hop legacy AS path fits the 4096-byte cap at 2 bytes/ASN but
// not at 4: the spill codec must fall back to the (lossless) legacy
// encoding instead of aborting spill-enabled runs that the in-memory
// path handles.
TEST(IngestStreaming, OversizeLegacyPathSurvivesSpill) {
  std::vector<AsPathSegment> segments;
  for (int s = 0; s < 5; ++s) {
    AsPathSegment segment;
    for (int i = 0; i < 250; ++i) {
      segment.asns.push_back(
          Asn(64512u + static_cast<std::uint32_t>((s * 250 + i) % 1000)));
    }
    segments.push_back(std::move(segment));
  }
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("10.1.0.0/16"));
  PathAttributes attrs;
  attrs.as_path = AsPath::from_segments(std::move(segments));
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  update.attrs = std::move(attrs);

  // The fixture must actually force the fallback: the 4-byte re-encode
  // exceeds the BGP cap, the legacy one fits.
  ASSERT_THROW((void)encode_update(update), DecodeError);

  CodecOptions legacy;
  legacy.four_byte_asn = false;
  std::ostringstream archive;
  mrt::Writer writer(archive);
  for (int i = 0; i < 6; ++i) {
    mrt::Bgp4mpMessage message;
    message.peer_asn = Asn(65001);
    message.local_asn = Asn(64512);
    message.peer_ip = IpAddress::v4(0x0a000001u);
    message.local_ip = IpAddress::from_string("203.0.113.1");
    message.bgp_message = encode_update(update, legacy);
    writer.write_message(
        Timestamp::from_unix_seconds(1600000000 + i), message,
        /*extended_time=*/true, /*as4=*/false);
  }

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 1;
  IngestResult reference = streaming_ingest({archive.str()}, options);
  ASSERT_EQ(reference.stream.size(), 6u);

  IngestOptions spilled = options;
  spilled.window_records = 2;
  test::TestDir spill_dir("spill");
  spilled.spill_dir = spill_dir.path();
  IngestResult result = streaming_ingest({archive.str()}, spilled);
  expect_identical(reference, result);
}

// A failure while a window's run is being spilled must not leak the
// partially written run file into spill_dir: add_run removes it before
// rethrowing, and the store's destructor removes every completed run.
// The injected failure is a collector name past the shared string cap
// (codec::kMaxStringBytes) — the first record's encode throws
// ConfigError after the run file has already been created. Every
// decoded record copies the 1 MiB name, so the archive stays small.
TEST(IngestStreaming, SpillFailureLeavesDirClean) {
  ArchiveGenerator gen(53);
  std::vector<std::string> records = gen.generate(12);
  std::string archive;
  for (const std::string& record : records) archive += record;

  test::TestDir owner("spill");
  const std::string& spill_dir = owner.path();
  std::filesystem::create_directories(spill_dir);
  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 4;
  options.window_records = 8;
  options.spill_dir = spill_dir;

  std::string oversize_collector(codec::kMaxStringBytes + 1, 'c');
  std::istringstream in(archive);
  {
    StreamingIngestor engine(options);
    engine.add_stream(oversize_collector, in);
    EXPECT_THROW((void)engine.finish(), ConfigError);
    EXPECT_EQ(spill_files_in(spill_dir), 0u)
        << "a partial spill run leaked after a mid-write failure";
    // The failed run poisons the ingestor like any other window failure.
    EXPECT_THROW((void)engine.poll(), ConfigError);
  }
  EXPECT_EQ(spill_files_in(spill_dir), 0u)
      << "engine destruction must not resurrect spill files";
}

// Regression for the error path of the shard fan-out: when one shard's
// observer throws, the remaining queued shard jobs must be skipped, not
// executed. The old per-window spawn/join code ran every remaining job
// to completion after the first failure; the pool's failed-group
// short-circuit stops after at most one in-flight job per thread.
TEST(IngestStreaming, ThrowingObserverShortCircuitsShardJobs) {
  ArchiveGenerator gen(59);
  std::vector<std::string> records = gen.generate(200);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);
  std::string archive;
  for (const std::string& record : records) archive += record;

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 16;
  options.cleaning = &cleaning;

  // Count the non-empty shards a healthy run observes. Four collector
  // names × six peers gives 24 distinct session keys, so the fixture
  // populates most of the 16 shards — "ran every job" and
  // "short-circuited" are unambiguously distinguishable.
  const std::vector<std::string> collectors{"C1", "C2", "C3", "C4"};
  std::atomic<std::size_t> healthy_calls{0};
  {
    IngestOptions counting = options;
    counting.shard_observer = [&healthy_calls](std::size_t,
                                               const std::vector<SeqRecord>&) {
      healthy_calls.fetch_add(1);
    };
    std::vector<std::istringstream> streams;
    streams.reserve(collectors.size());
    for (std::size_t i = 0; i < collectors.size(); ++i) {
      streams.emplace_back(archive);
    }
    StreamingIngestor engine(counting);
    for (std::size_t i = 0; i < collectors.size(); ++i) {
      engine.add_stream(collectors[i], streams[i]);
    }
    (void)engine.finish();
  }
  ASSERT_GT(healthy_calls.load(), 4u);

  // Every observer call throws, so each participating thread stops after
  // its first claimed non-empty shard: with num_threads=2 at most two
  // calls happen before the group fails and the rest are skipped.
  std::atomic<std::size_t> throwing_calls{0};
  IngestOptions throwing = options;
  throwing.shard_observer = [&throwing_calls](std::size_t,
                                              const std::vector<SeqRecord>&) {
    throwing_calls.fetch_add(1);
    throw std::runtime_error("observer rejects the shard");
  };
  std::vector<std::istringstream> streams;
  streams.reserve(collectors.size());
  for (std::size_t i = 0; i < collectors.size(); ++i) {
    streams.emplace_back(archive);
  }
  StreamingIngestor engine(throwing);
  for (std::size_t i = 0; i < collectors.size(); ++i) {
    engine.add_stream(collectors[i], streams[i]);
  }
  EXPECT_THROW((void)engine.finish(), std::runtime_error);
  EXPECT_LE(throwing_calls.load(), 2u)
      << "shard jobs kept running after the group had already failed";
}

// A throwing poll() consumes the aborted window's records, so the
// ingestor must poison itself: finish() after the failure raises
// ConfigError instead of returning a silently incomplete stream.
TEST(IngestStreaming, FailedPollPoisonsIngestor) {
  ArchiveGenerator gen(31);
  std::vector<std::string> records = gen.generate(60);
  std::string archive;
  for (const std::string& record : records) archive += record;
  archive += "\xde\xad\xbe\xef";  // truncated garbage tail

  IngestOptions options;
  options.num_threads = 2;
  options.chunk_records = 4;
  options.window_records = 8;
  std::istringstream in(archive);
  StreamingIngestor engine(options);
  engine.add_stream("C1", in);
  bool threw = false;
  try {
    while (engine.poll()) {
    }
  } catch (const DecodeError&) {
    threw = true;
  }
  ASSERT_TRUE(threw);
  EXPECT_THROW((void)engine.finish(), ConfigError);
  EXPECT_THROW((void)engine.poll(), ConfigError);
}

}  // namespace
}  // namespace bgpcc::core
