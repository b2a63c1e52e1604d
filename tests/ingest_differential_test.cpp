// Differential property tests for the pipelined multi-archive ingestion
// engine: a seeded generator synthesizes randomized archives (mixed
// BGP4MP/BGP4MP_ET, AS4/non-AS4, state changes, sub-second ties,
// unallocated resources, route-server sessions) and asserts that the
// SAME logical record sequence ingested with 1 thread, N threads, any
// chunk size, any queue depth, or split across K archive files produces
// byte-identical streams, cleaning reports, and stats. This is the hard
// invariant of core/ingest: the output is a function of the input alone,
// never of the execution schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "mrt/mrt.h"
#include "sim/collector.h"
#include "test_dir.h"

namespace bgpcc::core {
namespace {

struct GenPeer {
  Asn asn;
  IpAddress ip;
  bool extended_time;  // microsecond vs second-granularity collector
  bool as4;            // AS4 vs legacy two-octet BGP4MP encoding
};

/// Generates one logical record sequence as per-record byte strings, so a
/// test can concatenate them into any file split without re-framing.
class ArchiveGenerator {
 public:
  explicit ArchiveGenerator(std::uint32_t seed) : rng_(seed) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      peers_.push_back(GenPeer{Asn(65001 + i), IpAddress::v4(0x0a000001u + i),
                               /*extended_time=*/i % 2 == 0,
                               /*as4=*/i % 3 != 0});
    }
    // A route-server session whose path is missing the server's own ASN.
    peers_.push_back(GenPeer{Asn(65010), IpAddress::from_string("10.0.0.9"),
                             /*extended_time=*/true, /*as4=*/true});
  }

  [[nodiscard]] std::vector<std::string> generate(int count) {
    std::vector<std::string> records;
    records.reserve(static_cast<std::size_t>(count));
    Timestamp now = Timestamp::from_unix_seconds(1600000000);
    for (int i = 0; i < count; ++i) {
      // Bursty clock: ~60% of records share the previous second, creating
      // the same-second ties the §4 sub-second repair must order
      // deterministically across every execution schedule.
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
    if (pick(12) == 0) {
      mrt::Bgp4mpStateChange change;
      change.peer_asn = peer.asn;
      change.local_asn = Asn(64512);
      change.peer_ip = peer.ip;
      change.local_ip = IpAddress::from_string("203.0.113.1");
      change.old_state = mrt::FsmState::kEstablished;
      change.new_state = mrt::FsmState::kIdle;
      writer.write_state_change(when, change, peer.extended_time);
      return out.str();
    }
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
    // Mostly inside the allocated 10/8 block; ~1 in 8 outside it so the
    // unallocated-prefix filter is on the differential path.
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
    // ~1 in 10 paths carries an unallocated ASN the registry filter drops.
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
  options.route_servers.emplace_back(IpAddress::from_string("10.0.0.9"),
                                     Asn(65010));
  return options;
}

/// Splits per-record byte strings into K contiguous archive blobs whose
/// concatenation is the original sequence.
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

IngestResult ingest_split(const std::string& collector,
                          const std::vector<std::string>& parts,
                          const IngestOptions& options) {
  std::vector<std::istringstream> streams;
  streams.reserve(parts.size());
  for (const std::string& part : parts) streams.emplace_back(part);
  std::vector<MrtSource> sources;
  sources.reserve(parts.size());
  for (std::istringstream& in : streams) {
    sources.push_back(MrtSource{collector, &in});
  }
  return ingest_mrt_sources(sources, options);
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
}

// The acceptance matrix: K ∈ {1,2,5} × threads ∈ {1,4} × chunk_records ∈
// {1,4096} over randomized archives, each combination compared against
// the sequential single-archive reference — including the cleaning
// report, so cross-file session state is provably cleaned once.
TEST(IngestDifferential, SplitThreadChunkEquivalence) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ArchiveGenerator gen(seed);
    std::vector<std::string> records = gen.generate(400);
    Registry registry = allocated_registry();
    CleaningOptions cleaning = cleaning_options(registry);

    IngestOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.chunk_records = 4096;
    reference_options.cleaning = &cleaning;
    IngestResult reference =
        ingest_split("C1", split_archives(records, 1), reference_options);
    ASSERT_GT(reference.stream.size(), 0u);

    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      std::vector<std::string> parts = split_archives(records, k);
      for (unsigned threads : {1u, 4u}) {
        for (std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
          SCOPED_TRACE("k=" + std::to_string(k) +
                       " threads=" + std::to_string(threads) +
                       " chunk=" + std::to_string(chunk));
          IngestOptions options;
          options.num_threads = threads;
          options.chunk_records = chunk;
          options.cleaning = &cleaning;
          IngestResult result = ingest_split("C1", parts, options);
          expect_identical(reference, result);
          EXPECT_EQ(result.stats.files, k);
        }
      }
    }
  }
}

// Queue depth is an execution knob, not a semantic one: any bounded-queue
// capacity (including a pathological depth of 1) must leave the output
// untouched.
TEST(IngestDifferential, QueueDepthInvariance) {
  ArchiveGenerator gen(11);
  std::vector<std::string> records = gen.generate(300);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);

  IngestOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.cleaning = &cleaning;
  IngestResult reference =
      ingest_split("C1", split_archives(records, 3), reference_options);

  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    IngestOptions options;
    options.num_threads = 4;  // three concurrent framers, one per archive
    options.chunk_records = 8;
    options.queue_chunks = depth;
    options.cleaning = &cleaning;
    expect_identical(reference,
                     ingest_split("C1", split_archives(records, 3), options));
  }
}

// Multi-collector runs: per-source sequence bases must interleave the
// collectors exactly as the source order dictates, at every thread count
// and split.
TEST(IngestDifferential, MultiCollectorEquivalence) {
  ArchiveGenerator gen_a(5);
  ArchiveGenerator gen_b(9);
  std::vector<std::string> records_a = gen_a.generate(200);
  std::vector<std::string> records_b = gen_b.generate(200);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);

  auto ingest_both = [&](std::size_t k, const IngestOptions& options) {
    std::vector<std::string> parts_a = split_archives(records_a, k);
    std::vector<std::string> parts_b = split_archives(records_b, k);
    std::vector<std::istringstream> streams;
    streams.reserve(2 * k);
    std::vector<MrtSource> sources;
    for (const std::string& part : parts_a) {
      streams.emplace_back(part);
      sources.push_back(MrtSource{"rrc00", &streams.back()});
    }
    for (const std::string& part : parts_b) {
      streams.emplace_back(part);
      sources.push_back(MrtSource{"route-views2", &streams.back()});
    }
    return ingest_mrt_sources(sources, options);
  };

  IngestOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.cleaning = &cleaning;
  IngestResult reference = ingest_both(1, reference_options);
  ASSERT_GT(reference.stream.size(), 0u);
  // Both collectors must be represented in the merged stream.
  bool saw_a = false;
  bool saw_b = false;
  for (const UpdateRecord& record : reference.stream.records()) {
    saw_a = saw_a || record.session.collector == "rrc00";
    saw_b = saw_b || record.session.collector == "route-views2";
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  for (std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " threads=" + std::to_string(threads));
      IngestOptions options;
      options.num_threads = threads;
      options.chunk_records = 16;
      options.cleaning = &cleaning;
      expect_identical(reference, ingest_both(k, options));
    }
  }
}

// End-to-end through the filesystem front-end: a simulated collector's
// log rotated across K files (sim::RouteCollector::write_mrt_rotated)
// must ingest byte-identically to its single-archive dump.
TEST(IngestDifferential, RotatedFilesMatchSingleArchive) {
  sim::RouteCollector collector("rrc00", Asn(64512),
                                IpAddress::from_string("203.0.113.1"));
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int i = 0; i < 150; ++i) {
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

  test::TestDir fixture_dir("diff");
  std::filesystem::create_directories(fixture_dir.path());
  const std::string& dir = fixture_dir.path();
  std::string single = dir + "/bgpcc_diff_single.mrt";
  collector.write_mrt(single, /*extended_time=*/false);

  IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 16;
  CleaningOptions cleaning;  // timestamp repair only
  options.cleaning = &cleaning;
  IngestResult reference = ingest_mrt_file("rrc00", single, options);

  for (std::size_t k : {std::size_t{2}, std::size_t{5}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::vector<std::string> paths = collector.write_mrt_rotated(
        dir + "/bgpcc_diff_rot" + std::to_string(k), k,
        /*extended_time=*/false);
    ASSERT_EQ(paths.size(), k);
    IngestResult result = ingest_mrt_files("rrc00", paths, options);
    expect_identical(reference, result);
    EXPECT_EQ(result.stats.files, k);
  }
}

}  // namespace
}  // namespace bgpcc::core
