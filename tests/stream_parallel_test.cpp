// Tests for the chunked, parallel, sharded ingestion engine: the central
// guarantee is that 1-thread and N-thread ingestion of the same input —
// at any chunk size — produce byte-identical ordered UpdateStreams,
// cleaning reports, and stats, including the §4 sub-second reordering
// edge cases on second-granularity collectors.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "core/stream.h"
#include "log_reference.h"
#include "mrt/mrt.h"
#include "netbase/error.h"
#include "sim/collector.h"
#include "synth/beacon_internet.h"
#include "synth/ingest.h"
#include "synth/labtopo.h"

namespace bgpcc::core {
namespace {

struct Peer {
  Asn asn;
  IpAddress ip;
};

UpdateMessage announce(std::initializer_list<const char*> prefixes,
                       std::initializer_list<std::uint32_t> path) {
  UpdateMessage update;
  for (const char* p : prefixes) {
    update.announced.push_back(Prefix::from_string(p));
  }
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence(path);
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  update.attrs = std::move(attrs);
  return update;
}

UpdateMessage withdraw(std::initializer_list<const char*> prefixes) {
  UpdateMessage update;
  for (const char* p : prefixes) {
    update.withdrawn.push_back(Prefix::from_string(p));
  }
  return update;
}

void write_update(mrt::Writer& writer, Timestamp when, const Peer& peer,
                  const UpdateMessage& update, bool extended_time) {
  mrt::Bgp4mpMessage message;
  message.peer_asn = peer.asn;
  message.local_asn = Asn(64512);
  message.peer_ip = peer.ip;
  message.local_ip = IpAddress::from_string("203.0.113.1");
  message.bgp_message = encode_update(update);
  writer.write_message(when, message, extended_time);
}

// A synthetic archive exercising every engine stage: several sessions,
// multi-prefix explosion, withdrawals, second-granularity bursts that the
// cleaning step must reorder, real-microsecond stamps it must leave alone,
// non-message records it must skip, and resources the registry filter
// must drop.
std::string synthetic_archive(int bursts) {
  Peer a{Asn(65001), IpAddress::from_string("10.0.0.1")};
  Peer b{Asn(65002), IpAddress::from_string("10.0.0.2")};
  Peer rs{Asn(65010), IpAddress::from_string("10.0.0.9")};  // route server
  Timestamp base = Timestamp::from_unix_seconds(1600000000);

  std::ostringstream out;
  mrt::Writer writer(out);
  for (int i = 0; i < bursts; ++i) {
    Timestamp t = base + Duration::seconds(i);
    // Same-second burst on two interleaved sessions (second granularity).
    write_update(writer, t, a,
                 announce({"10.1.0.0/16", "10.2.0.0/16"}, {65001, 65100}),
                 /*extended_time=*/false);
    write_update(writer, t, b, announce({"10.3.0.0/16"}, {65002, 65100}),
                 /*extended_time=*/false);
    write_update(writer, t, a, withdraw({"10.1.0.0/16"}),
                 /*extended_time=*/false);
    write_update(writer, t, b, announce({"10.4.0.0/16"}, {65002, 65200}),
                 /*extended_time=*/false);
    // Route-server session missing its own ASN on the path.
    write_update(writer, t, rs, announce({"10.5.0.0/16"}, {65300, 65100}),
                 /*extended_time=*/true);
    // Real-microsecond stamp: must not be rewritten by the repair.
    write_update(writer, t + Duration::micros(500000), a,
                 announce({"10.6.0.0/16"}, {65001, 65200}),
                 /*extended_time=*/true);
    // Unallocated origin ASN and unallocated prefix: filtered by §4.
    write_update(writer, t, b, announce({"10.7.0.0/16"}, {65002, 65999}),
                 /*extended_time=*/false);
    write_update(writer, t, a, announce({"192.168.0.0/24"}, {65001, 65100}),
                 /*extended_time=*/false);
    // A state change the message filter must skip.
    mrt::Bgp4mpStateChange change;
    change.peer_asn = a.asn;
    change.local_asn = Asn(64512);
    change.peer_ip = a.ip;
    change.local_ip = IpAddress::from_string("203.0.113.1");
    change.old_state = mrt::FsmState::kEstablished;
    change.new_state = mrt::FsmState::kIdle;
    writer.write_state_change(t, change);
  }
  return out.str();
}

Registry allocated_registry() {
  Registry registry;
  for (std::uint32_t asn : {65001u, 65002u, 65010u, 65100u, 65200u, 65300u}) {
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

IngestResult ingest(const std::string& archive, const IngestOptions& options) {
  std::istringstream in(archive);
  return ingest_mrt_stream("C1", in, options);
}

// The engine-independent reference: a plain sequential decode in arrival
// order (mrt::Reader + UpdateStream::add_message), no ingestion engine.
UpdateStream decode_sequentially(const std::string& archive) {
  std::istringstream in(archive);
  mrt::Reader reader(in);
  UpdateStream stream;
  while (std::optional<mrt::Record> record = reader.next()) {
    if (!record->is_bgp4mp() ||
        (record->subtype !=
             static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessage) &&
         record->subtype !=
             static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessageAs4))) {
      continue;
    }
    bool four_byte = true;
    mrt::Bgp4mpMessage message =
        mrt::Reader::parse_message(*record, &four_byte);
    if (peek_type(message.bgp_message) != MessageType::kUpdate) continue;
    CodecOptions codec;
    codec.four_byte_asn = four_byte;
    stream.add_message("C1", message.peer_asn, message.peer_ip,
                       record->timestamp,
                       decode_update(message.bgp_message, codec));
  }
  return stream;
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

TEST(ParallelIngest, SingleVsMultiThreadIdentical) {
  std::string archive = synthetic_archive(40);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);

  IngestOptions single;
  single.num_threads = 1;
  single.chunk_records = 16;
  single.cleaning = &cleaning;
  IngestResult reference = ingest(archive, single);
  EXPECT_GT(reference.stream.size(), 0u);

  for (unsigned threads : {2u, 4u, 8u, 0u}) {
    IngestOptions parallel = single;
    parallel.num_threads = threads;
    expect_identical(reference, ingest(archive, parallel));
  }
}

TEST(ParallelIngest, ChunkSizeInvariance) {
  std::string archive = synthetic_archive(20);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);

  IngestOptions reference_options;
  reference_options.num_threads = 4;
  reference_options.chunk_records = 4096;
  reference_options.cleaning = &cleaning;
  IngestResult reference = ingest(archive, reference_options);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    IngestOptions options = reference_options;
    options.chunk_records = chunk;
    expect_identical(reference, ingest(archive, options));
  }
}

TEST(ParallelIngest, ShardCountInvariance) {
  // The shard count is a parallelism knob, not a semantic one: any
  // explicit count — and the auto-resolved default — must produce the
  // byte-identical stream, because sessions stay whole per shard and the
  // merge orders globally. This is what lets checkpoints written on a
  // 64-core host resume on a 4-core one.
  std::string archive = synthetic_archive(25);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);

  IngestOptions reference_options;
  reference_options.num_threads = 4;
  reference_options.chunk_records = 8;
  reference_options.cleaning = &cleaning;
  IngestResult reference = ingest(archive, reference_options);
  EXPECT_EQ(reference.stats.shards, kIngestShards);

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                             std::size_t{64}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    IngestOptions options = reference_options;
    options.shards = shards;
    IngestResult result = ingest(archive, options);
    expect_identical(reference, result);
    EXPECT_EQ(result.stats.shards, shards);
  }

  IngestOptions oversize = reference_options;
  oversize.shards = kMaxIngestShards + 1;
  EXPECT_THROW((void)ingest(archive, oversize), ConfigError);
}

TEST(ParallelIngest, ShardCountResolvesAboveThreadCount) {
  IngestOptions options;
  options.num_threads = 1;
  EXPECT_EQ(resolve_shard_count(options), kIngestShards);
  options.num_threads = 16;
  EXPECT_EQ(resolve_shard_count(options), kIngestShards);
  options.num_threads = 17;
  EXPECT_EQ(resolve_shard_count(options), 32u);
  options.num_threads = 64;
  EXPECT_EQ(resolve_shard_count(options), 64u);
  options.num_threads = 5000;  // capped, not unbounded doubling
  EXPECT_EQ(resolve_shard_count(options), kMaxIngestShards);
  options.shards = 7;  // explicit values win verbatim
  EXPECT_EQ(resolve_shard_count(options), 7u);
}

TEST(ParallelIngest, MatchesLegacySequentialPipeline) {
  std::string archive = synthetic_archive(25);
  Registry registry = allocated_registry();
  CleaningOptions cleaning = cleaning_options(registry);

  // Legacy path: sequential arrival-order decode, then in-place clean().
  UpdateStream legacy = decode_sequentially(archive);
  CleaningReport legacy_report = clean(legacy, cleaning);

  IngestOptions engine;
  engine.num_threads = 8;
  engine.chunk_records = 8;
  engine.cleaning = &cleaning;
  IngestResult result = ingest(archive, engine);

  EXPECT_TRUE(legacy.records() == result.stream.records());
  EXPECT_EQ(legacy_report.dropped_unallocated_asn,
            result.cleaning.dropped_unallocated_asn);
  EXPECT_EQ(legacy_report.dropped_unallocated_prefix,
            result.cleaning.dropped_unallocated_prefix);
  EXPECT_EQ(legacy_report.route_server_paths_repaired,
            result.cleaning.route_server_paths_repaired);
  EXPECT_EQ(legacy_report.timestamps_adjusted,
            result.cleaning.timestamps_adjusted);
}

TEST(ParallelIngest, SubSecondReorderEdgeCases) {
  // Two sessions bursting within the same second: the repair must space
  // each session independently and the merge must interleave them by
  // (adjusted time, arrival order) — identically at every thread count.
  Peer a{Asn(65001), IpAddress::from_string("10.0.0.1")};
  Peer b{Asn(65002), IpAddress::from_string("10.0.0.2")};
  Timestamp t = Timestamp::from_unix_seconds(1600000000);

  std::ostringstream out;
  mrt::Writer writer(out);
  write_update(writer, t, a, announce({"10.1.0.0/16"}, {65001}), false);
  write_update(writer, t, b, announce({"10.2.0.0/16"}, {65002}), false);
  write_update(writer, t, a, announce({"10.3.0.0/16"}, {65001}), false);
  write_update(writer, t, b, announce({"10.4.0.0/16"}, {65002}), false);
  write_update(writer, t, a, announce({"10.5.0.0/16"}, {65001}), false);
  std::string archive = out.str();

  CleaningOptions cleaning;  // no registry: only the timestamp repair

  for (unsigned threads : {1u, 4u}) {
    IngestOptions options;
    options.num_threads = threads;
    options.chunk_records = 2;
    options.cleaning = &cleaning;
    IngestResult result = ingest(archive, options);

    ASSERT_EQ(result.stream.size(), 5u);
    EXPECT_EQ(result.cleaning.timestamps_adjusted, 3u);
    const std::vector<UpdateRecord>& records = result.stream.records();
    // Per-session spacing: A at +0, +10us, +20us; B at +0, +10us.
    EXPECT_EQ(records[0].time, t);
    EXPECT_EQ(records[0].session.peer_asn, Asn(65001));
    EXPECT_EQ(records[1].time, t);
    EXPECT_EQ(records[1].session.peer_asn, Asn(65002));
    EXPECT_EQ(records[2].time, t + Duration::micros(10));
    EXPECT_EQ(records[2].session.peer_asn, Asn(65001));
    EXPECT_EQ(records[3].time, t + Duration::micros(10));
    EXPECT_EQ(records[3].session.peer_asn, Asn(65002));
    EXPECT_EQ(records[4].time, t + Duration::micros(20));
    EXPECT_EQ(records[4].session.peer_asn, Asn(65001));
  }
}

// Simulated logs, written as MRT bytes and ingested by the engine
// (synth::ingest), reach the passes record for record as the reference
// explodes them, with one raw record and one UPDATE per recorded message,
// at 1 and 4 threads.
void expect_logs_match_reference(
    const std::vector<const sim::RouteCollector*>& collectors,
    std::size_t chunk_records) {
  UpdateStream reference = test::explode_logs(collectors);
  std::size_t messages = 0;
  for (const sim::RouteCollector* collector : collectors) {
    messages += collector->message_count();
  }
  ASSERT_GT(messages, 0u);
  auto expect_equal = [&](const IngestResult& result) {
    ASSERT_EQ(result.stream.size(), reference.size());
    EXPECT_TRUE(result.stream.records() == reference.records());
    EXPECT_EQ(result.stats.raw_records, messages);
    EXPECT_EQ(result.stats.update_messages, messages);
    EXPECT_EQ(result.stats.files, collectors.size());
  };
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    IngestOptions options;
    options.num_threads = threads;
    options.chunk_records = chunk_records;
    expect_equal(synth::ingest(collectors, options));
  }
}

TEST(ParallelIngest, CollectorIngestMatchesLegacy) {
  sim::RouteCollector collector("rrc00", Asn(64512),
                                IpAddress::from_string("203.0.113.1"));
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int i = 0; i < 200; ++i) {
    std::uint32_t session = static_cast<std::uint32_t>(i % 5);
    Asn peer = Asn(65001u + session);
    IpAddress ip = IpAddress::v4(0x0a000001u + session);
    collector.record(base + Duration::millis(i), session, peer, ip,
                     i % 7 == 0 ? withdraw({"10.1.0.0/16"})
                                : announce({"10.1.0.0/16", "10.2.0.0/16"},
                                           {65001u + session, 65100}));
  }
  expect_logs_match_reference({&collector}, 16);
}

// The collector C1 of every lab experiment (§3), per routing software.
TEST(ParallelIngest, LabCollectorsMatchLegacy) {
  for (synth::LabScenario scenario :
       {synth::LabScenario::kExp1NoCommunities,
        synth::LabScenario::kExp2GeoTagging,
        synth::LabScenario::kExp3EgressCleaning,
        synth::LabScenario::kExp4IngressCleaning}) {
    for (const VendorProfile& vendor :
         {VendorProfile::cisco_ios(), VendorProfile::junos(),
          VendorProfile::bird()}) {
      SCOPED_TRACE(std::string(synth::label(scenario)) + "/" + vendor.name);
      synth::LabConfig config;
      config.scenario = scenario;
      config.vendor = vendor;
      config.restore_link = true;
      synth::LabExperiment experiment(config);
      (void)experiment.run();
      expect_logs_match_reference({&experiment.network().collector("C1")},
                                  4);
    }
  }
}

// The beacon days the figure drivers and examples simulate.
struct BeaconDayShape {
  const char* name;
  int peers_per_collector;
  int collector_count;
  int beacon_count;
};

void PrintTo(const BeaconDayShape& shape, std::ostream* os) {
  *os << shape.name;
}

class BeaconLogIngest : public ::testing::TestWithParam<BeaconDayShape> {};

TEST_P(BeaconLogIngest, MatchesLegacy) {
  const BeaconDayShape& shape = GetParam();
  synth::BeaconOptions options;
  options.transit_ingresses = 6;
  options.peers_per_collector = shape.peers_per_collector;
  options.collector_count = shape.collector_count;
  options.beacon_count = shape.beacon_count;
  synth::BeaconInternet internet(options);
  internet.run_day();
  expect_logs_match_reference(internet.collectors(), 1024);
}

INSTANTIATE_TEST_SUITE_P(
    Days, BeaconLogIngest,
    ::testing::Values(BeaconDayShape{"fig3_sessions", 18, 1, 3},
                      BeaconDayShape{"fig4_community_exploration", 15, 1, 3},
                      BeaconDayShape{"table2_types", 15, 3, 5},
                      BeaconDayShape{"beacon_study", 12, 2, 3},
                      BeaconDayShape{"community_audit", 15, 2, 4}),
    [](const ::testing::TestParamInfo<BeaconDayShape>& info) {
      return std::string(info.param.name);
    });

TEST(ParallelIngest, StatsAreDeterministic) {
  std::string archive = synthetic_archive(10);
  IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 8;
  IngestResult result = ingest(archive, options);
  // Per burst: 8 update messages + 1 state change = 9 raw records.
  EXPECT_EQ(result.stats.raw_records, 90u);
  EXPECT_EQ(result.stats.update_messages, 80u);
  // Explosion: the first update announces two prefixes, so 9 records.
  EXPECT_EQ(result.stats.records, 90u);
  EXPECT_EQ(result.stats.records, result.stream.size());
  EXPECT_EQ(result.stats.chunks, 12u);
  EXPECT_EQ(result.stats.threads, 4u);
}

TEST(ParallelIngest, CorruptMessageThrowsAcrossWorkers) {
  // A structurally valid MRT record whose inner BGP message is garbage:
  // the failure happens on a decode worker and must surface to the caller.
  Peer a{Asn(65001), IpAddress::from_string("10.0.0.1")};
  std::ostringstream out;
  mrt::Writer writer(out);
  for (int i = 0; i < 32; ++i) {
    write_update(writer, Timestamp::from_unix_seconds(1600000000 + i), a,
                 announce({"10.1.0.0/16"}, {65001}), true);
  }
  mrt::Bgp4mpMessage bad;
  bad.peer_asn = a.asn;
  bad.local_asn = Asn(64512);
  bad.peer_ip = a.ip;
  bad.local_ip = IpAddress::from_string("203.0.113.1");
  bad.bgp_message = std::vector<std::uint8_t>(19, 0x00);  // invalid marker
  writer.write_message(Timestamp::from_unix_seconds(1600000100), bad);

  IngestOptions options;
  options.num_threads = 4;
  options.chunk_records = 4;
  std::istringstream in(out.str());
  EXPECT_THROW(ingest_mrt_stream("C1", in, options), DecodeError);
}

TEST(SessionKeyHash, StableAndSpreading) {
  SessionKey a{"C1", Asn(65001), IpAddress::from_string("10.0.0.1")};
  SessionKey b{"C1", Asn(65001), IpAddress::from_string("10.0.0.2")};
  SessionKey c{"C2", Asn(65001), IpAddress::from_string("10.0.0.1")};
  SessionKey a_copy = a;
  EXPECT_EQ(a.hash(), a_copy.hash());
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(SessionKeyHash{}(a), a.hash());
}

}  // namespace
}  // namespace bgpcc::core
