// Unit tests: update streams and the §4 cleaning pipeline.
#include <gtest/gtest.h>

#include "core/cleaning.h"
#include "core/stream.h"

namespace bgpcc::core {
namespace {

UpdateMessage announce(const std::string& prefix, const std::string& path) {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string(prefix));
  PathAttributes attrs;
  attrs.as_path = AsPath::from_string(path);
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  update.attrs = std::move(attrs);
  return update;
}

TEST(UpdateStream, ExplodesMultiPrefixMessages) {
  UpdateStream stream;
  UpdateMessage update = announce("10.0.0.0/8", "100 200");
  update.announced.push_back(Prefix::from_string("11.0.0.0/8"));
  update.withdrawn.push_back(Prefix::from_string("12.0.0.0/8"));
  stream.add_message("rrc00", Asn(100), IpAddress::from_string("192.0.2.1"),
                     Timestamp::from_unix_seconds(1), update);
  EXPECT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream.announcement_count(), 2u);
  EXPECT_EQ(stream.withdrawal_count(), 1u);
  EXPECT_EQ(stream.sessions().size(), 1u);
}

TEST(UpdateStream, SortByTimeIsStable) {
  UpdateStream stream;
  stream.add_message("rrc00", Asn(1), IpAddress::from_string("192.0.2.1"),
                     Timestamp::from_unix_seconds(5),
                     announce("10.0.0.0/8", "1"));
  stream.add_message("rrc01", Asn(2), IpAddress::from_string("192.0.2.2"),
                     Timestamp::from_unix_seconds(3),
                     announce("10.0.0.0/8", "2"));
  stream.add_message("rrc02", Asn(3), IpAddress::from_string("192.0.2.3"),
                     Timestamp::from_unix_seconds(5),
                     announce("10.0.0.0/8", "3"));
  stream.sort_by_time();
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_EQ(stream.records()[0].session.collector, "rrc01");
  // Equal timestamps keep arrival order.
  EXPECT_EQ(stream.records()[1].session.collector, "rrc00");
  EXPECT_EQ(stream.records()[2].session.collector, "rrc02");
}

TEST(Registry, AsnAllocationEpochs) {
  Registry registry;
  registry.allocate_asn(Asn(100), Timestamp::from_unix_seconds(1000));
  EXPECT_FALSE(registry.asn_allocated(Asn(100),
                                      Timestamp::from_unix_seconds(999)));
  EXPECT_TRUE(registry.asn_allocated(Asn(100),
                                     Timestamp::from_unix_seconds(1000)));
  EXPECT_FALSE(registry.asn_allocated(Asn(200),
                                      Timestamp::from_unix_seconds(2000)));
}

TEST(Registry, PrefixCoveredByAllocatedBlock) {
  Registry registry;
  registry.allocate_prefix(Prefix::from_string("84.205.0.0/16"));
  EXPECT_TRUE(registry.prefix_allocated(
      Prefix::from_string("84.205.64.0/24"), Timestamp{}));
  EXPECT_TRUE(registry.prefix_allocated(Prefix::from_string("84.205.0.0/16"),
                                        Timestamp{}));
  EXPECT_FALSE(registry.prefix_allocated(Prefix::from_string("84.0.0.0/8"),
                                         Timestamp{}));
  EXPECT_FALSE(registry.prefix_allocated(
      Prefix::from_string("85.205.64.0/24"), Timestamp{}));
}

TEST(Cleaning, DropsUnallocatedResources) {
  Registry registry;
  registry.allocate_asn(Asn(100));
  registry.allocate_asn(Asn(200));
  registry.allocate_prefix(Prefix::from_string("10.0.0.0/8"));

  UpdateStream stream;
  auto t = Timestamp::from_unix_seconds(1);
  auto addr = IpAddress::from_string("192.0.2.1");
  // Clean record.
  stream.add_message("rrc00", Asn(100), addr, t,
                     announce("10.1.0.0/16", "100 200"));
  // Bogus ASN on the path.
  stream.add_message("rrc00", Asn(100), addr, t,
                     announce("10.2.0.0/16", "100 666"));
  // Unallocated prefix.
  stream.add_message("rrc00", Asn(100), addr, t,
                     announce("203.0.113.0/24", "100 200"));
  CleaningOptions options;
  options.registry = &registry;
  options.fix_second_granularity = false;
  CleaningReport report = clean(stream, options);
  EXPECT_EQ(report.dropped_unallocated_asn, 1u);
  EXPECT_EQ(report.dropped_unallocated_prefix, 1u);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream.records()[0].prefix, Prefix::from_string("10.1.0.0/16"));
}

TEST(Cleaning, WithdrawalPrefixAlsoChecked) {
  Registry registry;
  registry.allocate_prefix(Prefix::from_string("10.0.0.0/8"));
  UpdateStream stream;
  UpdateMessage withdraw;
  withdraw.withdrawn.push_back(Prefix::from_string("203.0.113.0/24"));
  withdraw.withdrawn.push_back(Prefix::from_string("10.3.0.0/16"));
  stream.add_message("rrc00", Asn(1), IpAddress::from_string("192.0.2.1"),
                     Timestamp::from_unix_seconds(1), withdraw);
  CleaningOptions options;
  options.registry = &registry;
  options.fix_second_granularity = false;
  clean(stream, options);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream.records()[0].prefix, Prefix::from_string("10.3.0.0/16"));
}

TEST(Cleaning, RouteServerPathRepair) {
  // §4: route servers that do not insert their own ASN get it added.
  UpdateStream stream;
  auto server_addr = IpAddress::from_string("192.0.2.9");
  stream.add_message("rrc00", Asn(6695), server_addr,
                     Timestamp::from_unix_seconds(1),
                     announce("10.0.0.0/8", "100 200"));
  // A path already starting with the server ASN is left alone.
  stream.add_message("rrc00", Asn(6695), server_addr,
                     Timestamp::from_unix_seconds(2),
                     announce("11.0.0.0/8", "6695 100 200"));
  CleaningOptions options;
  options.route_servers = {{server_addr, Asn(6695)}};
  options.fix_second_granularity = false;
  CleaningReport report = clean(stream, options);
  EXPECT_EQ(report.route_server_paths_repaired, 1u);
  EXPECT_EQ(stream.records()[0].attrs.as_path.to_string(), "6695 100 200");
  EXPECT_EQ(stream.records()[1].attrs.as_path.to_string(), "6695 100 200");
}

TEST(Cleaning, SecondGranularityRepairPreservesOrder) {
  UpdateStream stream;
  auto addr = IpAddress::from_string("192.0.2.1");
  // Three messages recorded in the same second, in arrival order.
  for (int i = 0; i < 3; ++i) {
    stream.add_message("rrc00", Asn(1), addr,
                       Timestamp::from_unix_seconds(100),
                       announce("10.0.0.0/8",
                                "100 " + std::to_string(200 + i)));
  }
  // And one with real sub-second precision: untouched.
  stream.add_message("rrc00", Asn(1), addr,
                     Timestamp::from_unix_micros(100 * 1000000 + 500),
                     announce("10.0.0.0/8", "100 999"));
  CleaningOptions options;
  CleaningReport report = clean(stream, options);
  EXPECT_EQ(report.timestamps_adjusted, 2u);
  const auto& records = stream.records();
  ASSERT_EQ(records.size(), 4u);
  // Spacing: +0, +10us, +20us (paper: "0.01ms after the last").
  EXPECT_EQ(records[0].time.unix_micros(), 100000000);
  EXPECT_EQ(records[1].time.unix_micros(), 100000010);
  EXPECT_EQ(records[2].time.unix_micros(), 100000020);
  // Order preserved: paths 200, 201, 202 in sequence.
  EXPECT_EQ(records[0].attrs.as_path.to_string(), "100 200");
  EXPECT_EQ(records[1].attrs.as_path.to_string(), "100 201");
  EXPECT_EQ(records[2].attrs.as_path.to_string(), "100 202");
  EXPECT_EQ(records[3].attrs.as_path.to_string(), "100 999");
}

TEST(Cleaning, SecondGranularityResetsAcrossSeconds) {
  UpdateStream stream;
  auto addr = IpAddress::from_string("192.0.2.1");
  stream.add_message("rrc00", Asn(1), addr, Timestamp::from_unix_seconds(100),
                     announce("10.0.0.0/8", "100 200"));
  stream.add_message("rrc00", Asn(1), addr, Timestamp::from_unix_seconds(101),
                     announce("10.0.0.0/8", "100 201"));
  CleaningOptions options;
  CleaningReport report = clean(stream, options);
  EXPECT_EQ(report.timestamps_adjusted, 0u);
}

// A session whose second goes backwards across a window cut (second 100
// in one window, 99 in the next) restarts its carry: the late record is
// counted, and neither record's timestamp moves.
TEST(Cleaning, LateRecordAcrossWindowCutIsCounted) {
  auto record_at = [](std::int64_t second, std::uint64_t seq) {
    SeqRecord sr;
    sr.seq = seq;
    sr.record.session =
        SessionKey{"rrc00", Asn(1), IpAddress::from_string("192.0.2.1")};
    sr.record.time = Timestamp::from_unix_seconds(second);
    return sr;
  };
  cleaning::SecondCarry carry;
  std::size_t late = 0;
  std::vector<SeqRecord> first{record_at(100, 0)};
  std::vector<SeqRecord> second{record_at(99, 1)};
  EXPECT_EQ(cleaning::fix_second_granularity(first, Duration::micros(10),
                                             &carry, &late),
            0u);
  EXPECT_EQ(cleaning::fix_second_granularity(second, Duration::micros(10),
                                             &carry, &late),
            0u);
  EXPECT_EQ(late, 1u);
  EXPECT_EQ(first[0].record.time, Timestamp::from_unix_seconds(100));
  EXPECT_EQ(second[0].record.time, Timestamp::from_unix_seconds(99));
}

TEST(SessionKey, ToStringAndOrdering) {
  SessionKey a{"rrc00", Asn(1), IpAddress::from_string("192.0.2.1")};
  SessionKey b{"rrc00", Asn(2), IpAddress::from_string("192.0.2.1")};
  EXPECT_LT(a, b);
  EXPECT_EQ(a.to_string(), "rrc00|AS1|192.0.2.1");
}

}  // namespace
}  // namespace bgpcc::core
