// Unit tests: update streams and the §4 cleaning pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

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

// A uniformly random prefix of `length` bits inside `block`.
Prefix random_within(const Prefix& block, int length, std::mt19937& rng) {
  std::array<std::uint8_t, 16> bytes{};
  std::ranges::copy(block.address().bytes(), bytes.begin());
  for (int i = block.length(); i < length; ++i) {
    if ((rng() & 1u) != 0) {
      bytes[static_cast<std::size_t>(i / 8)] |=
          static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
  }
  IpAddress addr = block.is_v4()
                       ? IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3])
                       : IpAddress::v6(bytes);
  return Prefix(addr, length);
}

// Differential: prefix_allocated against a linear scan over every
// (block, when) ever registered — "some block containing the prefix with
// when <= at". Lookups sit 1 us before, at and after each block's epoch,
// on the block itself, inside it and around it.
TEST(Registry, PrefixAllocatedMatchesLinearScan) {
  std::mt19937 rng(20201201u);
  const Timestamp base = Timestamp::from_unix_seconds(1600000000);
  auto random_when = [&] {
    return base + Duration::micros(static_cast<std::int64_t>(rng() % 1000000));
  };
  const std::array<Prefix, 2> roots{Prefix::from_string("0.0.0.0/0"),
                                    Prefix::from_string("::/0")};

  std::vector<std::pair<Prefix, Timestamp>> blocks;
  for (const Prefix& root : roots) {
    const int width = root.address().bit_width();
    // The extremes: a default block and two host-length blocks.
    blocks.emplace_back(root, random_when());
    blocks.emplace_back(random_within(root, width, rng), random_when());
    blocks.emplace_back(random_within(root, width, rng), Timestamp{});
    for (int i = 0; i < 100; ++i) {
      const int length = static_cast<int>(rng() % (width + 1));
      blocks.emplace_back(random_within(root, length, rng), random_when());
    }
    // Nested pairs whose epochs run either way: the outer block allocated
    // before the inner one, and after it.
    for (int i = 0; i < 20; ++i) {
      const int outer_length = static_cast<int>(rng() % width);
      Prefix outer = random_within(root, outer_length, rng);
      const int inner_length =
          outer_length + 1 + static_cast<int>(rng() % (width - outer_length));
      Prefix inner = random_within(outer, inner_length, rng);
      Timestamp early = random_when();
      Timestamp late =
          early + Duration::micros(1 + static_cast<std::int64_t>(rng() % 1000));
      const bool outer_first = i % 2 == 0;
      blocks.emplace_back(outer, outer_first ? early : late);
      blocks.emplace_back(inner, outer_first ? late : early);
    }
  }
  // A block registered twice keeps its earlier epoch; the scan sees both.
  blocks.emplace_back(blocks[5].first, blocks[5].second + Duration::seconds(1));

  Registry registry;
  for (const auto& [block, when] : blocks) {
    registry.allocate_prefix(block, when);
  }
  auto linear_scan = [&](const Prefix& prefix, Timestamp at) {
    return std::ranges::any_of(blocks, [&](const auto& entry) {
      return entry.first.contains(prefix) && entry.second <= at;
    });
  };

  std::size_t allocated = 0;
  std::size_t unallocated = 0;
  for (const auto& [block, when] : blocks) {
    const int width = block.address().bit_width();
    const Prefix& root = roots[block.is_v4() ? 0 : 1];
    const int inside_length =
        block.length() + static_cast<int>(rng() % (width - block.length() + 1));
    const std::array<Prefix, 4> lookups{
        block, random_within(block, inside_length, rng),
        Prefix(block.address(),
               static_cast<int>(rng() % (block.length() + 1))),
        random_within(root, static_cast<int>(rng() % (width + 1)), rng)};
    for (const Prefix& prefix : lookups) {
      for (std::int64_t offset : {-1, 0, 1}) {
        const Timestamp at = when + Duration::micros(offset);
        const bool expected = linear_scan(prefix, at);
        EXPECT_EQ(registry.prefix_allocated(prefix, at), expected)
            << prefix.to_string() << " at " << at.unix_micros();
        ++(expected ? allocated : unallocated);
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(allocated, 100u);
  EXPECT_GT(unallocated, 100u);
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
  EXPECT_EQ(cleaning::fix_second_granularity(first, &carry, &late), 0u);
  EXPECT_EQ(cleaning::fix_second_granularity(second, &carry, &late), 0u);
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
