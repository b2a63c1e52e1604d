// Unit + property tests: prefix trie.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "rib/trie.h"

namespace bgpcc {
namespace {

TEST(Trie, InsertFindErase) {
  PrefixTrie<int> trie;
  Prefix p = Prefix::from_string("10.0.0.0/8");
  EXPECT_TRUE(trie.insert(p, 1));
  EXPECT_FALSE(trie.insert(p, 2));  // overwrite, not new
  ASSERT_NE(trie.find(p), nullptr);
  EXPECT_EQ(*trie.find(p), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_TRUE(trie.erase(p));
  EXPECT_FALSE(trie.erase(p));
  EXPECT_EQ(trie.find(p), nullptr);
  EXPECT_TRUE(trie.empty());
}

TEST(Trie, ExactMatchOnly) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.0.0.0/8"), 8);
  EXPECT_EQ(trie.find(Prefix::from_string("10.0.0.0/16")), nullptr);
  EXPECT_EQ(trie.find(Prefix::from_string("10.0.0.0/7")), nullptr);
}

TEST(Trie, DefaultRouteAtRoot) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("0.0.0.0/0"), 42);
  ASSERT_NE(trie.find(Prefix::from_string("0.0.0.0/0")), nullptr);
  auto hit = trie.lookup(IpAddress::from_string("8.8.8.8"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 42);
}

TEST(Trie, LongestPrefixMatch) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.0.0.0/8"), 8);
  trie.insert(Prefix::from_string("10.1.0.0/16"), 16);
  trie.insert(Prefix::from_string("10.1.2.0/24"), 24);

  auto hit = trie.lookup(IpAddress::from_string("10.1.2.3"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 24);

  hit = trie.lookup(IpAddress::from_string("10.1.9.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 16);

  hit = trie.lookup(IpAddress::from_string("10.9.9.9"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 8);

  EXPECT_FALSE(trie.lookup(IpAddress::from_string("11.0.0.1")).has_value());
}

TEST(Trie, LookupReturnsMatchedPrefix) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.1.0.0/16"), 1);
  auto hit = trie.lookup(IpAddress::from_string("10.1.2.3"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, Prefix::from_string("10.1.0.0/16"));
}

TEST(Trie, FamiliesDoNotMix) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.0.0.0/8"), 4);
  trie.insert(Prefix::from_string("2001:db8::/32"), 6);
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_FALSE(trie.lookup(IpAddress::from_string("2001:db9::1")).has_value());
  auto hit = trie.lookup(IpAddress::from_string("2001:db8::1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 6);
}

TEST(Trie, IterationOrderAndKeys) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.1.0.0/16"), 0);
  trie.insert(Prefix::from_string("10.0.0.0/8"), 0);
  trie.insert(Prefix::from_string("9.0.0.0/8"), 0);
  trie.insert(Prefix::from_string("2001:db8::/32"), 0);
  auto keys = trie.keys();
  ASSERT_EQ(keys.size(), 4u);
  // v4 first, shorter-at-prefix-position before longer, address order.
  EXPECT_EQ(keys[0], Prefix::from_string("9.0.0.0/8"));
  EXPECT_EQ(keys[1], Prefix::from_string("10.0.0.0/8"));
  EXPECT_EQ(keys[2], Prefix::from_string("10.1.0.0/16"));
  EXPECT_EQ(keys[3], Prefix::from_string("2001:db8::/32"));
}

TEST(Trie, ForEachMutable) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.0.0.0/8"), 1);
  trie.insert(Prefix::from_string("11.0.0.0/8"), 2);
  trie.for_each_mutable([](const Prefix&, int& v) { v *= 10; });
  EXPECT_EQ(*trie.find(Prefix::from_string("10.0.0.0/8")), 10);
  EXPECT_EQ(*trie.find(Prefix::from_string("11.0.0.0/8")), 20);
}

TEST(Trie, Clear) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::from_string("10.0.0.0/8"), 1);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.find(Prefix::from_string("10.0.0.0/8")), nullptr);
}

TEST(Trie, AnyCoveringVisitsEveryCoveringPrefix) {
  PrefixTrie<Prefix> trie;
  for (const char* text :
       {"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
        "10.1.2.3/32", "10.1.2.128/25", "10.2.0.0/16", "11.0.0.0/8",
        "2001:db8::/32"}) {
    trie.insert(Prefix::from_string(text), Prefix::from_string(text));
  }
  auto visited = [&](const char* text, const Prefix* stop_at = nullptr) {
    std::vector<std::string> seen;
    const bool hit = trie.any_covering(
        Prefix::from_string(text), [&](const Prefix& stored) {
          seen.push_back(stored.to_string());
          return stop_at != nullptr && stored == *stop_at;
        });
    EXPECT_EQ(hit, stop_at != nullptr) << text;
    return seen;
  };
  using Seen = std::vector<std::string>;

  // Exactly the stored covering prefixes, shortest first, the query
  // itself included; siblings and more-specifics are never offered.
  EXPECT_EQ(visited("10.1.2.3/32"),
            (Seen{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                  "10.1.2.3/32"}));
  EXPECT_EQ(visited("10.1.2.0/24"),
            (Seen{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"}));
  EXPECT_EQ(visited("10.1.0.0/20"),
            (Seen{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16"}));
  EXPECT_EQ(visited("0.0.0.0/0"), (Seen{"0.0.0.0/0"}));
  EXPECT_EQ(visited("12.0.0.0/8"), (Seen{"0.0.0.0/0"}));
  // Families do not mix: no v6 default, so a v6 walk sees only /32.
  EXPECT_EQ(visited("2001:db8::1/128"), (Seen{"2001:db8::/32"}));
  EXPECT_EQ(visited("2001:db9::/32"), Seen{});

  // The walk stops at the first accepted value.
  const Prefix stop = Prefix::from_string("10.1.0.0/16");
  EXPECT_EQ(visited("10.1.2.3/32", &stop),
            (Seen{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16"}));

  PrefixTrie<int> empty;
  EXPECT_FALSE(empty.any_covering(Prefix::from_string("10.0.0.0/8"),
                                  [](int) { return true; }));
}

// Property test: the trie agrees with std::map under a random workload.
class TrieRandomSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TrieRandomSweep, MatchesReferenceMap) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<int> len_dist(0, 32);
  std::uniform_int_distribution<int> op_dist(0, 2);

  PrefixTrie<std::uint32_t> trie;
  std::map<Prefix, std::uint32_t> reference;

  for (int i = 0; i < 2000; ++i) {
    int len = len_dist(rng);
    Prefix p(IpAddress::v4(addr_dist(rng)).masked(len), len);
    switch (op_dist(rng)) {
      case 0: {
        std::uint32_t value = addr_dist(rng);
        trie.insert(p, value);
        reference[p] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(trie.erase(p), reference.erase(p) > 0);
        break;
      }
      default: {
        auto it = reference.find(p);
        const std::uint32_t* found = trie.find(p);
        if (it == reference.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
      }
    }
  }
  EXPECT_EQ(trie.size(), reference.size());

  // Longest-prefix-match agrees with a linear scan of the reference.
  for (int i = 0; i < 200; ++i) {
    IpAddress addr = IpAddress::v4(addr_dist(rng));
    std::optional<Prefix> expected;
    for (const auto& [prefix, value] : reference) {
      if (prefix.contains(addr) &&
          (!expected || prefix.length() > expected->length())) {
        expected = prefix;
      }
    }
    auto hit = trie.lookup(addr);
    if (!expected) {
      EXPECT_FALSE(hit.has_value());
    } else {
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->first, *expected);
      EXPECT_EQ(*hit->second, reference.at(*expected));
    }
  }

  // Iteration covers exactly the reference keys, in sorted order per family.
  auto keys = trie.keys();
  ASSERT_EQ(keys.size(), reference.size());
  std::size_t index = 0;
  for (const auto& [prefix, value] : reference) {
    (void)value;
    EXPECT_EQ(keys[index++], prefix);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

}  // namespace
}  // namespace bgpcc
