// The shared value codec (core/codec.h): a SeqRecord that sets every
// UpdateRecord field round-trips exactly, and truncated or corrupted
// encodings end in DecodeError or a successful decode — never a crash
// (the ASan/UBSan job runs this suite).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/codec.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::core {
namespace {

SeqRecord full_v4_announcement() {
  SeqRecord sr;
  sr.seq = 0x0001000200000003ull;
  sr.record.time = Timestamp::from_unix_micros(1600000000123456);
  sr.record.session.collector = "rrc00";
  sr.record.session.peer_asn = Asn(4200000001u);
  sr.record.session.peer_address = IpAddress::from_string("2001:db8::1");
  sr.record.prefix = Prefix::from_string("10.1.0.0/16");
  sr.record.announcement = true;
  PathAttributes& a = sr.record.attrs;
  a.origin = Origin::kEgp;
  a.as_path = AsPath::from_string("65001 65001 3356 {174 4200000002}");
  // Dual-stack: the next hop's family differs from the prefix's.
  a.next_hop = IpAddress::from_string("2001:db8::fe");
  a.med = 50;
  a.local_pref = 200;
  a.atomic_aggregate = true;
  a.aggregator = Aggregator{Asn(65010), IpAddress::v4(192, 0, 2, 9)};
  a.communities.add(Community(0xfde80064u));
  a.communities.add(Community(0xfde800c8u));
  a.large_communities.add(LargeCommunity{64500, 1, 228});
  a.large_communities.add(LargeCommunity{64500, 2, 0});
  a.add_unknown(RawAttribute{0xc0, 99, {1, 2, 3}});
  a.add_unknown(RawAttribute{0x80, 120, {}});
  return sr;
}

SeqRecord full_v6_announcement() {
  SeqRecord sr;
  sr.seq = 7;
  sr.record.time = Timestamp::from_unix_micros(-5);
  sr.record.session.peer_address = IpAddress::v4(203, 0, 113, 1);
  sr.record.prefix = Prefix::from_string("2001:db8:42::/48");
  sr.record.announcement = true;
  PathAttributes& a = sr.record.attrs;
  a.origin = Origin::kIncomplete;
  a.as_path = AsPath::sequence({65002, 65003});
  a.next_hop = IpAddress::v4(192, 0, 2, 1);
  a.med = 0;
  IpAddress aggregator_address = IpAddress::from_string("2001:db8::a");
  a.aggregator = Aggregator{Asn(65011), aggregator_address};
  a.large_communities.add(LargeCommunity{1, 2, 3});
  return sr;
}

SeqRecord withdrawal() {
  SeqRecord sr;
  sr.seq = 9;
  sr.record.time = Timestamp::from_unix_seconds(1600000100);
  sr.record.session.collector = "route-views2";
  sr.record.session.peer_asn = Asn(65001);
  sr.record.session.peer_address = IpAddress::v4(10, 0, 0, 1);
  sr.record.prefix = Prefix::from_string("2001:db8::/32");
  sr.record.announcement = false;
  return sr;
}

std::vector<SeqRecord> fixtures() {
  return {full_v4_announcement(), full_v6_announcement(), withdrawal()};
}

std::vector<std::uint8_t> encode(const SeqRecord& sr) {
  ByteWriter w;
  codec::write_seq_record(w, sr);
  return w.take();
}

SeqRecord decode_whole(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  SeqRecord out = codec::read_seq_record(r);
  EXPECT_TRUE(r.empty()) << "decode left " << r.remaining() << " bytes";
  return out;
}

// Decodes `bytes`, which must either decode or throw DecodeError. Any
// other exception fails the test (a crash fails it harder). Returns
// whether the decode succeeded.
bool decode_or_reject(const std::vector<std::uint8_t>& bytes) {
  try {
    ByteReader r(bytes);
    (void)codec::read_seq_record(r);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

TEST(ValueCodec, SeqRecordEveryFieldRoundTrips) {
  for (const SeqRecord& sr : fixtures()) {
    SeqRecord back = decode_whole(encode(sr));
    EXPECT_EQ(back.seq, sr.seq);
    EXPECT_EQ(back.record, sr.record) << sr.record.prefix.to_string();
  }
}

// The fixture really sets what the test claims to cover.
TEST(ValueCodec, FixtureSetsEveryAttribute) {
  const SeqRecord sr = full_v4_announcement();
  const PathAttributes& a = sr.record.attrs;
  EXPECT_NE(a.origin, PathAttributes{}.origin);
  EXPECT_EQ(a.as_path.segments().back().type, AsPathSegment::Type::kSet);
  EXPECT_NE(a.next_hop.family(), sr.record.prefix.family());
  EXPECT_TRUE(a.med && a.local_pref && a.aggregator && a.atomic_aggregate);
  EXPECT_FALSE(a.communities.empty());
  EXPECT_FALSE(a.large_communities.empty());
  EXPECT_EQ(a.unknown.size(), 2u);
}

TEST(ValueCodec, TruncationAtEveryByteThrowsDecodeError) {
  for (const SeqRecord& sr : fixtures()) {
    std::vector<std::uint8_t> bytes = encode(sr);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(decode_or_reject(prefix)) << "cut=" << cut;
    }
  }
}

TEST(ValueCodec, FlippedBytesDecodeOrThrowDecodeError) {
  for (const SeqRecord& sr : fixtures()) {
    const std::vector<std::uint8_t> bytes = encode(sr);
    std::size_t decoded = 0;
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      for (int mask : {0x01, 0x80, 0xff}) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[at] ^= static_cast<std::uint8_t>(mask);
        decoded += decode_or_reject(corrupt) ? 1 : 0;
      }
    }
    // Most flips land in values (seq, ASNs, addresses) and still decode;
    // a battery where everything threw would prove nothing.
    EXPECT_GT(decoded, 0u);
  }
}

}  // namespace
}  // namespace bgpcc::core
