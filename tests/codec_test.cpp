// Unit + property tests: RFC 4271 wire codec.
#include <gtest/gtest.h>

#include "bgp/codec.h"

#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc {
namespace {

UpdateMessage sample_update() {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("203.0.113.0/24"));
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100, 200, 300});
  attrs.next_hop = IpAddress::from_string("10.0.0.1");
  attrs.origin = Origin::kIgp;
  update.attrs = std::move(attrs);
  return update;
}

TEST(Codec, MinimalUpdateRoundTrip) {
  UpdateMessage update = sample_update();
  auto wire = encode_update(update);
  EXPECT_EQ(peek_type(wire), MessageType::kUpdate);
  EXPECT_EQ(peek_length(wire), wire.size());
  UpdateMessage decoded = decode_update(wire);
  EXPECT_EQ(decoded, update);
}

TEST(Codec, WithdrawOnlyRoundTrip) {
  UpdateMessage update;
  update.withdrawn.push_back(Prefix::from_string("203.0.113.0/24"));
  update.withdrawn.push_back(Prefix::from_string("10.0.0.0/8"));
  auto wire = encode_update(update);
  UpdateMessage decoded = decode_update(wire);
  EXPECT_EQ(decoded, update);
  EXPECT_TRUE(decoded.is_withdraw_only());
}

TEST(Codec, AllAttributesRoundTrip) {
  UpdateMessage update = sample_update();
  update.attrs->origin = Origin::kIncomplete;
  update.attrs->med = 50;
  update.attrs->local_pref = 200;
  update.attrs->atomic_aggregate = true;
  update.attrs->aggregator =
      Aggregator{Asn(65000), IpAddress::from_string("1.2.3.4")};
  update.attrs->communities.add(Community::of(3356, 2001));
  update.attrs->communities.add(Community::no_export());
  update.attrs->large_communities.add(LargeCommunity{3356, 1, 2});
  auto wire = encode_update(update);
  EXPECT_EQ(decode_update(wire), update);
}

TEST(Codec, AsSetRoundTrip) {
  UpdateMessage update = sample_update();
  update.attrs->as_path = AsPath::from_string("100 {200 300} 400");
  auto wire = encode_update(update);
  EXPECT_EQ(decode_update(wire).attrs->as_path, update.attrs->as_path);
}

TEST(Codec, FourByteAsnRoundTrip) {
  UpdateMessage update = sample_update();
  update.attrs->as_path = AsPath::sequence({4200000001u, 200000, 12654});
  auto wire = encode_update(update);
  EXPECT_EQ(decode_update(wire).attrs->as_path, update.attrs->as_path);
}

TEST(Codec, TwoByteAsnMode) {
  CodecOptions legacy{.four_byte_asn = false};
  UpdateMessage update = sample_update();
  auto wire = encode_update(update, legacy);
  EXPECT_EQ(decode_update(wire, legacy), update);
  // A 4-byte ASN degrades to AS_TRANS in 2-byte mode.
  update.attrs->as_path = AsPath::sequence({4200000001u});
  auto wire2 = encode_update(update, legacy);
  EXPECT_EQ(decode_update(wire2, legacy).attrs->as_path.first_as(),
            Asn(23456));
}

TEST(Codec, Ipv6MpReachRoundTrip) {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("2001:db8::/32"));
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100, 200});
  attrs.next_hop = IpAddress::from_string("2001:db8::1");
  update.attrs = std::move(attrs);
  auto wire = encode_update(update);
  EXPECT_EQ(decode_update(wire), update);
}

TEST(Codec, Ipv6WithdrawRoundTrip) {
  UpdateMessage update;
  update.withdrawn.push_back(Prefix::from_string("2001:db8::/32"));
  auto wire = encode_update(update);
  EXPECT_EQ(decode_update(wire), update);
}

TEST(Codec, MixedFamilyUpdate) {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("203.0.113.0/24"));
  update.announced.push_back(Prefix::from_string("2001:db8::/48"));
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100});
  attrs.next_hop = IpAddress::from_string("10.0.0.1");
  update.attrs = std::move(attrs);
  auto wire = encode_update(update);
  UpdateMessage decoded = decode_update(wire);
  // Decoder yields v6 NLRI first (from MP_REACH) then v4; compare as sets.
  ASSERT_EQ(decoded.announced.size(), 2u);
  EXPECT_NE(std::find(decoded.announced.begin(), decoded.announced.end(),
                      update.announced[0]),
            decoded.announced.end());
  EXPECT_NE(std::find(decoded.announced.begin(), decoded.announced.end(),
                      update.announced[1]),
            decoded.announced.end());
}

TEST(Codec, UnknownTransitiveAttributePreserved) {
  UpdateMessage update = sample_update();
  RawAttribute raw;
  raw.flags = AttrFlags::kOptional | AttrFlags::kTransitive;
  raw.type = 99;
  raw.value = {1, 2, 3};
  update.attrs->add_unknown(raw);
  auto wire = encode_update(update);
  UpdateMessage decoded = decode_update(wire);
  ASSERT_EQ(decoded.attrs->unknown.size(), 1u);
  EXPECT_EQ(decoded.attrs->unknown[0], raw);
}

TEST(Codec, ExtendedLengthAttribute) {
  UpdateMessage update = sample_update();
  RawAttribute raw;
  raw.flags = AttrFlags::kOptional | AttrFlags::kTransitive;
  raw.type = 99;
  raw.value.assign(300, 0xab);  // forces the extended-length flag
  update.attrs->add_unknown(raw);
  auto wire = encode_update(update);
  UpdateMessage decoded = decode_update(wire);
  ASSERT_EQ(decoded.attrs->unknown.size(), 1u);
  // Flags gain the extended-length bit on the wire.
  EXPECT_EQ(decoded.attrs->unknown[0].value, raw.value);
}

TEST(Codec, AnnouncementWithoutAttrsRejected) {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("10.0.0.0/8"));
  EXPECT_THROW((void)encode_update(update), ConfigError);
}

TEST(Codec, V4NlriWithV6NextHopRejected) {
  UpdateMessage update = sample_update();
  update.attrs->next_hop = IpAddress::from_string("2001:db8::1");
  EXPECT_THROW((void)encode_update(update), ConfigError);
}

TEST(Codec, OversizedMessageRejected) {
  UpdateMessage update = sample_update();
  for (int i = 0; i < 2000; ++i) {
    update.announced.push_back(
        Prefix(IpAddress::v4(0x0a000000u + static_cast<std::uint32_t>(i) * 256),
               24));
  }
  EXPECT_THROW((void)encode_update(update), DecodeError);
}

TEST(CodecMalformed, TruncatedHeader) {
  std::vector<std::uint8_t> data(10, 0xff);
  EXPECT_THROW((void)decode_update(data), DecodeError);
  EXPECT_THROW((void)peek_type(data), DecodeError);
  EXPECT_THROW((void)peek_length(data), DecodeError);
}

TEST(CodecMalformed, BadMarker) {
  auto wire = encode_update(sample_update());
  wire[3] = 0x00;
  EXPECT_THROW((void)decode_update(wire), DecodeError);
}

TEST(CodecMalformed, LengthMismatch) {
  auto wire = encode_update(sample_update());
  wire[16] = 0x00;
  wire[17] = 0x20;  // claim 32 bytes
  EXPECT_THROW((void)decode_update(wire), DecodeError);
}

TEST(CodecMalformed, EveryTruncationThrows) {
  // Property: any prefix of a valid message must throw, never crash.
  auto wire = encode_update(sample_update());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::vector<std::uint8_t> cut(wire.begin(),
                                  wire.begin() + static_cast<long>(len));
    EXPECT_THROW((void)decode_update(cut), DecodeError) << "len=" << len;
  }
}

TEST(CodecMalformed, DuplicateAttributeRejected) {
  // Hand-build an update with ORIGIN twice.
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  auto len_at = w.placeholder<std::uint16_t>();
  w.u8(2);           // UPDATE
  w.u16(0);          // withdrawn length
  auto attrs_at = w.placeholder<std::uint16_t>();
  std::size_t before = w.size();
  for (int i = 0; i < 2; ++i) {
    w.u8(0x40);
    w.u8(1);  // ORIGIN
    w.u8(1);
    w.u8(0);
  }
  w.patch(attrs_at, static_cast<std::uint16_t>(w.size() - before));
  w.patch(len_at, static_cast<std::uint16_t>(w.size()));
  auto data = std::move(w).take();
  EXPECT_THROW((void)decode_update(data), DecodeError);
}

TEST(CodecMalformed, BadOriginValue) {
  auto wire = encode_update(sample_update());
  // ORIGIN is the first attribute: flags(0x40) type(1) len(1) value.
  // Locate it: after header(19) + withdrawn len(2) + attr len(2) = 23.
  ASSERT_EQ(wire[23], 0x40);
  ASSERT_EQ(wire[24], 1);
  wire[26] = 7;  // invalid origin
  EXPECT_THROW((void)decode_update(wire), DecodeError);
}

TEST(CodecMalformed, PrefixLengthOverflow) {
  auto wire = encode_update(sample_update());
  // NLRI is at the tail: length byte then 3 bytes of 203.0.113.
  wire[wire.size() - 4] = 64;  // /64 is invalid for IPv4
  EXPECT_THROW((void)decode_update(wire), DecodeError);
}

TEST(Codec, KeepaliveRoundTrip) {
  auto wire = encode_keepalive();
  EXPECT_EQ(wire.size(), kBgpHeaderSize);
  EXPECT_EQ(peek_type(wire), MessageType::kKeepalive);
}

TEST(Codec, OpenRoundTrip) {
  OpenMessage open;
  open.asn = Asn(3356);
  open.hold_time = 90;
  open.bgp_identifier = 0x0a000001;
  auto wire = encode_open(open);
  OpenMessage decoded = decode_open(wire);
  EXPECT_EQ(decoded, open);
}

TEST(Codec, OpenFourByteAsnCapability) {
  OpenMessage open;
  open.asn = Asn(200000);  // needs AS_TRANS in the fixed field
  auto wire = encode_open(open);
  OpenMessage decoded = decode_open(wire);
  EXPECT_TRUE(decoded.four_byte_asn_capable);
  EXPECT_EQ(decoded.asn, Asn(200000));
}

TEST(Codec, NotificationRoundTrip) {
  NotificationMessage n;
  n.error_code = 6;
  n.error_subcode = 2;
  n.data = {0xde, 0xad};
  auto wire = encode_notification(n);
  EXPECT_EQ(decode_notification(wire), n);
}

// Parameterized sweep: prefix lengths 0..32 all round-trip through the
// wire NLRI encoding (partial-byte prefix packing).
class PrefixLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefixLengthSweep, V4PrefixRoundTrip) {
  int len = GetParam();
  Prefix p(IpAddress::from_string("203.0.113.255").masked(len), len);
  UpdateMessage update = sample_update();
  update.announced = {p};
  auto wire = encode_update(update);
  UpdateMessage decoded = decode_update(wire);
  ASSERT_EQ(decoded.announced.size(), 1u);
  EXPECT_EQ(decoded.announced[0], p);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixLengthSweep,
                         ::testing::Range(0, 33));

// Parameterized sweep: IPv6 prefix lengths.
class PrefixLengthSweepV6 : public ::testing::TestWithParam<int> {};

TEST_P(PrefixLengthSweepV6, V6PrefixRoundTrip) {
  int len = GetParam();
  Prefix p(IpAddress::from_string("2001:db8:ffff:ffff::ffff").masked(len),
           len);
  UpdateMessage update;
  update.announced = {p};
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({100});
  attrs.next_hop = IpAddress::from_string("2001:db8::1");
  update.attrs = std::move(attrs);
  auto wire = encode_update(update);
  UpdateMessage decoded = decode_update(wire);
  ASSERT_EQ(decoded.announced.size(), 1u);
  EXPECT_EQ(decoded.announced[0], p);
}

INSTANTIATE_TEST_SUITE_P(SampledLengths, PrefixLengthSweepV6,
                         ::testing::Values(0, 1, 7, 8, 9, 32, 48, 64, 127,
                                           128));

}  // namespace
}  // namespace bgpcc
