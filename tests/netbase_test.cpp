// Unit tests: netbase (addresses, prefixes, ASNs, bytes, time).
#include <gtest/gtest.h>

#include <stdexcept>

#include "netbase/asn.h"
#include "netbase/bytes.h"
#include "netbase/error.h"
#include "netbase/ip.h"
#include "netbase/prefix.h"
#include "netbase/timeutil.h"

namespace bgpcc {
namespace {

TEST(IpAddress, V4RoundTrip) {
  IpAddress a = IpAddress::from_string("10.1.2.3");
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(a.v4_value(), 0x0a010203u);
}

TEST(IpAddress, V4FromHostOrder) {
  EXPECT_EQ(IpAddress::v4(0xc0a80001).to_string(), "192.168.0.1");
  EXPECT_EQ(IpAddress::v4(192, 168, 0, 1), IpAddress::v4(0xc0a80001));
}

TEST(IpAddress, V4Extremes) {
  EXPECT_EQ(IpAddress::from_string("0.0.0.0").to_string(), "0.0.0.0");
  EXPECT_EQ(IpAddress::from_string("255.255.255.255").to_string(),
            "255.255.255.255");
}

TEST(IpAddress, V4Malformed) {
  EXPECT_THROW((void)IpAddress::from_string("10.1.2"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("10.1.2.256"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("10.1.2.3.4"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string(""), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("a.b.c.d"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("10..2.3"), ParseError);
}

TEST(IpAddress, V6RoundTrip) {
  IpAddress a = IpAddress::from_string("2001:db8::1");
  EXPECT_TRUE(a.is_v6());
  EXPECT_EQ(a.to_string(), "2001:db8::1");
}

TEST(IpAddress, V6FullForm) {
  IpAddress a =
      IpAddress::from_string("2001:0db8:0000:0000:0000:0000:0000:0001");
  EXPECT_EQ(a.to_string(), "2001:db8::1");
}

TEST(IpAddress, V6AllZeros) {
  EXPECT_EQ(IpAddress::from_string("::").to_string(), "::");
}

TEST(IpAddress, V6CompressionPicksLongestRun) {
  // Two zero runs; the longer one is compressed.
  IpAddress a = IpAddress::from_string("1:0:0:2:0:0:0:3");
  EXPECT_EQ(a.to_string(), "1:0:0:2::3");
}

TEST(IpAddress, V6TrailingCompression) {
  EXPECT_EQ(IpAddress::from_string("fe80::").to_string(), "fe80::");
}

TEST(IpAddress, V6Malformed) {
  EXPECT_THROW((void)IpAddress::from_string("1:2:3:4:5:6:7"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("1:2:3:4:5:6:7:8:9"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("::1::2"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("1:2:3:4:5:6:7:8::"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("12345::"), ParseError);
  EXPECT_THROW((void)IpAddress::from_string("g::1"), ParseError);
}

TEST(IpAddress, OrderingV4BeforeV6) {
  EXPECT_LT(IpAddress::from_string("255.255.255.255"),
            IpAddress::from_string("::1"));
}

TEST(IpAddress, BitAccess) {
  IpAddress a = IpAddress::v4(0x80000001);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(31));
}

TEST(IpAddress, Masked) {
  IpAddress a = IpAddress::from_string("10.255.255.255");
  EXPECT_EQ(a.masked(8).to_string(), "10.0.0.0");
  EXPECT_EQ(a.masked(32).to_string(), "10.255.255.255");
  EXPECT_EQ(a.masked(0).to_string(), "0.0.0.0");
  EXPECT_EQ(a.masked(12).to_string(), "10.240.0.0");
}

TEST(IpAddress, HashDiffersByFamily) {
  // 10.0.0.0 and the v6 address with the same leading bytes must not
  // collide structurally.
  IpAddress v4 = IpAddress::from_string("10.0.0.0");
  std::array<std::uint8_t, 16> bytes{10, 0, 0, 0};
  IpAddress v6 = IpAddress::v6(bytes);
  EXPECT_NE(v4, v6);
  EXPECT_NE(IpAddressHash{}(v4), IpAddressHash{}(v6));
}

TEST(Prefix, ParseAndCanonicalize) {
  Prefix p = Prefix::from_string("10.1.2.3/8");
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");
  EXPECT_EQ(p.length(), 8);
}

TEST(Prefix, ParseErrors) {
  EXPECT_THROW((void)Prefix::from_string("10.0.0.0"), ParseError);
  EXPECT_THROW((void)Prefix::from_string("10.0.0.0/33"), ParseError);
  EXPECT_THROW((void)Prefix::from_string("10.0.0.0/-1"), ParseError);
  EXPECT_THROW((void)Prefix::from_string("10.0.0.0/x"), ParseError);
  EXPECT_THROW((void)Prefix::from_string("2001:db8::/129"), ParseError);
}

TEST(Prefix, ContainsAddress) {
  Prefix p = Prefix::from_string("192.168.0.0/16");
  EXPECT_TRUE(p.contains(IpAddress::from_string("192.168.255.1")));
  EXPECT_FALSE(p.contains(IpAddress::from_string("192.169.0.1")));
  EXPECT_FALSE(p.contains(IpAddress::from_string("2001:db8::1")));
}

TEST(Prefix, ContainsPrefix) {
  Prefix p = Prefix::from_string("10.0.0.0/8");
  EXPECT_TRUE(p.contains(Prefix::from_string("10.1.0.0/16")));
  EXPECT_TRUE(p.contains(Prefix::from_string("10.0.0.0/8")));
  EXPECT_FALSE(p.contains(Prefix::from_string("0.0.0.0/0")));
  EXPECT_FALSE(p.contains(Prefix::from_string("11.0.0.0/16")));
}

TEST(Prefix, DefaultRoute) {
  Prefix p = Prefix::from_string("0.0.0.0/0");
  EXPECT_TRUE(p.contains(IpAddress::from_string("8.8.8.8")));
  EXPECT_EQ(p.to_string(), "0.0.0.0/0");
}

TEST(Prefix, V6) {
  Prefix p = Prefix::from_string("2001:db8::/32");
  EXPECT_TRUE(p.contains(IpAddress::from_string("2001:db8:1::1")));
  EXPECT_FALSE(p.contains(IpAddress::from_string("2001:db9::1")));
  EXPECT_EQ(p.to_string(), "2001:db8::/32");
}

TEST(Prefix, OrderingGeneralFirst) {
  EXPECT_LT(Prefix::from_string("10.0.0.0/8"),
            Prefix::from_string("10.0.0.0/16"));
}

TEST(Asn, Properties) {
  EXPECT_TRUE(Asn(65000).is_2byte());
  EXPECT_FALSE(Asn(200000).is_2byte());
  EXPECT_TRUE(Asn(64512).is_private());
  EXPECT_TRUE(Asn(4200000000u).is_private());
  EXPECT_FALSE(Asn(3356).is_private());
  EXPECT_TRUE(Asn(0).is_reserved());
  EXPECT_TRUE(Asn(23456).is_reserved());
  EXPECT_TRUE(Asn(65535).is_reserved());
  EXPECT_FALSE(Asn(3356).is_reserved());
  EXPECT_EQ(Asn(3356).to_string(), "AS3356");
}

TEST(ByteReader, ReadsBigEndian) {
  std::vector<std::uint8_t> data{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                                 0x08};
  ByteReader r({data.data(), data.size()});
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_EQ(r.u32(), 0x03040506u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.u8(), 0x07);
}

TEST(ByteReader, U64) {
  std::vector<std::uint8_t> data(8, 0);
  data[7] = 42;
  ByteReader r({data.data(), data.size()});
  EXPECT_EQ(r.u64(), 42u);
}

TEST(ByteReader, UnderrunThrows) {
  std::vector<std::uint8_t> data{0x01};
  ByteReader r({data.data(), data.size()});
  EXPECT_THROW((void)r.u16(), DecodeError);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_THROW((void)r.u8(), DecodeError);
}

TEST(ByteReader, SubReaderIsBounded) {
  std::vector<std::uint8_t> data{1, 2, 3, 4};
  ByteReader r({data.data(), data.size()});
  ByteReader sub = r.sub(2);
  EXPECT_EQ(sub.u8(), 1);
  EXPECT_EQ(sub.u8(), 2);
  EXPECT_THROW((void)sub.u8(), DecodeError);
  EXPECT_EQ(r.u8(), 3);
}

TEST(ByteWriter, PatchU16) {
  ByteWriter w;
  std::size_t at = w.placeholder<std::uint16_t>();
  w.u32(0xdeadbeef);
  w.patch(at, std::uint16_t{4});
  EXPECT_EQ(w.data()[0], 0x00);
  EXPECT_EQ(w.data()[1], 0x04);
  EXPECT_EQ(to_hex({w.data().data(), w.data().size()}), "0004deadbeef");
}

// One placeholder/patch pair serves every length width: the BGP codec's
// u16 lengths, the spill frames' u32 and the state blobs' u64.
TEST(ByteWriter, PatchIsWidthGeneric) {
  ByteWriter w;
  std::size_t frame = w.placeholder<std::uint32_t>();
  std::size_t blob = w.placeholder<std::uint64_t>();
  w.u8(0xee);
  w.patch(frame, std::uint32_t{0x01020304});
  w.patch(blob, std::uint64_t{0x05060708090a0b0c});
  EXPECT_EQ(to_hex({w.data().data(), w.data().size()}),
            "0102030405060708090a0b0cee");
  EXPECT_THROW(w.patch(w.size() - 1, std::uint16_t{0}), std::out_of_range);
}

TEST(ByteWriter, RawAndClear) {
  ByteWriter w;
  const std::uint8_t payload[3] = {0xab, 0xcd, 0xef};
  w.u8(0x01);
  w.raw(payload, sizeof(payload));
  EXPECT_EQ(to_hex({w.data().data(), w.data().size()}), "01abcdef");

  ByteReader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.u8(), 0x01);
  std::uint8_t back[3] = {};
  r.raw(back, sizeof(back));
  EXPECT_EQ(back[2], 0xef);
  EXPECT_THROW(r.raw(back, 1), DecodeError);

  w.clear();
  EXPECT_EQ(w.size(), 0u);
}

TEST(Timeutil, DurationArithmetic) {
  EXPECT_EQ(Duration::hours(2).count_micros(), 7200ll * 1000000);
  EXPECT_EQ((Duration::minutes(1) + Duration::seconds(30)).count_micros(),
            90ll * 1000000);
  EXPECT_EQ((Duration::hours(4) * 3).count_micros(),
            Duration::hours(12).count_micros());
}

TEST(Timeutil, TimestampDayArithmetic) {
  // 2020-03-15 02:00:00 UTC.
  Timestamp t = Timestamp::from_unix_seconds(1584230400 + 7200);
  EXPECT_EQ(t.micros_of_day(), Duration::hours(2).count_micros());
  EXPECT_EQ(t.time_of_day_string(), "02:00:00.000000");
}

TEST(Timeutil, TimestampOrdering) {
  Timestamp a = Timestamp::from_unix_seconds(10);
  Timestamp b = a + Duration::micros(1);
  EXPECT_LT(a, b);
  EXPECT_EQ((b - a).count_micros(), 1);
}

}  // namespace
}  // namespace bgpcc
