// The value codecs both bgpcc binary formats share, written once as
// function templates over the big-endian coder: serialize::Writer/Reader
// (std::ostream/istream) for checkpoints and partial states, and netbase
// ByteWriter/ByteReader (one buffer per record) for spilled window runs.
// A coder provides u8/u32/u64 and raw(data, size); a reader throws
// DecodeError on underrun. The readers cap every size before allocating
// and rethrow value-type ParseErrors as DecodeError, so corrupt input
// ends in DecodeError, never UB. A layout change here is a checkpoint
// format change: bump serialize::kFormatVersion (docs/FORMATS.md).
//
// Aggregates are rebuilt with braced initializers, whose elements are
// evaluated left to right: field order is read order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/attributes.h"
#include "core/cleaning.h"
#include "netbase/error.h"

namespace bgpcc::core::codec {

/// Cap on every length-prefixed string or byte field, enforced on both
/// sides: writers throw ConfigError above it, readers DecodeError, so a
/// corrupt length cannot drive a huge allocation and nothing is written
/// that could not be read back.
inline constexpr std::size_t kMaxStringBytes = std::size_t{1} << 20;

/// u32 length + raw bytes, for a std::string(_view) or byte vector.
void write_bytes(auto& w, const auto& bytes) {
  if (bytes.size() > kMaxStringBytes) {
    throw ConfigError("encoded field exceeds the " +
                      std::to_string(kMaxStringBytes) + "-byte cap");
  }
  w.u32(static_cast<std::uint32_t>(bytes.size()));
  if (!bytes.empty()) w.raw(bytes.data(), bytes.size());
}

template <class Bytes>
Bytes read_bytes(auto& r) {
  std::uint32_t size = r.u32();
  if (size > kMaxStringBytes) {
    throw DecodeError("corrupt encoding: oversized length prefix");
  }
  Bytes out(size, 0);
  if (size > 0) r.raw(out.data(), size);
  return out;
}

/// u8 size (4 or 16) + network-order bytes.
void write_ip(auto& w, const IpAddress& ip) {
  auto bytes = ip.bytes();
  w.u8(static_cast<std::uint8_t>(bytes.size()));
  w.raw(bytes.data(), bytes.size());
}

IpAddress read_ip(auto& r) {
  std::uint8_t size = r.u8();
  if (size != 4 && size != 16) {
    throw DecodeError("corrupt encoding: bad address size");
  }
  std::uint8_t bytes[16];
  r.raw(bytes, size);
  if (size == 4) return IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
  return IpAddress::v6({bytes, 16});
}

/// Address + u8 length.
void write_prefix(auto& w, const Prefix& prefix) {
  write_ip(w, prefix.address());
  w.u8(static_cast<std::uint8_t>(prefix.length()));
}

Prefix read_prefix(auto& r) {
  IpAddress address = read_ip(r);
  std::uint8_t length = r.u8();
  try {
    return Prefix(address, length);
  } catch (const ParseError&) {
    throw DecodeError("corrupt encoding: prefix length exceeds family");
  }
}

/// Collector string + u32 peer ASN + peer address.
void write_session(auto& w, const SessionKey& session) {
  write_bytes(w, session.collector);
  w.u32(session.peer_asn.value());
  write_ip(w, session.peer_address);
}

SessionKey read_session(auto& r) {
  return SessionKey{read_bytes<std::string>(r), Asn(r.u32()), read_ip(r)};
}

/// u32 segment count, then per segment u8 type + u32 ASN count + ASNs.
void write_aspath(auto& w, const AsPath& path) {
  const auto& segments = path.segments();
  w.u32(static_cast<std::uint32_t>(segments.size()));
  for (const AsPathSegment& segment : segments) {
    w.u8(static_cast<std::uint8_t>(segment.type));
    w.u32(static_cast<std::uint32_t>(segment.asns.size()));
    for (Asn asn : segment.asns) w.u32(asn.value());
  }
}

AsPath read_aspath(auto& r) {
  std::uint32_t segment_count = r.u32();
  std::vector<AsPathSegment> segments;
  segments.reserve(std::min<std::uint32_t>(segment_count, 64));
  for (std::uint32_t s = 0; s < segment_count; ++s) {
    AsPathSegment segment;
    std::uint8_t type = r.u8();
    if (type != static_cast<std::uint8_t>(AsPathSegment::Type::kSet) &&
        type != static_cast<std::uint8_t>(AsPathSegment::Type::kSequence)) {
      throw DecodeError("corrupt encoding: bad AS-path segment type");
    }
    segment.type = static_cast<AsPathSegment::Type>(type);
    std::uint32_t asn_count = r.u32();
    if (asn_count > 255) {
      // from_segments would reject it anyway; fail before allocating.
      throw DecodeError("corrupt encoding: oversized AS-path segment");
    }
    segment.asns.reserve(asn_count);
    for (std::uint32_t a = 0; a < asn_count; ++a) {
      segment.asns.emplace_back(r.u32());
    }
    segments.push_back(std::move(segment));
  }
  try {
    return AsPath::from_segments(std::move(segments));
  } catch (const ParseError&) {
    throw DecodeError("corrupt encoding: unencodable AS path");
  }
}

/// u32 count + raw u32 values, ascending.
void write_communities(auto& w, const CommunitySet& set) {
  w.u32(static_cast<std::uint32_t>(set.size()));
  for (Community c : set) w.u32(c.raw());
}

CommunitySet read_communities(auto& r) {
  std::uint32_t count = r.u32();
  CommunitySet out;
  for (std::uint32_t i = 0; i < count; ++i) out.add(Community(r.u32()));
  return out;
}

/// Presence byte (0/1) + u32 value when present.
void write_opt_u32(auto& w, const std::optional<std::uint32_t>& v) {
  w.u8(v ? 1 : 0);
  if (v) w.u32(*v);
}

std::optional<std::uint32_t> read_opt_u32(auto& r) {
  if (r.u8() == 0) return std::nullopt;
  return r.u32();
}

/// Every PathAttributes field, in declaration order (docs/FORMATS.md,
/// "Spill-run format").
void write_attributes(auto& w, const PathAttributes& attrs) {
  w.u8(static_cast<std::uint8_t>(attrs.origin));
  write_aspath(w, attrs.as_path);
  write_ip(w, attrs.next_hop);
  write_opt_u32(w, attrs.med);
  write_opt_u32(w, attrs.local_pref);
  w.u8(attrs.atomic_aggregate ? 1 : 0);
  w.u8(attrs.aggregator ? 1 : 0);
  if (attrs.aggregator) {
    w.u32(attrs.aggregator->asn.value());
    write_ip(w, attrs.aggregator->address);
  }
  write_communities(w, attrs.communities);
  w.u32(static_cast<std::uint32_t>(attrs.large_communities.size()));
  for (const LargeCommunity& c : attrs.large_communities.items()) {
    w.u32(c.global_admin);
    w.u32(c.data1);
    w.u32(c.data2);
  }
  w.u32(static_cast<std::uint32_t>(attrs.unknown.size()));
  for (const RawAttribute& raw : attrs.unknown) {
    w.u8(raw.flags);
    w.u8(raw.type);
    write_bytes(w, raw.value);
  }
}

PathAttributes read_attributes(auto& r) {
  PathAttributes out;
  std::uint8_t origin = r.u8();
  if (origin > static_cast<std::uint8_t>(Origin::kIncomplete)) {
    throw DecodeError("corrupt encoding: bad ORIGIN code");
  }
  out.origin = static_cast<Origin>(origin);
  out.as_path = read_aspath(r);
  out.next_hop = read_ip(r);
  out.med = read_opt_u32(r);
  out.local_pref = read_opt_u32(r);
  out.atomic_aggregate = r.u8() != 0;
  if (r.u8() != 0) out.aggregator = Aggregator{Asn(r.u32()), read_ip(r)};
  out.communities = read_communities(r);
  std::uint32_t large_count = r.u32();
  for (std::uint32_t i = 0; i < large_count; ++i) {
    out.large_communities.add(LargeCommunity{r.u32(), r.u32(), r.u32()});
  }
  std::uint32_t unknown_count = r.u32();
  for (std::uint32_t i = 0; i < unknown_count; ++i) {
    RawAttribute raw{r.u8(), r.u8(), {}};
    raw.value = read_bytes<std::vector<std::uint8_t>>(r);
    out.unknown.push_back(std::move(raw));
  }
  return out;
}

/// u64 seq, u64 time (unix micros), session, prefix, u8 announcement,
/// attributes.
void write_seq_record(auto& w, const SeqRecord& sr) {
  const UpdateRecord& record = sr.record;
  w.u64(sr.seq);
  w.u64(static_cast<std::uint64_t>(record.time.unix_micros()));
  write_session(w, record.session);
  write_prefix(w, record.prefix);
  w.u8(record.announcement ? 1 : 0);
  write_attributes(w, record.attrs);
}

SeqRecord read_seq_record(auto& r) {
  SeqRecord out;
  out.seq = r.u64();
  out.record.time =
      Timestamp::from_unix_micros(static_cast<std::int64_t>(r.u64()));
  out.record.session = read_session(r);
  out.record.prefix = read_prefix(r);
  out.record.announcement = r.u8() != 0;
  out.record.attrs = read_attributes(r);
  return out;
}

}  // namespace bgpcc::core::codec
