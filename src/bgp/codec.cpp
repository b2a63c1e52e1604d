#include "bgp/codec.h"

#include <algorithm>
#include <array>

#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc {
namespace {

constexpr std::uint8_t kMarkerByte = 0xff;
constexpr std::uint16_t kAsTrans = 23456;

void write_header(ByteWriter& w, MessageType type) {
  for (int i = 0; i < 16; ++i) w.u8(kMarkerByte);
  (void)w.placeholder<std::uint16_t>();  // length, patched by finish_message()
  w.u8(static_cast<std::uint8_t>(type));
}

std::vector<std::uint8_t> finish_message(ByteWriter&& w) {
  if (w.size() > kBgpMaxMessageSize) {
    throw DecodeError("BGP message exceeds 4096 bytes: " +
                      std::to_string(w.size()));
  }
  w.patch(16, static_cast<std::uint16_t>(w.size()));
  return std::move(w).take();
}

// Validates marker/length/type and returns a reader over the body.
ByteReader open_message(std::span<const std::uint8_t> data,
                        MessageType expected) {
  ByteReader r(data);
  if (data.size() < kBgpHeaderSize) {
    throw DecodeError("BGP message shorter than header");
  }
  for (int i = 0; i < 16; ++i) {
    if (r.u8() != kMarkerByte) throw DecodeError("BGP marker not all-ones");
  }
  std::size_t length = r.u16();
  if (length != data.size()) {
    throw DecodeError("BGP header length " + std::to_string(length) +
                      " != buffer size " + std::to_string(data.size()));
  }
  if (length > kBgpMaxMessageSize) {
    throw DecodeError("BGP message exceeds 4096 bytes");
  }
  auto type = static_cast<MessageType>(r.u8());
  if (type != expected) {
    throw DecodeError("unexpected BGP message type " +
                      std::to_string(static_cast<int>(type)));
  }
  return r;
}

void write_wire_prefix(ByteWriter& w, const Prefix& prefix) {
  w.u8(static_cast<std::uint8_t>(prefix.length()));
  std::size_t nbytes = (static_cast<std::size_t>(prefix.length()) + 7) / 8;
  w.bytes(prefix.address().bytes().subspan(0, nbytes));
}

Prefix read_wire_prefix(ByteReader& r, AddressFamily family) {
  int bits = r.u8();
  int width = (family == AddressFamily::kIpv4) ? 32 : 128;
  if (bits > width) {
    throw DecodeError("prefix length " + std::to_string(bits) +
                      " exceeds address width");
  }
  std::size_t nbytes = (static_cast<std::size_t>(bits) + 7) / 8;
  auto raw = r.bytes(nbytes);
  if (family == AddressFamily::kIpv4) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v = (v << 8) | (i < raw.size() ? raw[i] : 0);
    }
    return Prefix(IpAddress::v4(v), bits);
  }
  std::array<std::uint8_t, 16> bytes{};
  std::copy(raw.begin(), raw.end(), bytes.begin());
  return Prefix(IpAddress::v6(bytes), bits);
}

void write_asn(ByteWriter& w, Asn asn, bool four_byte) {
  if (four_byte) {
    w.u32(asn.value());
  } else {
    w.u16(asn.is_2byte() ? static_cast<std::uint16_t>(asn.value()) : kAsTrans);
  }
}

Asn read_asn(ByteReader& r, bool four_byte) {
  return four_byte ? Asn(r.u32()) : Asn(r.u16());
}

// Writes one attribute with correct (extended-)length framing.
void write_attr(ByteWriter& w, std::uint8_t flags, AttrType type,
                std::span<const std::uint8_t> payload) {
  if (payload.size() > 0xffff) {
    throw DecodeError("attribute payload too large");
  }
  bool extended = payload.size() > 0xff;
  if (extended) flags |= AttrFlags::kExtendedLength;
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(type));
  if (extended) {
    w.u16(static_cast<std::uint16_t>(payload.size()));
  } else {
    w.u8(static_cast<std::uint8_t>(payload.size()));
  }
  w.bytes(payload);
}

void encode_as_path(ByteWriter& w, const AsPath& path, bool four_byte) {
  ByteWriter payload;
  for (const AsPathSegment& seg : path.segments()) {
    if (seg.asns.empty()) continue;
    if (seg.asns.size() > 255) {
      throw DecodeError("AS path segment longer than 255");
    }
    payload.u8(static_cast<std::uint8_t>(seg.type));
    payload.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (Asn asn : seg.asns) write_asn(payload, asn, four_byte);
  }
  write_attr(w, AttrFlags::kTransitive, AttrType::kAsPath, payload.data());
}

AsPath decode_as_path(ByteReader r, bool four_byte) {
  std::vector<AsPathSegment> segments;
  while (!r.empty()) {
    AsPathSegment seg;
    auto type = r.u8();
    if (type != 1 && type != 2) {
      throw DecodeError("unknown AS path segment type " + std::to_string(type));
    }
    seg.type = static_cast<AsPathSegment::Type>(type);
    std::size_t count = r.u8();
    seg.asns.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      seg.asns.push_back(read_asn(r, four_byte));
    }
    segments.push_back(std::move(seg));
  }
  return AsPath::from_segments(std::move(segments));
}

void encode_communities(ByteWriter& w, const CommunitySet& communities) {
  ByteWriter payload;
  for (Community c : communities) payload.u32(c.raw());
  write_attr(w, AttrFlags::kOptional | AttrFlags::kTransitive,
             AttrType::kCommunities, payload.data());
}

void encode_large_communities(ByteWriter& w, const LargeCommunitySet& set) {
  ByteWriter payload;
  for (const LargeCommunity& c : set.items()) {
    payload.u32(c.global_admin);
    payload.u32(c.data1);
    payload.u32(c.data2);
  }
  write_attr(w, AttrFlags::kOptional | AttrFlags::kTransitive,
             AttrType::kLargeCommunities, payload.data());
}

void encode_mp_reach(ByteWriter& w, const IpAddress& next_hop,
                     std::span<const Prefix> nlri) {
  ByteWriter payload;
  payload.u16(afi_of(AddressFamily::kIpv6));
  payload.u8(1);  // SAFI unicast
  payload.u8(16);
  // MP next hop must be v6; map a v4 next hop to the v4-mapped form.
  if (next_hop.is_v6()) {
    payload.bytes(next_hop.bytes());
  } else {
    std::array<std::uint8_t, 16> mapped{};
    mapped[10] = 0xff;
    mapped[11] = 0xff;
    auto v4 = next_hop.bytes();
    std::copy(v4.begin(), v4.end(), mapped.begin() + 12);
    payload.bytes(mapped);
  }
  payload.u8(0);  // reserved
  for (const Prefix& p : nlri) write_wire_prefix(payload, p);
  write_attr(w, AttrFlags::kOptional, AttrType::kMpReachNlri, payload.data());
}

void encode_mp_unreach(ByteWriter& w, std::span<const Prefix> withdrawn) {
  ByteWriter payload;
  payload.u16(afi_of(AddressFamily::kIpv6));
  payload.u8(1);  // SAFI unicast
  for (const Prefix& p : withdrawn) write_wire_prefix(payload, p);
  write_attr(w, AttrFlags::kOptional, AttrType::kMpUnreachNlri,
             payload.data());
}

}  // namespace

std::vector<std::uint8_t> encode_update(const UpdateMessage& update,
                                        const CodecOptions& options) {
  if (!update.announced.empty() && !update.attrs) {
    throw ConfigError("UPDATE announces prefixes but has no attributes");
  }
  std::vector<Prefix> withdrawn_v4;
  std::vector<Prefix> withdrawn_v6;
  for (const Prefix& p : update.withdrawn) {
    (p.is_v4() ? withdrawn_v4 : withdrawn_v6).push_back(p);
  }
  std::vector<Prefix> announced_v4;
  std::vector<Prefix> announced_v6;
  for (const Prefix& p : update.announced) {
    (p.is_v4() ? announced_v4 : announced_v6).push_back(p);
  }
  if (!announced_v4.empty() && update.attrs->next_hop.is_v6()) {
    throw ConfigError("IPv4 NLRI requires an IPv4 next hop");
  }

  ByteWriter w;
  write_header(w, MessageType::kUpdate);

  std::size_t withdrawn_len_at = w.placeholder<std::uint16_t>();
  std::size_t before = w.size();
  for (const Prefix& p : withdrawn_v4) write_wire_prefix(w, p);
  w.patch(withdrawn_len_at, static_cast<std::uint16_t>(w.size() - before));

  std::size_t attrs_len_at = w.placeholder<std::uint16_t>();
  before = w.size();
  if (update.attrs) {
    const PathAttributes& a = *update.attrs;
    {
      ByteWriter payload;
      payload.u8(static_cast<std::uint8_t>(a.origin));
      write_attr(w, AttrFlags::kTransitive, AttrType::kOrigin, payload.data());
    }
    encode_as_path(w, a.as_path, options.four_byte_asn);
    if (!announced_v4.empty()) {
      ByteWriter payload;
      payload.bytes(a.next_hop.bytes());
      write_attr(w, AttrFlags::kTransitive, AttrType::kNextHop,
                 payload.data());
    }
    if (a.med) {
      ByteWriter payload;
      payload.u32(*a.med);
      write_attr(w, AttrFlags::kOptional, AttrType::kMed, payload.data());
    }
    if (a.local_pref) {
      ByteWriter payload;
      payload.u32(*a.local_pref);
      write_attr(w, AttrFlags::kTransitive, AttrType::kLocalPref,
                 payload.data());
    }
    if (a.atomic_aggregate) {
      write_attr(w, AttrFlags::kTransitive, AttrType::kAtomicAggregate, {});
    }
    if (a.aggregator) {
      ByteWriter payload;
      write_asn(payload, a.aggregator->asn, options.four_byte_asn);
      payload.bytes(a.aggregator->address.bytes().subspan(0, 4));
      write_attr(w, AttrFlags::kOptional | AttrFlags::kTransitive,
                 AttrType::kAggregator, payload.data());
    }
    if (!a.communities.empty()) encode_communities(w, a.communities);
    if (!announced_v6.empty()) encode_mp_reach(w, a.next_hop, announced_v6);
    if (!a.large_communities.empty()) {
      encode_large_communities(w, a.large_communities);
    }
    for (const RawAttribute& raw : a.unknown) {
      write_attr(w, raw.flags, static_cast<AttrType>(raw.type), raw.value);
    }
  }
  if (!withdrawn_v6.empty()) encode_mp_unreach(w, withdrawn_v6);
  w.patch(attrs_len_at, static_cast<std::uint16_t>(w.size() - before));

  for (const Prefix& p : announced_v4) write_wire_prefix(w, p);

  return finish_message(std::move(w));
}

UpdateMessage decode_update(std::span<const std::uint8_t> data,
                            const CodecOptions& options) {
  ByteReader r = open_message(data, MessageType::kUpdate);
  UpdateMessage update;

  std::size_t withdrawn_len = r.u16();
  ByteReader withdrawn = r.sub(withdrawn_len);
  while (!withdrawn.empty()) {
    update.withdrawn.push_back(
        read_wire_prefix(withdrawn, AddressFamily::kIpv4));
  }

  std::size_t attrs_len = r.u16();
  ByteReader attrs_reader = r.sub(attrs_len);
  PathAttributes attrs;
  bool have_any_attr = false;
  bool have_origin = false;
  bool have_as_path = false;
  bool have_next_hop = false;
  std::vector<std::uint8_t> seen_types;

  while (!attrs_reader.empty()) {
    std::uint8_t flags = attrs_reader.u8();
    std::uint8_t type = attrs_reader.u8();
    std::size_t len = (flags & AttrFlags::kExtendedLength)
                          ? attrs_reader.u16()
                          : attrs_reader.u8();
    ByteReader value = attrs_reader.sub(len);
    // MP_UNREACH alone does not constitute an attribute block worth
    // surfacing: a pure IPv6 withdrawal has no semantic attributes.
    if (type != static_cast<std::uint8_t>(AttrType::kMpUnreachNlri)) {
      have_any_attr = true;
    }
    if (std::find(seen_types.begin(), seen_types.end(), type) !=
        seen_types.end()) {
      throw DecodeError("duplicate path attribute type " +
                        std::to_string(type));
    }
    seen_types.push_back(type);

    switch (static_cast<AttrType>(type)) {
      case AttrType::kOrigin: {
        std::uint8_t v = value.u8();
        if (v > 2) throw DecodeError("invalid ORIGIN value");
        attrs.origin = static_cast<Origin>(v);
        have_origin = true;
        break;
      }
      case AttrType::kAsPath:
        attrs.as_path =
            decode_as_path(std::move(value), options.four_byte_asn);
        have_as_path = true;
        break;
      case AttrType::kNextHop: {
        if (value.remaining() != 4) throw DecodeError("NEXT_HOP must be 4B");
        std::uint32_t v = value.u32();
        attrs.next_hop = IpAddress::v4(v);
        have_next_hop = true;
        break;
      }
      case AttrType::kMed:
        attrs.med = value.u32();
        break;
      case AttrType::kLocalPref:
        attrs.local_pref = value.u32();
        break;
      case AttrType::kAtomicAggregate:
        if (value.remaining() != 0) {
          throw DecodeError("ATOMIC_AGGREGATE must be empty");
        }
        attrs.atomic_aggregate = true;
        break;
      case AttrType::kAggregator: {
        Asn asn = read_asn(value, options.four_byte_asn);
        if (value.remaining() != 4) throw DecodeError("bad AGGREGATOR length");
        attrs.aggregator = Aggregator{asn, IpAddress::v4(value.u32())};
        break;
      }
      case AttrType::kCommunities: {
        if (value.remaining() % 4 != 0) {
          throw DecodeError("COMMUNITIES length not a multiple of 4");
        }
        while (!value.empty()) attrs.communities.add(Community(value.u32()));
        break;
      }
      case AttrType::kLargeCommunities: {
        if (value.remaining() % 12 != 0) {
          throw DecodeError("LARGE_COMMUNITY length not a multiple of 12");
        }
        while (!value.empty()) {
          LargeCommunity lc;
          lc.global_admin = value.u32();
          lc.data1 = value.u32();
          lc.data2 = value.u32();
          attrs.large_communities.add(lc);
        }
        break;
      }
      case AttrType::kMpReachNlri: {
        std::uint16_t afi = value.u16();
        std::uint8_t safi = value.u8();
        if (afi != afi_of(AddressFamily::kIpv6) || safi != 1) {
          throw DecodeError("unsupported MP_REACH AFI/SAFI");
        }
        std::size_t nh_len = value.u8();
        if (nh_len != 16 && nh_len != 32) {
          throw DecodeError("unsupported MP next hop length");
        }
        attrs.next_hop = IpAddress::v6(value.bytes(16));
        if (nh_len == 32) value.skip(16);  // link-local scope, ignored
        value.skip(1);                     // reserved
        while (!value.empty()) {
          update.announced.push_back(
              read_wire_prefix(value, AddressFamily::kIpv6));
        }
        break;
      }
      case AttrType::kMpUnreachNlri: {
        std::uint16_t afi = value.u16();
        std::uint8_t safi = value.u8();
        if (afi != afi_of(AddressFamily::kIpv6) || safi != 1) {
          throw DecodeError("unsupported MP_UNREACH AFI/SAFI");
        }
        while (!value.empty()) {
          update.withdrawn.push_back(
              read_wire_prefix(value, AddressFamily::kIpv6));
        }
        break;
      }
      default: {
        RawAttribute raw;
        raw.flags = flags;
        raw.type = type;
        auto payload = value.bytes(value.remaining());
        raw.value.assign(payload.begin(), payload.end());
        attrs.add_unknown(std::move(raw));
        break;
      }
    }
  }

  while (!r.empty()) {
    update.announced.push_back(read_wire_prefix(r, AddressFamily::kIpv4));
  }

  if (!update.announced.empty()) {
    if (!have_origin || !have_as_path) {
      throw DecodeError("UPDATE with NLRI missing mandatory attributes");
    }
    bool has_v4 = std::any_of(update.announced.begin(), update.announced.end(),
                              [](const Prefix& p) { return p.is_v4(); });
    if (has_v4 && !have_next_hop) {
      throw DecodeError("UPDATE with IPv4 NLRI missing NEXT_HOP");
    }
    update.attrs = std::move(attrs);
  } else if (have_any_attr) {
    // Attribute block without NLRI (e.g. MP-only or anomalous update):
    // keep attributes so the caller can inspect them.
    update.attrs = std::move(attrs);
  }
  return update;
}

std::vector<std::uint8_t> encode_keepalive() {
  ByteWriter w;
  write_header(w, MessageType::kKeepalive);
  return finish_message(std::move(w));
}

std::vector<std::uint8_t> encode_open(const OpenMessage& open) {
  ByteWriter w;
  write_header(w, MessageType::kOpen);
  w.u8(open.version);
  w.u16(open.asn.is_2byte() ? static_cast<std::uint16_t>(open.asn.value())
                            : kAsTrans);
  w.u16(open.hold_time);
  w.u32(open.bgp_identifier);
  if (open.four_byte_asn_capable) {
    // Optional parameter: one capability (type 65 = 4-octet AS, RFC 6793).
    ByteWriter cap;
    cap.u8(65);
    cap.u8(4);
    cap.u32(open.asn.value());
    ByteWriter param;
    param.u8(2);  // capabilities
    param.u8(static_cast<std::uint8_t>(cap.size()));
    param.bytes(cap.data());
    w.u8(static_cast<std::uint8_t>(param.size()));
    w.bytes(param.data());
  } else {
    w.u8(0);
  }
  return finish_message(std::move(w));
}

OpenMessage decode_open(std::span<const std::uint8_t> data) {
  ByteReader r = open_message(data, MessageType::kOpen);
  OpenMessage open;
  open.version = r.u8();
  std::uint16_t asn16 = r.u16();
  open.asn = Asn(asn16);
  open.hold_time = r.u16();
  open.bgp_identifier = r.u32();
  open.four_byte_asn_capable = false;
  std::size_t params_len = r.u8();
  ByteReader params = r.sub(params_len);
  while (!params.empty()) {
    std::uint8_t param_type = params.u8();
    std::size_t param_len = params.u8();
    ByteReader param = params.sub(param_len);
    if (param_type != 2) continue;  // only capabilities handled
    while (!param.empty()) {
      std::uint8_t cap_type = param.u8();
      std::size_t cap_len = param.u8();
      ByteReader cap = param.sub(cap_len);
      if (cap_type == 65 && cap.remaining() == 4) {
        open.four_byte_asn_capable = true;
        open.asn = Asn(cap.u32());
      }
    }
  }
  return open;
}

std::vector<std::uint8_t> encode_notification(
    const NotificationMessage& notification) {
  ByteWriter w;
  write_header(w, MessageType::kNotification);
  w.u8(notification.error_code);
  w.u8(notification.error_subcode);
  w.bytes(notification.data);
  return finish_message(std::move(w));
}

NotificationMessage decode_notification(std::span<const std::uint8_t> data) {
  ByteReader r = open_message(data, MessageType::kNotification);
  NotificationMessage n;
  n.error_code = r.u8();
  n.error_subcode = r.u8();
  auto rest = r.bytes(r.remaining());
  n.data.assign(rest.begin(), rest.end());
  return n;
}

MessageType peek_type(std::span<const std::uint8_t> data) {
  if (data.size() < kBgpHeaderSize) {
    throw DecodeError("BGP message shorter than header");
  }
  auto type = data[18];
  if (type < 1 || type > 4) {
    throw DecodeError("unknown BGP message type " + std::to_string(type));
  }
  return static_cast<MessageType>(type);
}

std::size_t peek_length(std::span<const std::uint8_t> data) {
  if (data.size() < kBgpHeaderSize) {
    throw DecodeError("BGP message shorter than header");
  }
  std::size_t length = (static_cast<std::size_t>(data[16]) << 8) | data[17];
  if (length < kBgpHeaderSize || length > kBgpMaxMessageSize) {
    throw DecodeError("implausible BGP length " + std::to_string(length));
  }
  return length;
}

}  // namespace bgpcc
