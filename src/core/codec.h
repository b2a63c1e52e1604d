// The value codecs both bgpcc binary formats share: the state files
// (checkpoints, partial states, ingest cursors; analytics/serialize.h)
// and the spilled window runs. Both encode through netbase's one coder,
// ByteWriter/ByteReader; a ByteReader throws DecodeError on underrun.
// The readers cap every size before allocating and rethrow value-type
// ParseErrors as DecodeError, so corrupt input ends in DecodeError,
// never UB. A layout change here is a checkpoint format change: bump
// serialize::kFormatVersion (docs/FORMATS.md).
//
// On top of the leaf codecs sits one generic pair, write_value and
// read_value, which derives the wire form of a type from its shape:
// integers by width, containers as a count and their elements, and a
// struct that names its members with `static auto fields(auto& self)`
// as those members in order. Every pass State, the stream table and the
// ingest cursor's carry and counters are encoded this way.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/attributes.h"
#include "core/cleaning.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::core::codec {

/// Cap on every length-prefixed string or byte field, enforced on both
/// sides: writers throw ConfigError above it, readers DecodeError, so a
/// corrupt length cannot drive a huge allocation and nothing is written
/// that could not be read back.
inline constexpr std::size_t kMaxStringBytes = std::size_t{1} << 20;

/// u32 length + raw bytes, for a std::string(_view) or byte vector.
void write_bytes(ByteWriter& w, const auto& bytes) {
  if (bytes.size() > kMaxStringBytes) {
    throw ConfigError("encoded field exceeds the " +
                      std::to_string(kMaxStringBytes) + "-byte cap");
  }
  w.u32(static_cast<std::uint32_t>(bytes.size()));
  if (!bytes.empty()) w.raw(bytes.data(), bytes.size());
}

template <class Bytes>
Bytes read_bytes(ByteReader& r) {
  std::uint32_t size = r.u32();
  if (size > kMaxStringBytes) {
    throw DecodeError("corrupt encoding: oversized length prefix");
  }
  Bytes out(size, 0);
  if (size > 0) r.raw(out.data(), size);
  return out;
}

/// u8 size (4 or 16) + network-order bytes.
inline void write_ip(ByteWriter& w, const IpAddress& ip) {
  auto bytes = ip.bytes();
  w.u8(static_cast<std::uint8_t>(bytes.size()));
  w.raw(bytes.data(), bytes.size());
}

inline IpAddress read_ip(ByteReader& r) {
  std::uint8_t size = r.u8();
  if (size != 4 && size != 16) {
    throw DecodeError("corrupt encoding: bad address size");
  }
  std::uint8_t bytes[16];
  r.raw(bytes, size);
  if (size == 4) return IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
  return IpAddress::v6({bytes, 16});
}

/// Address + u8 length. A reader refuses host bits past the length: a
/// Prefix never holds them.
inline void write_prefix(ByteWriter& w, const Prefix& prefix) {
  write_ip(w, prefix.address());
  w.u8(static_cast<std::uint8_t>(prefix.length()));
}

inline Prefix read_prefix(ByteReader& r) {
  IpAddress address = read_ip(r);
  std::uint8_t length = r.u8();
  Prefix prefix;
  try {
    prefix = Prefix(address, length);
  } catch (const ParseError&) {
    throw DecodeError("corrupt encoding: prefix length exceeds family");
  }
  if (prefix.address() != address) {
    throw DecodeError("corrupt encoding: prefix has host bits set");
  }
  return prefix;
}

/// Collector string + u32 peer ASN + peer address.
inline void write_session(ByteWriter& w, const SessionKey& session) {
  write_bytes(w, session.collector);
  w.u32(session.peer_asn.value());
  write_ip(w, session.peer_address);
}

inline SessionKey read_session(ByteReader& r) {
  return SessionKey{read_bytes<std::string>(r), Asn(r.u32()), read_ip(r)};
}

/// u32 segment count, then per segment u8 type + u32 ASN count (1 to
/// 255: an AsPath holds no empty segment) + ASNs.
inline void write_aspath(ByteWriter& w, const AsPath& path) {
  const auto& segments = path.segments();
  w.u32(static_cast<std::uint32_t>(segments.size()));
  for (const AsPathSegment& segment : segments) {
    w.u8(static_cast<std::uint8_t>(segment.type));
    w.u32(static_cast<std::uint32_t>(segment.asns.size()));
    for (Asn asn : segment.asns) w.u32(asn.value());
  }
}

inline AsPath read_aspath(ByteReader& r) {
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
    if (asn_count == 0 || asn_count > 255) {
      // from_segments would drop or reject it; fail before allocating.
      throw DecodeError("corrupt encoding: empty or oversized AS-path "
                        "segment");
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

/// u32 count + raw u32 values, strictly ascending (a reader refuses a
/// repeated or out-of-order value).
inline void write_communities(ByteWriter& w, const CommunitySet& set) {
  w.u32(static_cast<std::uint32_t>(set.size()));
  for (Community c : set) w.u32(c.raw());
}

inline CommunitySet read_communities(ByteReader& r) {
  std::uint32_t count = r.u32();
  CommunitySet out;
  for (std::uint32_t i = 0; i < count; ++i) {
    Community c(r.u32());
    if (!out.empty() && !(out.items().back() < c)) {
      throw DecodeError("corrupt encoding: community set not ascending");
    }
    out.add(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The generic codec (docs/FORMATS.md, "The generic codec").

template <class T, template <class...> class Template>
inline constexpr bool kIsA = false;
template <template <class...> class Template, class... Args>
inline constexpr bool kIsA<Template<Args...>, Template> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

/// A map whose value type files itself under `V::key(value)`: only the
/// values travel, and the reader derives each key.
template <class T>
concept KeyedByValue = requires(const typename T::mapped_type& value) {
  { T::mapped_type::key(value) } -> std::same_as<typename T::key_type>;
};

/// The sort key of an associative container's element.
const auto& key_of(const auto& element) {
  if constexpr (kIsA<std::remove_cvref_t<decltype(element)>, std::pair>) {
    return element.first;
  } else {
    return element;
  }
}

/// Writes `v` in the wire form its type derives (see the header comment).
template <class T>
void write_value(ByteWriter& w, const T& v) {
  if constexpr (requires { T::write_wire(w, v); }) {
    T::write_wire(w, v);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    w.u8(v);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
    w.u16(v);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    w.u32(v);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, Asn>) {
    w.u32(v.value());
  } else if constexpr (std::is_same_v<T, Community>) {
    w.u32(v.raw());
  } else if constexpr (std::is_same_v<T, Timestamp>) {
    write_value(w, v.unix_micros());
  } else if constexpr (std::is_same_v<T, std::string>) {
    write_bytes(w, v);
  } else if constexpr (std::is_same_v<T, SessionKey>) {
    write_session(w, v);
  } else if constexpr (std::is_same_v<T, Prefix>) {
    write_prefix(w, v);
  } else if constexpr (std::is_same_v<T, AsPath>) {
    write_aspath(w, v);
  } else if constexpr (std::is_same_v<T, CommunitySet>) {
    write_communities(w, v);
  } else if constexpr (kIsA<T, std::optional>) {
    write_value(w, v.has_value());
    if (v) write_value(w, *v);
  } else if constexpr (kIsA<T, std::pair>) {
    write_value(w, v.first);
    write_value(w, v.second);
  } else if constexpr (kIsArray<T>) {
    for (const auto& element : v) write_value(w, element);
  } else if constexpr (KeyedByValue<T>) {
    w.u64(v.size());
    for (const auto& element : v) write_value(w, element.second);
  } else if constexpr (kIsA<T, std::vector> || kIsA<T, std::map> ||
                       kIsA<T, std::set>) {
    w.u64(v.size());
    for (const auto& element : v) write_value(w, element);
  } else if constexpr (kIsA<T, std::unordered_map> ||
                       kIsA<T, std::unordered_set>) {
    // No stable iteration order: written sorted by key, so equal
    // containers always produce equal bytes.
    std::vector<const typename T::value_type*> sorted;
    sorted.reserve(v.size());
    for (const auto& element : v) sorted.push_back(&element);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return key_of(*a) < key_of(*b);
    });
    w.u64(sorted.size());
    for (const auto* element : sorted) write_value(w, *element);
  } else if constexpr (requires { T::fields(v); }) {
    std::apply([&w](const auto&... field) { (write_value(w, field), ...); },
               T::fields(v));
  } else {
    static_assert(sizeof(T) == 0, "no wire form for this type");
  }
}

template <class T>
void read_value(ByteReader& r, T& out);

/// One element of an ordered container: the key (or, for a KeyedByValue
/// map, the value it derives from) first.
template <class T>
typename T::value_type read_element(ByteReader& r) {
  if constexpr (KeyedByValue<T>) {
    typename T::mapped_type value;
    read_value(r, value);
    auto key = T::mapped_type::key(value);
    return {std::move(key), std::move(value)};
  } else if constexpr (kIsA<T, std::map>) {
    typename T::key_type key;
    typename T::mapped_type value;
    read_value(r, key);
    read_value(r, value);
    return {std::move(key), std::move(value)};
  } else {
    typename T::value_type element;
    read_value(r, element);
    return element;
  }
}

/// Reads a value written by write_value into `out`, replacing its
/// contents. Accepts only bytes write_value can produce: a boolean or
/// presence byte other than 0/1, a signed value outside its type, or
/// container keys that are not strictly ascending throw DecodeError.
/// Counts are never used to pre-size: a corrupt count runs into the end
/// of the input instead of into a huge allocation.
template <class T>
void read_value(ByteReader& r, T& out) {
  if constexpr (requires { T::read_wire(r, out); }) {
    T::read_wire(r, out);
  } else if constexpr (std::is_same_v<T, bool>) {
    std::uint8_t byte = r.u8();
    if (byte > 1) throw DecodeError("corrupt encoding: boolean byte not 0/1");
    out = byte == 1;
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    auto v = static_cast<std::int64_t>(r.u64());
    if (v < std::numeric_limits<T>::min() ||
        v > std::numeric_limits<T>::max()) {
      throw DecodeError("corrupt encoding: integer out of range");
    }
    out = static_cast<T>(v);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    out = r.u8();
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
    out = r.u16();
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    out = r.u32();
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    out = r.u64();
  } else if constexpr (std::is_same_v<T, Asn>) {
    out = Asn(r.u32());
  } else if constexpr (std::is_same_v<T, Community>) {
    out = Community(r.u32());
  } else if constexpr (std::is_same_v<T, Timestamp>) {
    std::int64_t micros = 0;
    read_value(r, micros);
    out = Timestamp::from_unix_micros(micros);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = read_bytes<std::string>(r);
  } else if constexpr (std::is_same_v<T, SessionKey>) {
    out = read_session(r);
  } else if constexpr (std::is_same_v<T, Prefix>) {
    out = read_prefix(r);
  } else if constexpr (std::is_same_v<T, AsPath>) {
    out = read_aspath(r);
  } else if constexpr (std::is_same_v<T, CommunitySet>) {
    out = read_communities(r);
  } else if constexpr (kIsA<T, std::optional>) {
    bool present = false;
    read_value(r, present);
    out.reset();
    if (present) read_value(r, out.emplace());
  } else if constexpr (kIsA<T, std::pair>) {
    read_value(r, out.first);
    read_value(r, out.second);
  } else if constexpr (kIsArray<T>) {
    for (auto& element : out) read_value(r, element);
  } else if constexpr (kIsA<T, std::vector>) {
    out.clear();
    std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) read_value(r, out.emplace_back());
  } else if constexpr (kIsA<T, std::map> || kIsA<T, std::set>) {
    out.clear();
    std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      typename T::value_type element = read_element<T>(r);
      if (!out.empty() && !out.key_comp()(key_of(*std::prev(out.end())),
                                         key_of(element))) {
        throw DecodeError("corrupt encoding: keys not strictly ascending");
      }
      out.insert(out.end(), std::move(element));
    }
  } else if constexpr (kIsA<T, std::unordered_map>) {
    std::map<typename T::key_type, typename T::mapped_type> sorted;
    read_value(r, sorted);
    out = T(std::make_move_iterator(sorted.begin()),
            std::make_move_iterator(sorted.end()));
  } else if constexpr (kIsA<T, std::unordered_set>) {
    std::set<typename T::key_type> sorted;
    read_value(r, sorted);
    out = T(sorted.begin(), sorted.end());
  } else if constexpr (requires { T::fields(out); }) {
    std::apply([&r](auto&... field) { (read_value(r, field), ...); },
               T::fields(out));
  } else {
    static_assert(sizeof(T) == 0, "no wire form for this type");
  }
}


/// Every PathAttributes field, in declaration order (docs/FORMATS.md,
/// "Spill-run format").
inline void write_attributes(ByteWriter& w, const PathAttributes& attrs) {
  w.u8(static_cast<std::uint8_t>(attrs.origin));
  write_aspath(w, attrs.as_path);
  write_ip(w, attrs.next_hop);
  write_value(w, attrs.med);
  write_value(w, attrs.local_pref);
  write_value(w, attrs.atomic_aggregate);
  write_value(w, attrs.aggregator.has_value());
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

inline PathAttributes read_attributes(ByteReader& r) {
  PathAttributes out;
  std::uint8_t origin = r.u8();
  if (origin > static_cast<std::uint8_t>(Origin::kIncomplete)) {
    throw DecodeError("corrupt encoding: bad ORIGIN code");
  }
  out.origin = static_cast<Origin>(origin);
  out.as_path = read_aspath(r);
  out.next_hop = read_ip(r);
  read_value(r, out.med);
  read_value(r, out.local_pref);
  read_value(r, out.atomic_aggregate);
  bool has_aggregator = false;
  read_value(r, has_aggregator);
  if (has_aggregator) out.aggregator = Aggregator{Asn(r.u32()), read_ip(r)};
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
inline void write_seq_record(ByteWriter& w, const SeqRecord& sr) {
  const UpdateRecord& record = sr.record;
  w.u64(sr.seq);
  w.u64(static_cast<std::uint64_t>(record.time.unix_micros()));
  write_session(w, record.session);
  write_prefix(w, record.prefix);
  write_value(w, record.announcement);
  write_attributes(w, record.attrs);
}

inline SeqRecord read_seq_record(ByteReader& r) {
  SeqRecord out;
  out.seq = r.u64();
  out.record.time =
      Timestamp::from_unix_micros(static_cast<std::int64_t>(r.u64()));
  out.record.session = read_session(r);
  out.record.prefix = read_prefix(r);
  read_value(r, out.record.announcement);
  out.record.attrs = read_attributes(r);
  return out;
}

}  // namespace bgpcc::core::codec
