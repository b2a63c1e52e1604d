#include "mrt/mrt.h"

#include <fstream>
#include <istream>
#include <ostream>

#include "mrt/source.h"
#include "netbase/bytes.h"
#include "netbase/error.h"

namespace bgpcc::mrt {
namespace {

void write_ip(ByteWriter& w, const IpAddress& addr, AddressFamily family) {
  if (addr.family() != family) {
    throw ConfigError("BGP4MP peer/local address family mismatch");
  }
  w.bytes(addr.bytes());
}

IpAddress read_ip(ByteReader& r, std::uint16_t afi) {
  if (afi == 1) return IpAddress::v4(r.u32());
  if (afi == 2) return IpAddress::v6(r.bytes(16));
  throw DecodeError("unknown AFI " + std::to_string(afi) + " in BGP4MP");
}

// Serializes the BGP4MP_* body shared by message and state-change records.
void write_endpoints(ByteWriter& w, Asn peer, Asn local,
                     std::uint16_t ifindex, const IpAddress& peer_ip,
                     const IpAddress& local_ip, bool as4) {
  if (as4) {
    w.u32(peer.value());
    w.u32(local.value());
  } else {
    w.u16(static_cast<std::uint16_t>(peer.value()));
    w.u16(static_cast<std::uint16_t>(local.value()));
  }
  w.u16(ifindex);
  w.u16(afi_of(peer_ip.family()));
  write_ip(w, peer_ip, peer_ip.family());
  write_ip(w, local_ip, peer_ip.family());
}

struct Endpoints {
  Asn peer;
  Asn local;
  std::uint16_t ifindex = 0;
  IpAddress peer_ip;
  IpAddress local_ip;
};

Endpoints read_endpoints(ByteReader& r, bool as4) {
  Endpoints e;
  if (as4) {
    e.peer = Asn(r.u32());
    e.local = Asn(r.u32());
  } else {
    e.peer = Asn(r.u16());
    e.local = Asn(r.u16());
  }
  e.ifindex = r.u16();
  std::uint16_t afi = r.u16();
  e.peer_ip = read_ip(r, afi);
  e.local_ip = read_ip(r, afi);
  return e;
}

void write_record_bytes(std::ostream& out, Timestamp when,
                        RecordType record_type, std::uint16_t subtype,
                        const std::vector<std::uint8_t>& body,
                        bool extended_time) {
  ByteWriter header;
  header.u32(static_cast<std::uint32_t>(when.unix_seconds()));
  header.u16(static_cast<std::uint16_t>(record_type));
  header.u16(subtype);
  std::size_t length = body.size() + (extended_time ? 4 : 0);
  header.u32(static_cast<std::uint32_t>(length));
  if (extended_time) {
    header.u32(static_cast<std::uint32_t>(when.unix_micros() % 1000000));
  }
  out.write(reinterpret_cast<const char*>(header.data().data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  if (!out) throw DecodeError("MRT write failed (stream error)");
}

// The reader accepts exactly the record shapes this library understands;
// anything else is a hard DecodeError so corrupt archives cannot be
// silently skipped past.
bool known_record_type(std::uint16_t type) {
  return type == static_cast<std::uint16_t>(RecordType::kBgp4mp) ||
         type == static_cast<std::uint16_t>(RecordType::kBgp4mpEt);
}

bool known_bgp4mp_subtype(std::uint16_t subtype) {
  switch (static_cast<Bgp4mpSubtype>(subtype)) {
    case Bgp4mpSubtype::kStateChange:
    case Bgp4mpSubtype::kMessage:
    case Bgp4mpSubtype::kMessageAs4:
    case Bgp4mpSubtype::kStateChangeAs4:
      return true;
  }
  return false;
}

}  // namespace

void Writer::write_message(Timestamp when, const Bgp4mpMessage& message,
                           bool extended_time, bool as4) {
  if (!as4 && (message.peer_asn.value() > 0xFFFF ||
               message.local_asn.value() > 0xFFFF)) {
    throw ConfigError("two-octet BGP4MP message cannot carry a 4-byte ASN");
  }
  ByteWriter body;
  write_endpoints(body, message.peer_asn, message.local_asn,
                  message.interface_index, message.peer_ip, message.local_ip,
                  as4);
  body.bytes(message.bgp_message);
  write_record_bytes(
      *out_, when,
      extended_time ? RecordType::kBgp4mpEt : RecordType::kBgp4mp,
      static_cast<std::uint16_t>(as4 ? Bgp4mpSubtype::kMessageAs4
                                     : Bgp4mpSubtype::kMessage),
      body.data(), extended_time);
  ++count_;
}

void Writer::write_state_change(Timestamp when,
                                const Bgp4mpStateChange& change,
                                bool extended_time) {
  ByteWriter body;
  write_endpoints(body, change.peer_asn, change.local_asn,
                  change.interface_index, change.peer_ip, change.local_ip,
                  /*as4=*/true);
  body.u16(static_cast<std::uint16_t>(change.old_state));
  body.u16(static_cast<std::uint16_t>(change.new_state));
  write_record_bytes(
      *out_, when,
      extended_time ? RecordType::kBgp4mpEt : RecordType::kBgp4mp,
      static_cast<std::uint16_t>(Bgp4mpSubtype::kStateChangeAs4), body.data(),
      extended_time);
  ++count_;
}

void Writer::write_record(const Record& record) {
  bool extended = record.type == static_cast<std::uint16_t>(RecordType::kBgp4mpEt);
  write_record_bytes(*out_, record.timestamp,
                     static_cast<RecordType>(record.type), record.subtype,
                     record.body, extended);
  ++count_;
}

std::optional<Record> Reader::next() {
  std::uint8_t header[12];
  in_->read(reinterpret_cast<char*>(header), sizeof(header));
  if (in_->gcount() == 0 && in_->eof()) return std::nullopt;
  if (static_cast<std::size_t>(in_->gcount()) != sizeof(header)) {
    throw DecodeError("truncated MRT header");
  }
  ByteReader hr({header, sizeof(header)});
  std::uint32_t seconds = hr.u32();
  Record record;
  record.type = hr.u16();
  record.subtype = hr.u16();
  std::uint32_t length = hr.u32();
  if (!known_record_type(record.type)) {
    throw DecodeError("unknown MRT record type " +
                      std::to_string(record.type));
  }
  if (!known_bgp4mp_subtype(record.subtype)) {
    throw DecodeError("unknown BGP4MP subtype " +
                      std::to_string(record.subtype));
  }
  if (length > kMaxRecordLength) {
    throw DecodeError("MRT record length " + std::to_string(length) +
                      " exceeds sanity bound");
  }

  std::vector<std::uint8_t> payload(length);
  in_->read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(length));
  if (static_cast<std::size_t>(in_->gcount()) != length) {
    throw DecodeError("truncated MRT record body");
  }

  std::int64_t micros = static_cast<std::int64_t>(seconds) * 1000000;
  if (record.type == static_cast<std::uint16_t>(RecordType::kBgp4mpEt)) {
    if (length < 4) throw DecodeError("BGP4MP_ET record too short");
    ByteReader er({payload.data(), 4});
    // A sub-second part of a second or more would silently move the
    // record into a later second, ahead of records it followed.
    std::uint32_t sub_second = er.u32();
    if (sub_second >= 1000000) {
      throw DecodeError("BGP4MP_ET microsecond field " +
                        std::to_string(sub_second) + " is not below 1000000");
    }
    micros += sub_second;
    record.body.assign(payload.begin() + 4, payload.end());
  } else {
    record.body = std::move(payload);
  }
  record.timestamp = Timestamp::from_unix_micros(micros);
  return record;
}

Bgp4mpMessage Reader::parse_message(const Record& record, bool* four_byte) {
  if (!record.is_bgp4mp()) {
    throw DecodeError("record is not BGP4MP");
  }
  bool as4 =
      record.subtype == static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4);
  if (!as4 &&
      record.subtype != static_cast<std::uint16_t>(Bgp4mpSubtype::kMessage)) {
    throw DecodeError("record is not a BGP4MP message subtype");
  }
  ByteReader r({record.body.data(), record.body.size()});
  Endpoints e = read_endpoints(r, as4);
  Bgp4mpMessage message;
  message.peer_asn = e.peer;
  message.local_asn = e.local;
  message.interface_index = e.ifindex;
  message.peer_ip = e.peer_ip;
  message.local_ip = e.local_ip;
  auto rest = r.bytes(r.remaining());
  message.bgp_message.assign(rest.begin(), rest.end());
  if (four_byte != nullptr) *four_byte = as4;
  return message;
}

Bgp4mpStateChange Reader::parse_state_change(const Record& record) {
  if (!record.is_bgp4mp()) {
    throw DecodeError("record is not BGP4MP");
  }
  bool as4 = record.subtype ==
             static_cast<std::uint16_t>(Bgp4mpSubtype::kStateChangeAs4);
  if (!as4 && record.subtype !=
                  static_cast<std::uint16_t>(Bgp4mpSubtype::kStateChange)) {
    throw DecodeError("record is not a BGP4MP state-change subtype");
  }
  ByteReader r({record.body.data(), record.body.size()});
  Endpoints e = read_endpoints(r, as4);
  Bgp4mpStateChange change;
  change.peer_asn = e.peer;
  change.local_asn = e.local;
  change.interface_index = e.ifindex;
  change.peer_ip = e.peer_ip;
  change.local_ip = e.local_ip;
  change.old_state = static_cast<FsmState>(r.u16());
  change.new_state = static_cast<FsmState>(r.u16());
  return change;
}

std::optional<std::vector<Record>> ChunkedReader::next_chunk() {
  if (done_) return std::nullopt;
  std::vector<Record> chunk;
  chunk.reserve(chunk_records_);
  while (chunk.size() < chunk_records_) {
    auto record = reader_.next();
    if (!record) {
      done_ = true;
      break;
    }
    chunk.push_back(std::move(*record));
  }
  if (chunk.empty()) return std::nullopt;
  return chunk;
}

std::vector<TimedMessage> read_all_messages(const std::string& path) {
  // Transparent gzip/bz2 support: the decompression layer sniffs the
  // magic bytes and inflates as needed (mrt/source.h).
  InputStream input = InputStream::open_file(path);
  Reader reader(input.stream());
  std::vector<TimedMessage> out;
  while (auto record = reader.next()) {
    if (!record->is_bgp4mp()) continue;
    if (record->subtype !=
            static_cast<std::uint16_t>(Bgp4mpSubtype::kMessage) &&
        record->subtype !=
            static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4)) {
      continue;
    }
    TimedMessage tm;
    tm.timestamp = record->timestamp;
    tm.message = Reader::parse_message(*record, &tm.four_byte_asn);
    out.push_back(std::move(tm));
  }
  return out;
}

}  // namespace bgpcc::mrt
