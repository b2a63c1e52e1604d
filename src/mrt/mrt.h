// RFC 6396 MRT framing: the archive format RouteViews and RIPE RIS publish.
//
// Supported record types: BGP4MP / BGP4MP_ET with MESSAGE, MESSAGE_AS4 and
// STATE_CHANGE(_AS4) subtypes. BGP4MP_ET carries microsecond timestamps;
// plain BGP4MP is second-granularity — the paper notes some collectors only
// record seconds, and the analysis pipeline's normalization step handles
// exactly that distinction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "netbase/asn.h"
#include "netbase/ip.h"
#include "netbase/timeutil.h"

namespace bgpcc::mrt {

/// MRT record types (RFC 6396 §4).
enum class RecordType : std::uint16_t {
  kBgp4mp = 16,
  kBgp4mpEt = 17,
};

/// Upper bound on the header length field the reader will accept. A lying
/// length (e.g. 0xFFFFFFFF on a truncated archive) must fail fast with
/// DecodeError instead of attempting a multi-gigabyte allocation. Real
/// BGP4MP bodies are < 5 KiB (endpoints + one 4096-byte BGP message); the
/// bound is generous for any legitimate record.
inline constexpr std::uint32_t kMaxRecordLength = 16u * 1024 * 1024;

/// BGP4MP subtypes (RFC 6396 §4.4).
enum class Bgp4mpSubtype : std::uint16_t {
  kStateChange = 0,
  kMessage = 1,
  kMessageAs4 = 4,
  kStateChangeAs4 = 5,
};

/// FSM states for STATE_CHANGE records (RFC 4271 §8.2.2 numbering).
enum class FsmState : std::uint16_t {
  kIdle = 1,
  kConnect = 2,
  kActive = 3,
  kOpenSent = 4,
  kOpenConfirm = 5,
  kEstablished = 6,
};

/// A raw MRT record: header fields plus undecoded body.
struct Record {
  Timestamp timestamp;  // microsecond precision iff the type is *_ET
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;  // excludes the ET microsecond field

  [[nodiscard]] bool is_bgp4mp() const {
    return type == static_cast<std::uint16_t>(RecordType::kBgp4mp) ||
           type == static_cast<std::uint16_t>(RecordType::kBgp4mpEt);
  }
};

/// Decoded BGP4MP_MESSAGE(_AS4): one BGP message seen on one collector
/// session, with the session endpoints identified.
struct Bgp4mpMessage {
  Asn peer_asn;
  Asn local_asn;
  std::uint16_t interface_index = 0;
  IpAddress peer_ip;
  IpAddress local_ip;
  /// The full BGP message, including its 19-byte header.
  std::vector<std::uint8_t> bgp_message;
};

/// Decoded BGP4MP_STATE_CHANGE(_AS4).
struct Bgp4mpStateChange {
  Asn peer_asn;
  Asn local_asn;
  std::uint16_t interface_index = 0;
  IpAddress peer_ip;
  IpAddress local_ip;
  FsmState old_state = FsmState::kIdle;
  FsmState new_state = FsmState::kIdle;
};

/// Serializes one record (header + body) to the stream.
class Writer {
 public:
  /// Writes through an externally owned stream (must be binary-mode).
  explicit Writer(std::ostream& out) : out_(&out) {}

  /// `extended_time` selects BGP4MP_ET (microsecond stamps) vs BGP4MP
  /// (second stamps — collectors configured like the paper's
  /// second-granularity ones). `as4` false writes the legacy two-octet
  /// MESSAGE subtype (both ASNs must fit 16 bits; throws ConfigError
  /// otherwise) — the inner BGP message must then also use two-octet
  /// AS-path encoding.
  void write_message(Timestamp when, const Bgp4mpMessage& message,
                     bool extended_time = true, bool as4 = true);
  void write_state_change(Timestamp when, const Bgp4mpStateChange& change,
                          bool extended_time = true);
  /// Low-level escape hatch: write a pre-built record verbatim.
  void write_record(const Record& record);

  [[nodiscard]] std::size_t records_written() const { return count_; }

 private:
  std::ostream* out_;
  std::size_t count_ = 0;
};

/// Pull-based record reader.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(&in) {}

  /// Returns the next record, or nullopt at clean EOF. Throws DecodeError
  /// on a truncated or corrupt record, an unknown record type or BGP4MP
  /// subtype, or a length field beyond kMaxRecordLength — malformed
  /// archives fail loudly instead of being silently skipped or OOMing.
  [[nodiscard]] std::optional<Record> next();

  /// Rebinds the reader to another stream (multi-archive ingestion reuses
  /// one reader across files instead of constructing one per file).
  void reset(std::istream& in) { in_ = &in; }

  /// Decodes a BGP4MP_MESSAGE(_AS4) body. Throws DecodeError if the record
  /// has a different type/subtype. `four_byte` output reports whether the
  /// record used AS4 encoding (needed to decode the inner BGP message).
  [[nodiscard]] static Bgp4mpMessage parse_message(const Record& record,
                                                   bool* four_byte = nullptr);
  [[nodiscard]] static Bgp4mpStateChange parse_state_change(
      const Record& record);

 private:
  std::istream* in_;
};

/// Batch framing for the parallel ingestion engine (core/ingest.h): pulls
/// up to `chunk_records` raw records per call without decoding bodies, so
/// a sequential framer can feed decode workers. A zero chunk size is
/// treated as 1.
class ChunkedReader {
 public:
  ChunkedReader(std::istream& in, std::size_t chunk_records)
      : reader_(in), chunk_records_(chunk_records == 0 ? 1 : chunk_records) {}

  /// Returns the next batch (full except possibly the last), or nullopt at
  /// clean EOF. Throws DecodeError on a truncated or corrupt record.
  [[nodiscard]] std::optional<std::vector<Record>> next_chunk();

  /// Rebinds to another stream and clears the EOF latch so the same
  /// framer serves a whole archive directory. The chunk size is
  /// preserved.
  void reset(std::istream& in) {
    reader_.reset(in);
    done_ = false;
  }

 private:
  Reader reader_;
  std::size_t chunk_records_;
  bool done_ = false;
};

/// Convenience: reads every BGP4MP message record from an MRT file —
/// transparently inflating gzip/bzip2 archives (mrt/source.h).
/// Returns (timestamp, message, four_byte_asn) triples in file order.
struct TimedMessage {
  Timestamp timestamp;
  Bgp4mpMessage message;
  bool four_byte_asn = true;
};
[[nodiscard]] std::vector<TimedMessage> read_all_messages(
    const std::string& path);

}  // namespace bgpcc::mrt
