// The versioned wire codec for analysis state: every pass State, the
// driver's checkpoint/partial-state containers, and the streaming
// ingestor's resumable cursor serialize through ONE self-describing
// binary format (magic + format version + per-block kind + per-pass
// tag), so partial results can cross process boundaries — one worker
// per collector, crash-safe resumable year-scale runs, `bgpcc-merge`
// fan-in — with the same associativity guarantees the in-process
// Pass::merge contract gives.
//
// Format (documented field-by-field in docs/FORMATS.md):
//
//   block   := magic u32 | version u16 | kind u8 | payload
//   payload := ledger + pass-state list (kPartialState), per-shard
//              stream tables + ledgers + states (kCheckpoint), or framing
//              cursor + cleaning carry (kIngestCursor)
//
// All integers are big-endian (network order), matching the BGP/MRT
// codecs. Everything inside the blocks is encoded by core/codec.h: its
// leaf value codecs (session, prefix, AS path, community set, ...),
// shared with the spill-run format, and its generic write_value /
// read_value, which derive each pass State's, the stream table's and the
// cursor's bytes from their field lists. Decoding is bounds-checked end to end: truncated input,
// a bad magic, an unknown version, or a pass-tag mismatch throw
// DecodeError (never UB) — serialize_test drives the same adversarial
// battery the gz/bz2 sources get.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/classifier.h"
#include "core/ingest.h"

namespace bgpcc::analytics::serialize {

/// First four bytes of every serialized block: "BGPC".
inline constexpr std::uint32_t kMagic = 0x42475043;

/// Wire format version. Bump on ANY layout change (see the "bumping the
/// version" checklist in docs/FORMATS.md); readers reject other versions
/// with DecodeError instead of misparsing.
///
/// v5: the stream table's per-session ledger travels once per partial
/// state and once per checkpoint shard, and pass tags 1, 2, 5 and 6 drop
/// the tallies it holds. Older blocks are rejected — checkpoints are
/// transient crash/resume state, not long-lived archives.
inline constexpr std::uint16_t kFormatVersion = 5;

/// What a serialized block contains (the byte after magic + version).
enum class BlockKind : std::uint8_t {
  /// Merged per-pass states of a completed (or finalized) run: the
  /// `bgpcc-merge` input, written by AnalysisDriver::save_state.
  kPartialState = 1,
  /// Per-shard states of a still-running driver plus (optionally) the
  /// ingest cursor: written by AnalysisDriver::checkpoint.
  kCheckpoint = 2,
  /// A StreamingIngestor framing cursor + per-shard cleaning carry:
  /// nested inside kCheckpoint blocks, self-delimiting.
  kIngestCursor = 3,
};

/// Wire tag of each shipped pass State (passes.h pins kStateTag to these
/// values). Tags are part of the format: NEVER renumber; append only.
enum class PassTag : std::uint16_t {
  kClassifier = 1,
  kPerSessionTypes = 2,
  kTomography = 3,
  kCommunityStats = 4,
  kDuplicateBurst = 5,
  kAnomaly = 6,
  kRevealed = 7,
  kExploration = 8,
  kUsageClassification = 9,
};

/// Big-endian primitive encoder over a std::ostream. Throws DecodeError
/// when the underlying stream fails (disk full, broken pipe), so a
/// silently truncated checkpoint can never be mistaken for a good one.
class Writer {
 public:
  /// Binds to a caller-owned output stream (must outlive the writer).
  explicit Writer(std::ostream& out) : out_(out) {}

  /// Writes one byte.
  void u8(std::uint8_t v);
  /// Writes a 16-bit big-endian integer.
  void u16(std::uint16_t v);
  /// Writes a 32-bit big-endian integer.
  void u32(std::uint32_t v);
  /// Writes a 64-bit big-endian integer.
  void u64(std::uint64_t v);
  /// Writes a 64-bit signed integer (two's complement, big-endian).
  void i64(std::int64_t v);
  /// Writes a bool as one byte (0 or 1).
  void boolean(bool v);
  /// Writes a length-prefixed (u32) byte string. Throws ConfigError past
  /// core::codec::kMaxStringBytes, the cap Reader::str enforces.
  void str(std::string_view s);
  /// Writes raw bytes with no length prefix.
  void raw(const void* data, std::size_t size);

  /// Total bytes written so far (payload sizing).
  [[nodiscard]] std::uint64_t bytes_written() const { return written_; }

 private:
  std::ostream& out_;
  std::uint64_t written_ = 0;
};

/// Big-endian primitive decoder over a std::istream. Every read checks
/// for truncation and throws DecodeError on underrun; length prefixes
/// are sanity-capped so corrupt input cannot trigger huge allocations.
class Reader {
 public:
  /// Binds to a caller-owned input stream (must outlive the reader).
  explicit Reader(std::istream& in) : in_(in) {}

  /// Reads one byte.
  [[nodiscard]] std::uint8_t u8();
  /// Reads a 16-bit big-endian integer.
  [[nodiscard]] std::uint16_t u16();
  /// Reads a 32-bit big-endian integer.
  [[nodiscard]] std::uint32_t u32();
  /// Reads a 64-bit big-endian integer.
  [[nodiscard]] std::uint64_t u64();
  /// Reads a 64-bit signed integer.
  [[nodiscard]] std::int64_t i64();
  /// Reads a bool byte: 0 or 1, anything else throws DecodeError.
  [[nodiscard]] bool boolean();
  /// Reads a length-prefixed (u32) byte string. Throws DecodeError past
  /// core::codec::kMaxStringBytes (1 MiB; no field in the format comes
  /// close).
  [[nodiscard]] std::string str();
  /// Reads exactly `size` raw bytes.
  void raw(void* data, std::size_t size);

  /// Total bytes consumed so far (payload-size verification).
  [[nodiscard]] std::uint64_t bytes_read() const { return read_; }

 private:
  std::istream& in_;
  std::uint64_t read_ = 0;
};

/// Writes the common block header: magic, format version, kind.
void write_block_header(Writer& w, BlockKind kind);

/// Reads and validates a block header; throws DecodeError on a bad
/// magic or an unsupported format version. Returns the block kind.
[[nodiscard]] BlockKind read_block_header(Reader& r);

/// Same, additionally requiring `expected` (DecodeError otherwise).
void read_block_header(Reader& r, BlockKind expected);

/// Peeks the pass-tag list of a partial-state or checkpoint file: reads
/// the header and the tag list, consuming the stream up to the first
/// state payload. `bgpcc-merge` uses this to reconstruct a matching
/// driver before re-reading the file for real.
[[nodiscard]] std::vector<PassTag> read_state_tags(std::istream& in);

/// Serializes one shard's stream table: the kCheckpoint table section.
void write_stream_table(Writer& w,
                        const core::Classifier::StreamStates& streams);

/// Decodes a stream table section (DecodeError on corruption).
[[nodiscard]] core::Classifier::StreamStates read_stream_table(Reader& r);

/// Serializes a resumable ingestion snapshot as a kIngestCursor block.
void write_ingest_checkpoint(Writer& w, const core::IngestCheckpoint& state);

/// Decodes a kIngestCursor block (header included). Throws DecodeError
/// on truncation or corruption.
[[nodiscard]] core::IngestCheckpoint read_ingest_checkpoint(Reader& r);

}  // namespace bgpcc::analytics::serialize
