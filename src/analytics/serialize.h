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
// All integers are big-endian (network order). The bytes are written
// and read by netbase's ByteWriter/ByteReader, the coder of the BGP, MRT
// and spill-run formats too; everything inside the blocks is encoded by
// core/codec.h: its leaf value codecs (session, prefix, AS path,
// community set, ...) and its generic write_value / read_value, which
// derive each pass State's, the stream table's and the cursor's bytes
// from their field lists. Writers encode a section at a time into one
// ByteWriter and hand it to the std::ostream; readers take the whole
// std::istream into one buffer. Decoding is bounds-checked end to end:
// truncated input, trailing bytes, a bad magic, an unknown version, or a
// pass-tag mismatch throw DecodeError (never UB) — serialize_test drives
// the same adversarial battery the gz/bz2 sources get.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/classifier.h"
#include "core/ingest.h"
#include "netbase/bytes.h"

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

/// The whole remaining content of `in`: a state file is decoded from one
/// buffer, so every blob is read through a bounded ByteReader::sub and
/// nothing may follow the block. DecodeError when the stream fails.
[[nodiscard]] std::vector<std::uint8_t> drain(std::istream& in);

/// Writes the common block header: magic, format version, kind.
void write_block_header(ByteWriter& w, BlockKind kind);

/// Reads and validates a block header; throws DecodeError on a bad
/// magic or an unsupported format version. Returns the block kind.
[[nodiscard]] BlockKind read_block_header(ByteReader& r);

/// Same, additionally requiring `expected` (DecodeError otherwise).
void read_block_header(ByteReader& r, BlockKind expected);

/// The pass-tag list of a partial-state or checkpoint file: reads the
/// whole stream and decodes the header and the tag list (`bgpcc-merge
/// tags` prints it).
[[nodiscard]] std::vector<PassTag> read_state_tags(std::istream& in);

/// Serializes one shard's stream table: the kCheckpoint table section.
void write_stream_table(ByteWriter& w,
                        const core::Classifier::StreamStates& streams);

/// Decodes a stream table section (DecodeError on corruption).
[[nodiscard]] core::Classifier::StreamStates read_stream_table(ByteReader& r);

/// Serializes a resumable ingestion snapshot as a kIngestCursor block.
void write_ingest_checkpoint(ByteWriter& w,
                             const core::IngestCheckpoint& state);

/// Decodes a kIngestCursor block (header included). Throws DecodeError
/// on truncation or corruption.
[[nodiscard]] core::IngestCheckpoint read_ingest_checkpoint(ByteReader& r);

}  // namespace bgpcc::analytics::serialize
