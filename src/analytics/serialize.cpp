#include "analytics/serialize.h"

#include <array>
#include <istream>
#include <string>
#include <vector>

#include "core/codec.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace serialize {

// ---------------------------------------------------------------------------
// Reading a whole state file.

std::vector<std::uint8_t> drain(std::istream& in) {
  std::vector<std::uint8_t> bytes;
  std::array<char, 1 << 16> chunk{};
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + in.gcount());
  }
  if (in.bad()) throw DecodeError("state file: read failed (stream error)");
  return bytes;
}

// ---------------------------------------------------------------------------
// Block header.

void write_block_header(ByteWriter& w, BlockKind kind) {
  w.u32(kMagic);
  w.u16(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(kind));
}

BlockKind read_block_header(ByteReader& r) {
  std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    throw DecodeError("not a bgpcc state file (bad magic)");
  }
  std::uint16_t version = r.u16();
  if (version != kFormatVersion) {
    throw DecodeError("unsupported bgpcc state format version " +
                      std::to_string(version) + " (this build reads version " +
                      std::to_string(kFormatVersion) + ")");
  }
  std::uint8_t kind = r.u8();
  if (kind < static_cast<std::uint8_t>(BlockKind::kPartialState) ||
      kind > static_cast<std::uint8_t>(BlockKind::kIngestCursor)) {
    throw DecodeError("corrupt bgpcc state file: unknown block kind " +
                      std::to_string(kind));
  }
  return static_cast<BlockKind>(kind);
}

void read_block_header(ByteReader& r, BlockKind expected) {
  BlockKind kind = read_block_header(r);
  if (kind != expected) {
    throw DecodeError(
        "bgpcc state file holds block kind " +
        std::to_string(static_cast<unsigned>(kind)) + ", expected " +
        std::to_string(static_cast<unsigned>(expected)));
  }
}

std::vector<PassTag> read_state_tags(std::istream& in) {
  const std::vector<std::uint8_t> bytes = drain(in);
  ByteReader r(bytes);
  BlockKind kind = read_block_header(r);
  if (kind == BlockKind::kIngestCursor) {
    throw DecodeError(
        "bgpcc state file is a bare ingest cursor, not a pass-state file");
  }
  std::uint16_t count = r.u16();
  std::vector<PassTag> tags;
  tags.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    std::uint16_t tag = r.u16();
    if (tag < static_cast<std::uint16_t>(PassTag::kClassifier) ||
        tag > static_cast<std::uint16_t>(PassTag::kUsageClassification)) {
      throw DecodeError("bgpcc state file names unknown pass tag " +
                        std::to_string(tag) +
                        " — written by a newer build?");
    }
    tags.push_back(static_cast<PassTag>(tag));
  }
  return tags;
}

// ---------------------------------------------------------------------------
// Stream table and ingest cursor codecs. The pass States have no codec
// here: pass.h derives theirs from each State's field list.

void write_stream_table(ByteWriter& w,
                        const core::Classifier::StreamStates& streams) {
  core::codec::write_value(w, streams);
}

core::Classifier::StreamStates read_stream_table(ByteReader& r) {
  core::Classifier::StreamStates streams;
  core::codec::read_value(r, streams);
  return streams;
}

void write_ingest_checkpoint(ByteWriter& w,
                             const core::IngestCheckpoint& state) {
  using core::codec::write_value;
  write_block_header(w, BlockKind::kIngestCursor);
  write_value(w, state.chunk_records);
  // The source list is counted in a u32, not the generic u64.
  w.u32(static_cast<std::uint32_t>(state.collectors.size()));
  for (const std::string& collector : state.collectors) {
    write_value(w, collector);
  }
  write_value(w, state.cursor);
  // v2: the run's resolved shard count travels explicitly (it shapes the
  // carry below AND the restorer's engine — num_threads=0 resolution is
  // machine-dependent, so it must not be re-derived on the other side).
  // It is the carry's size, which the carry then repeats as its own
  // count; the reader refuses a block whose two counts differ.
  w.u64(state.carry.size());
  write_value(w, state.carry);
  for (auto counter : core::kCleaningCounters) {
    write_value(w, state.cleaning.*counter);
  }
  write_value(w, state.stats);
}

core::IngestCheckpoint read_ingest_checkpoint(ByteReader& r) {
  using core::codec::read_value;
  read_block_header(r, BlockKind::kIngestCursor);
  core::IngestCheckpoint out;
  read_value(r, out.chunk_records);
  // No cap and no reserve: a corrupt count runs into the end of the
  // block, so the allocation is bounded by the bytes actually present.
  std::uint32_t collector_count = r.u32();
  for (std::uint32_t i = 0; i < collector_count; ++i) {
    read_value(r, out.collectors.emplace_back());
  }
  read_value(r, out.cursor);
  std::uint64_t resolved_shards = r.u64();
  if (resolved_shards == 0 || resolved_shards > core::kMaxIngestShards) {
    throw DecodeError("corrupt ingest cursor: implausible shard count");
  }
  read_value(r, out.carry);
  if (out.carry.size() != resolved_shards) {
    throw DecodeError(
        "corrupt ingest cursor: carry size disagrees with the shard count");
  }
  for (auto counter : core::kCleaningCounters) {
    read_value(r, out.cleaning.*counter);
  }
  read_value(r, out.stats);
  return out;
}

}  // namespace serialize
}  // namespace bgpcc::analytics
