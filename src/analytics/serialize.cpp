#include "analytics/serialize.h"

#include <array>
#include <istream>
#include <ostream>
#include <vector>

#include "core/codec.h"
#include "netbase/error.h"

namespace bgpcc::analytics {
namespace serialize {

// ---------------------------------------------------------------------------
// Primitive writer/reader.

namespace {

/// The big-endian bytes of `v`.
template <class T>
std::array<std::uint8_t, sizeof(T)> big_endian(T v) {
  std::array<std::uint8_t, sizeof(T)> out{};
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[sizeof(T) - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

/// Reads sizeof(T) bytes as one big-endian integer.
template <class T>
T read_big_endian(Reader& r) {
  std::array<std::uint8_t, sizeof(T)> bytes{};
  r.raw(bytes.data(), bytes.size());
  T v = 0;
  for (std::uint8_t b : bytes) v = static_cast<T>((v << 8) | b);
  return v;
}

}  // namespace

void Writer::raw(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) {
    throw DecodeError("state serialization: write failed (stream error)");
  }
  written_ += size;
}

void Writer::u8(std::uint8_t v) { raw(&v, 1); }

void Writer::u16(std::uint16_t v) { raw(big_endian(v).data(), sizeof(v)); }

void Writer::u32(std::uint32_t v) { raw(big_endian(v).data(), sizeof(v)); }

void Writer::u64(std::uint64_t v) { raw(big_endian(v).data(), sizeof(v)); }

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::boolean(bool v) { core::codec::write_value(*this, v); }

void Writer::str(std::string_view s) { core::codec::write_bytes(*this, s); }

void Reader::raw(void* data, std::size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in_.gcount()) != size) {
    throw DecodeError("truncated state blob");
  }
  read_ += size;
}

std::uint8_t Reader::u8() { return read_big_endian<std::uint8_t>(*this); }

std::uint16_t Reader::u16() { return read_big_endian<std::uint16_t>(*this); }

std::uint32_t Reader::u32() { return read_big_endian<std::uint32_t>(*this); }

std::uint64_t Reader::u64() { return read_big_endian<std::uint64_t>(*this); }

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

bool Reader::boolean() {
  bool v = false;
  core::codec::read_value(*this, v);
  return v;
}

std::string Reader::str() {
  return core::codec::read_bytes<std::string>(*this);
}

// ---------------------------------------------------------------------------
// Block header.

void write_block_header(Writer& w, BlockKind kind) {
  w.u32(kMagic);
  w.u16(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(kind));
}

BlockKind read_block_header(Reader& r) {
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

void read_block_header(Reader& r, BlockKind expected) {
  BlockKind kind = read_block_header(r);
  if (kind != expected) {
    throw DecodeError(
        "bgpcc state file holds block kind " +
        std::to_string(static_cast<unsigned>(kind)) + ", expected " +
        std::to_string(static_cast<unsigned>(expected)));
  }
}

std::vector<PassTag> read_state_tags(std::istream& in) {
  Reader r(in);
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

void write_stream_table(Writer& w,
                        const core::Classifier::StreamStates& streams) {
  core::codec::write_value(w, streams);
}

core::Classifier::StreamStates read_stream_table(Reader& r) {
  core::Classifier::StreamStates streams;
  core::codec::read_value(r, streams);
  return streams;
}

void write_ingest_checkpoint(Writer& w, const core::IngestCheckpoint& state) {
  using core::codec::write_value;
  write_block_header(w, BlockKind::kIngestCursor);
  write_value(w, state.chunk_records);
  // The source list is counted in a u32, not the generic u64.
  w.u32(static_cast<std::uint32_t>(state.collectors.size()));
  for (const std::string& collector : state.collectors) w.str(collector);
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

core::IngestCheckpoint read_ingest_checkpoint(Reader& r) {
  using core::codec::read_value;
  read_block_header(r, BlockKind::kIngestCursor);
  core::IngestCheckpoint out;
  read_value(r, out.chunk_records);
  // No cap and no reserve: a corrupt count runs into the end of the
  // block, so the allocation is bounded by the bytes actually present.
  std::uint32_t collector_count = r.u32();
  for (std::uint32_t i = 0; i < collector_count; ++i) {
    out.collectors.push_back(r.str());
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
