#include "analytics/serialize.h"

#include <algorithm>
#include <array>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "analytics/passes.h"
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

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

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

bool Reader::boolean() { return u8() != 0; }

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

}  // namespace serialize

// ---------------------------------------------------------------------------
// Typed helpers shared by the State codecs. The value codecs (address,
// prefix, session, AS path, community set, optional u32) live in
// core/codec.h, shared with the spill-run format.

namespace {

using core::codec::read_aspath;
using core::codec::read_communities;
using core::codec::read_opt_u32;
using core::codec::read_prefix;
using core::codec::read_session;
using core::codec::write_aspath;
using core::codec::write_communities;
using core::codec::write_opt_u32;
using core::codec::write_prefix;
using core::codec::write_session;
using serialize::Reader;
using serialize::Writer;

void write_type_counts(Writer& w, const core::TypeCounts& counts) {
  for (std::uint64_t c : counts.counts) w.u64(c);
  w.u64(counts.first_sightings);
  w.u64(counts.withdrawals);
  w.u64(counts.nn_with_med_change);
}

core::TypeCounts read_type_counts(Reader& r) {
  core::TypeCounts out;
  for (std::uint64_t& c : out.counts) c = r.u64();
  out.first_sightings = r.u64();
  out.withdrawals = r.u64();
  out.nn_with_med_change = r.u64();
  return out;
}

void write_session_counts(
    Writer& w, const std::map<core::SessionKey, core::TypeCounts>& map) {
  w.u64(map.size());
  for (const auto& [session, counts] : map) {
    write_session(w, session);
    write_type_counts(w, counts);
  }
}

std::map<core::SessionKey, core::TypeCounts> read_session_counts(Reader& r) {
  std::uint64_t count = r.u64();
  std::map<core::SessionKey, core::TypeCounts> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    core::SessionKey session = read_session(r);
    out.emplace(std::move(session), read_type_counts(r));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-pass State codecs. Every layout here is part of the wire format
// (docs/FORMATS.md documents them field by field; bump
// serialize::kFormatVersion on any change). Only evidence travels —
// configuration members (options, schedules, filters) stay with the pass
// that minted the state, so load() requires an identically configured
// pass on the reading side.

void ClassifierPass::State::save(serialize::Writer& writer) const {
  write_type_counts(writer, counts_);
}

void ClassifierPass::State::load(serialize::Reader& reader) {
  counts_ = read_type_counts(reader);
}

void PerSessionTypesPass::State::save(serialize::Writer& writer) const {
  write_session_counts(writer, counts_);
}

void PerSessionTypesPass::State::load(serialize::Reader& reader) {
  counts_ = read_session_counts(reader);
}

void TomographyPass::State::save(serialize::Writer& writer) const {
  writer.u64(evidence_.size());
  for (const auto& [asn, evidence] : evidence_) {
    writer.u32(asn.value());
    writer.u64(evidence.on_path);
    writer.u64(evidence.own_namespace_tagged);
    writer.u64(evidence.as_peer);
    writer.u64(evidence.as_peer_with_communities);
    writer.u64(evidence.as_peer_with_foreign);
  }
}

void TomographyPass::State::load(serialize::Reader& reader) {
  std::uint64_t count = reader.u64();
  evidence_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    Asn asn{reader.u32()};
    core::AsEvidence evidence;
    evidence.asn = asn;
    evidence.on_path = reader.u64();
    evidence.own_namespace_tagged = reader.u64();
    evidence.as_peer = reader.u64();
    evidence.as_peer_with_communities = reader.u64();
    evidence.as_peer_with_foreign = reader.u64();
    evidence_.emplace(asn, evidence);
  }
}

void CommunityStatsPass::State::save(serialize::Writer& writer) const {
  // unordered_set has no stable iteration order; serialize sorted so the
  // same state always produces the same bytes (differential tests compare
  // files, not just decoded values).
  std::vector<std::uint32_t> values(values_.begin(), values_.end());
  std::sort(values.begin(), values.end());
  writer.u64(values.size());
  for (std::uint32_t v : values) writer.u32(v);
  writer.u64(histogram_.size());
  for (std::uint64_t bucket : histogram_) writer.u64(bucket);
  writer.u64(announcements_);
  writer.u64(withdrawals_);
  writer.u64(with_communities_);
  writer.u64(occurrences_);
}

void CommunityStatsPass::State::load(serialize::Reader& reader) {
  std::uint64_t value_count = reader.u64();
  values_.clear();
  for (std::uint64_t i = 0; i < value_count; ++i) {
    values_.insert(reader.u32());
  }
  std::uint64_t buckets = reader.u64();
  if (buckets != histogram_.size()) {
    throw ConfigError(
        "CommunityStatsPass: saved state has " + std::to_string(buckets) +
        " histogram buckets, this pass is configured with " +
        std::to_string(histogram_.size()) +
        " — load with the original histogram_buckets");
  }
  for (std::uint64_t& bucket : histogram_) bucket = reader.u64();
  announcements_ = reader.u64();
  withdrawals_ = reader.u64();
  with_communities_ = reader.u64();
  occurrences_ = reader.u64();
}

void DuplicateBurstPass::State::save(serialize::Writer& writer) const {
  writer.u64(tallies_.size());
  for (const auto& [session, tally] : tallies_) {
    write_session(writer, session);
    writer.u64(tally.classified);
    writer.u64(tally.nn);
    writer.u64(tally.bursts);
    writer.u64(tally.longest_run);
  }
}

void DuplicateBurstPass::State::load(serialize::Reader& reader) {
  std::uint64_t tally_count = reader.u64();
  tallies_.clear();
  for (std::uint64_t i = 0; i < tally_count; ++i) {
    core::SessionKey session = read_session(reader);
    Tally tally;
    tally.classified = reader.u64();
    tally.nn = reader.u64();
    tally.bursts = reader.u64();
    tally.longest_run = reader.u64();
    tallies_.emplace(std::move(session), tally);
  }
}

void AnomalyPass::State::save(serialize::Writer& writer) const {
  write_session_counts(writer, counts_);
  writer.u64(novelty_.size());
  for (const auto& [community, buckets] : novelty_) {
    writer.u32(community.raw());
    writer.u64(buckets.size());
    for (const auto& [index, bucket] : buckets) {
      writer.i64(index);
      writer.u64(bucket.count);
      writer.i64(bucket.earliest.unix_micros());
    }
  }
}

void AnomalyPass::State::load(serialize::Reader& reader) {
  counts_ = read_session_counts(reader);
  std::uint64_t community_count = reader.u64();
  novelty_.clear();
  for (std::uint64_t i = 0; i < community_count; ++i) {
    Community community{reader.u32()};
    auto& buckets = novelty_[community];
    std::uint64_t bucket_count = reader.u64();
    for (std::uint64_t b = 0; b < bucket_count; ++b) {
      std::int64_t index = reader.i64();
      core::NoveltyBucket bucket;
      bucket.count = reader.u64();
      bucket.earliest = Timestamp::from_unix_micros(reader.i64());
      buckets.emplace(index, bucket);
    }
  }
}

// PhaseBuckets bitmask (RevealedPass).
constexpr std::uint8_t kPhaseAnnounce = 1;
constexpr std::uint8_t kPhaseWithdraw = 2;
constexpr std::uint8_t kPhaseOutside = 4;

void RevealedPass::State::save(serialize::Writer& writer) const {
  writer.u64(evidence_.size());
  for (const auto& [attrs, buckets] : evidence_) {
    write_communities(writer, attrs);
    std::uint8_t mask = 0;
    if (buckets.announce) mask |= kPhaseAnnounce;
    if (buckets.withdraw) mask |= kPhaseWithdraw;
    if (buckets.outside) mask |= kPhaseOutside;
    writer.u8(mask);
  }
}

void RevealedPass::State::load(serialize::Reader& reader) {
  std::uint64_t count = reader.u64();
  evidence_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    CommunitySet attrs = read_communities(reader);
    std::uint8_t mask = reader.u8();
    core::PhaseBuckets buckets;
    buckets.announce = (mask & kPhaseAnnounce) != 0;
    buckets.withdraw = (mask & kPhaseWithdraw) != 0;
    buckets.outside = (mask & kPhaseOutside) != 0;
    evidence_.emplace(std::move(attrs), buckets);
  }
}

namespace {

void write_exploration_event(Writer& w, const core::ExplorationEvent& event) {
  write_session(w, event.session);
  write_prefix(w, event.prefix);
  write_aspath(w, event.as_path);
  w.i64(event.begin.unix_micros());
  w.i64(event.end.unix_micros());
  w.i64(event.nc_count);
  w.i64(event.distinct_attributes);
}

core::ExplorationEvent read_exploration_event(Reader& r) {
  core::ExplorationEvent event;
  event.session = read_session(r);
  event.prefix = read_prefix(r);
  event.as_path = read_aspath(r);
  event.begin = Timestamp::from_unix_micros(r.i64());
  event.end = Timestamp::from_unix_micros(r.i64());
  event.nc_count = static_cast<int>(r.i64());
  event.distinct_attributes = static_cast<int>(r.i64());
  return event;
}

}  // namespace

void ExplorationPass::State::save(serialize::Writer& writer) const {
  // A run's key is its event's (session, prefix): it does not travel.
  writer.u64(runs_.size());
  for (const auto& [stream, run] : runs_) {
    write_exploration_event(writer, run.event);
    writer.u64(run.attributes.size());
    for (const CommunitySet& attrs : run.attributes) {
      write_communities(writer, attrs);
    }
  }
  writer.u64(events_.size());
  for (const core::ExplorationEvent& event : events_) {
    write_exploration_event(writer, event);
  }
}

void ExplorationPass::State::load(serialize::Reader& reader) {
  std::uint64_t run_count = reader.u64();
  runs_.clear();
  for (std::uint64_t i = 0; i < run_count; ++i) {
    Run run;
    run.event = read_exploration_event(reader);
    std::uint64_t attr_count = reader.u64();
    for (std::uint64_t a = 0; a < attr_count; ++a) {
      run.attributes.insert(read_communities(reader));
    }
    auto key = std::make_pair(run.event.prefix, run.event.session);
    runs_.emplace(std::move(key), std::move(run));
  }
  std::uint64_t event_count = reader.u64();
  events_.clear();
  for (std::uint64_t i = 0; i < event_count; ++i) {
    events_.push_back(read_exploration_event(reader));
  }
}

void UsageClassificationPass::State::save(serialize::Writer& writer) const {
  writer.u64(evidence_.value_occurrences.size());
  for (const auto& [value, count] : evidence_.value_occurrences) {
    writer.u32(value);
    writer.u64(count);
  }
  writer.u64(evidence_.namespace_sessions.size());
  for (const auto& [asn16, sessions] : evidence_.namespace_sessions) {
    writer.u16(asn16);
    writer.u64(sessions.size());
    for (const core::SessionKey& session : sessions) {
      write_session(writer, session);
    }
  }
}

void UsageClassificationPass::State::load(serialize::Reader& reader) {
  evidence_ = core::UsageEvidence{};
  std::uint64_t value_count = reader.u64();
  for (std::uint64_t i = 0; i < value_count; ++i) {
    std::uint32_t value = reader.u32();
    evidence_.value_occurrences[value] = reader.u64();
  }
  std::uint64_t namespace_count = reader.u64();
  for (std::uint64_t i = 0; i < namespace_count; ++i) {
    std::uint16_t asn16 = reader.u16();
    auto& sessions = evidence_.namespace_sessions[asn16];
    std::uint64_t session_count = reader.u64();
    for (std::uint64_t s = 0; s < session_count; ++s) {
      sessions.insert(read_session(reader));
    }
  }
}

// ---------------------------------------------------------------------------
// Stream table and ingest cursor codecs.

namespace serialize {

void write_stream_table(Writer& w,
                        const core::Classifier::StreamStates& streams) {
  w.u64(streams.size());
  for (const auto& [key, state] : streams) {
    write_session(w, key.first);
    write_prefix(w, key.second);
    write_aspath(w, state.as_path);
    write_communities(w, state.communities);
    write_opt_u32(w, state.med);
    w.u64(state.nn_run);
    w.boolean(state.withdrawn);
  }
}

core::Classifier::StreamStates read_stream_table(Reader& r) {
  std::uint64_t stream_count = r.u64();
  core::Classifier::StreamStates streams;
  for (std::uint64_t i = 0; i < stream_count; ++i) {
    core::SessionKey session = read_session(r);
    Prefix prefix = read_prefix(r);
    core::Classifier::StreamState state;
    state.as_path = read_aspath(r);
    state.communities = read_communities(r);
    state.med = read_opt_u32(r);
    state.nn_run = r.u64();
    state.withdrawn = r.boolean();
    streams.emplace(std::make_pair(std::move(session), prefix),
                    std::move(state));
  }
  return streams;
}

void write_ingest_checkpoint(Writer& w, const core::IngestCheckpoint& state) {
  write_block_header(w, BlockKind::kIngestCursor);
  w.u64(state.chunk_records);
  w.u32(static_cast<std::uint32_t>(state.collectors.size()));
  for (const std::string& collector : state.collectors) w.str(collector);
  w.u64(state.cursor.next_source);
  w.boolean(state.cursor.input_open);
  w.u32(state.cursor.current_file);
  w.u32(state.cursor.chunk_index);
  // v2: the run's resolved shard count travels explicitly (it shapes the
  // carry below AND the restorer's engine — num_threads=0 resolution is
  // machine-dependent, so it must not be re-derived on the other side).
  // It is the carry's size, which the block then repeats as the carry's
  // own count; the reader refuses a block whose two counts differ.
  w.u64(state.carry.size());
  w.u64(state.carry.size());
  for (const core::cleaning::SecondCarry& shard : state.carry) {
    // unordered_map: serialize sorted by session so identical carry state
    // always yields identical bytes.
    std::vector<std::pair<core::SessionKey, std::pair<std::int64_t, int>>>
        entries(shard.begin(), shard.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.u64(entries.size());
    for (const auto& [session, carry] : entries) {
      write_session(w, session);
      w.i64(carry.first);
      w.i64(carry.second);
    }
  }
  for (auto counter : core::kCleaningCounters) w.u64(state.cleaning.*counter);
  w.u64(state.stats.files);
  w.u64(state.stats.chunks);
  w.u64(state.stats.raw_records);
  w.u64(state.stats.update_messages);
  w.u64(state.stats.records);
  w.u64(state.stats.windows);
}

core::IngestCheckpoint read_ingest_checkpoint(Reader& r) {
  read_block_header(r, BlockKind::kIngestCursor);
  core::IngestCheckpoint out;
  out.chunk_records = static_cast<std::size_t>(r.u64());
  std::uint32_t collector_count = r.u32();
  if (collector_count > (1u << 16)) {
    throw DecodeError("corrupt ingest cursor: more than 2^16 sources");
  }
  out.collectors.reserve(collector_count);
  for (std::uint32_t i = 0; i < collector_count; ++i) {
    out.collectors.push_back(r.str());
  }
  out.cursor.next_source = r.u64();
  out.cursor.input_open = r.boolean();
  out.cursor.current_file = r.u32();
  out.cursor.chunk_index = r.u32();
  std::uint64_t resolved_shards = r.u64();
  if (resolved_shards == 0 || resolved_shards > core::kMaxIngestShards) {
    throw DecodeError("corrupt ingest cursor: implausible shard count");
  }
  std::uint64_t shard_count = r.u64();
  if (shard_count != resolved_shards) {
    throw DecodeError(
        "corrupt ingest cursor: carry size disagrees with the shard count");
  }
  out.carry.resize(static_cast<std::size_t>(shard_count));
  for (core::cleaning::SecondCarry& shard : out.carry) {
    std::uint64_t entry_count = r.u64();
    for (std::uint64_t e = 0; e < entry_count; ++e) {
      core::SessionKey session = read_session(r);
      std::int64_t second = r.i64();
      int spaced = static_cast<int>(r.i64());
      shard.emplace(std::move(session), std::make_pair(second, spaced));
    }
  }
  for (auto counter : core::kCleaningCounters) {
    out.cleaning.*counter = static_cast<std::size_t>(r.u64());
  }
  out.stats.files = static_cast<std::size_t>(r.u64());
  out.stats.chunks = static_cast<std::size_t>(r.u64());
  out.stats.raw_records = static_cast<std::size_t>(r.u64());
  out.stats.update_messages = static_cast<std::size_t>(r.u64());
  out.stats.records = static_cast<std::size_t>(r.u64());
  out.stats.windows = static_cast<std::size_t>(r.u64());
  return out;
}

}  // namespace serialize
}  // namespace bgpcc::analytics
