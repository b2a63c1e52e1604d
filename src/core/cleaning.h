// §4 cleaning kernels, factored out of the sequential clean() so the
// sharded parallel ingestion engine (core/ingest.h) runs the exact same
// code per shard. All kernels operate on SeqRecords: an UpdateRecord
// tagged with its global arrival sequence number, which is the
// deterministic tie-break that makes 1-thread and N-thread ingestion
// produce identical streams.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/stream.h"

namespace bgpcc::core {

/// An UpdateRecord plus its global arrival sequence number. The sequence
/// is assigned during (sequential, deterministic) framing and survives
/// decode, sharding, and cleaning, so any two runs can be merged into the
/// same total order (time, seq) regardless of thread count.
struct SeqRecord {
  std::uint64_t seq = 0;
  UpdateRecord record;
};

/// The engine's total order: chronological with arrival-order ties. Seq
/// values are globally unique, so this is a strict total order — the
/// property that makes the parallel k-way merge (core/ingest.cpp)
/// deterministic for every thread count and partitioning.
[[nodiscard]] inline bool seq_time_order(const SeqRecord& a,
                                         const SeqRecord& b) {
  if (a.record.time != b.record.time) return a.record.time < b.record.time;
  return a.seq < b.seq;
}

/// Sorts by (record.time, seq): chronological with arrival-order ties.
void sort_seq_records(std::vector<SeqRecord>& records);

namespace cleaning {

using RouteServerMap = std::map<IpAddress, Asn>;

/// Prepends the route server's ASN to AS paths that lack it (§4: IXP
/// route servers that do not insert their own ASN). Returns the number of
/// paths repaired. Order-independent.
std::size_t repair_route_server_paths(std::vector<SeqRecord>& records,
                                      const RouteServerMap& servers);

/// Drops records whose AS path or prefix was unallocated at message time
/// (§4 unallocated-resource filtering). Order-independent.
void drop_unallocated(std::vector<SeqRecord>& records,
                      const Registry& registry, std::size_t* dropped_asn,
                      std::size_t* dropped_prefix);

/// Per-session carry-over state for the second-granularity repair: the
/// last original second seen on each session and how many records already
/// shared it. The streaming windowed engine (core/ingest.h) persists one
/// of these per shard across window boundaries, so a same-second burst
/// split by a window cut is spaced exactly as if the whole archive had
/// been cleaned in one batch. Sound whenever each session's
/// second-granularity timestamps are non-decreasing in arrival order —
/// which chronological collector dumps guarantee.
using SecondCarry =
    std::unordered_map<SessionKey, std::pair<std::int64_t, int>,
                       SessionKeyHash>;

/// Spaces successive same-second records of one session `step` apart (§4:
/// second-granularity collectors). Requires `records` sorted by
/// (time, seq); returns the number of timestamps adjusted. Sessions are
/// independent, so running this per SessionKey-shard equals running it
/// over the whole stream. `carry`, when non-null, is read and updated in
/// place (window-boundary continuation); null keeps the state local to
/// this call. `late`, when non-null, counts the records whose second is
/// earlier than their session's carried one (CleaningReport::late_records).
std::size_t fix_second_granularity(std::vector<SeqRecord>& records,
                                   Duration step,
                                   SecondCarry* carry = nullptr,
                                   std::size_t* late = nullptr);

/// The full §4 pipeline over one shard (or the whole stream): route-server
/// repair, unallocated filtering, then second-granularity timestamp repair
/// (which sorts `records` by (time, seq) around the adjustment; with
/// `fix_second_granularity` off the input order is preserved). `carry`
/// threads the per-session second-granularity state across windowed calls.
CleaningReport run(std::vector<SeqRecord>& records,
                   const CleaningOptions& options,
                   SecondCarry* carry = nullptr);

}  // namespace cleaning
}  // namespace bgpcc::core
