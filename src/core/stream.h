// Normalized update streams: the unit of the paper's measurement study.
// Raw collector output (MRT archives) is exploded into
// per-prefix records, grouped by BGP session, then cleaned exactly as
// §4 describes: unallocated-resource filtering, route-server AS-path
// repair, and sub-second ordering for second-granularity collectors.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/message.h"
#include "core/registry.h"

namespace bgpcc::core {

/// Identifies one BGP session at one collector: the stream key of the
/// whole analysis (the paper groups "by the prefix and the BGP session of
/// a peer AS / next-hop").
struct SessionKey {
  std::string collector;
  Asn peer_asn;
  IpAddress peer_address;

  [[nodiscard]] std::string to_string() const;

  /// Stable FNV-1a hash (identical across runs and platforms): the shard
  /// assignment of the parallel ingestion engine, so it must not depend on
  /// std::hash implementation details.
  [[nodiscard]] std::size_t hash() const;

  friend auto operator<=>(const SessionKey&, const SessionKey&) = default;
};

/// Hash functor so SessionKey can key unordered containers.
struct SessionKeyHash {
  std::size_t operator()(const SessionKey& key) const noexcept {
    return key.hash();
  }
};

/// One announcement or withdrawal of one prefix on one session.
struct UpdateRecord {
  Timestamp time;
  SessionKey session;
  Prefix prefix;
  bool announcement = true;  // false: withdrawal
  PathAttributes attrs;      // meaningful only when announcement

  friend auto operator<=>(const UpdateRecord&, const UpdateRecord&) = default;
};

/// A chronologically ordered collection of UpdateRecords. The ingestion
/// engine (core/ingest.h) builds one from MRT archives; add_message
/// explodes single UPDATEs without it.
class UpdateStream {
 public:
  UpdateStream() = default;

  void add(UpdateRecord record) { records_.push_back(std::move(record)); }

  /// Explodes a BGP UPDATE into one record per announced/withdrawn prefix.
  void add_message(const std::string& collector, Asn peer_asn,
                   const IpAddress& peer_address, Timestamp time,
                   const UpdateMessage& update);

  /// Stable time sort (preserves arrival order within equal timestamps —
  /// a guarantee the second-granularity repair depends on).
  void sort_by_time();

  [[nodiscard]] const std::vector<UpdateRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::vector<UpdateRecord>& records() { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::size_t announcement_count() const;
  [[nodiscard]] std::size_t withdrawal_count() const;
  [[nodiscard]] std::set<SessionKey> sessions() const;

 private:
  std::vector<UpdateRecord> records_;
};

/// Explodes one BGP UPDATE into per-prefix records appended to `out`:
/// withdrawals first, then announcements, matching collector emission
/// order. The shared decode kernel of UpdateStream::add_message and the
/// parallel ingestion engine (core/ingest.h).
void append_update_records(const std::string& collector, Asn peer_asn,
                           const IpAddress& peer_address, Timestamp time,
                           const UpdateMessage& update,
                           std::vector<UpdateRecord>& out);

/// Knobs for the §4 cleaning pipeline.
struct CleaningOptions {
  /// When set, drop records whose origin/peer ASN or prefix was not
  /// allocated at message time.
  const Registry* registry = nullptr;
  /// Peers (by address) that are IXP route servers not inserting their own
  /// ASN: their ASN is prepended to the AS path during normalization.
  std::vector<std::pair<IpAddress, Asn>> route_servers;
  /// Repair second-granularity collector timestamps by spacing same-second
  /// records `sub_second_step` apart, preserving order (§4: "assume that
  /// each subsequent message arrives 0.01 ms after the last").
  bool fix_second_granularity = true;
  Duration sub_second_step = Duration::micros(10);
};

struct CleaningReport {
  std::size_t dropped_unallocated_asn = 0;
  std::size_t dropped_unallocated_prefix = 0;
  std::size_t route_server_paths_repaired = 0;
  std::size_t timestamps_adjusted = 0;
  /// Second-granularity records whose second is earlier than the one
  /// carried for their session across a window cut: the carry restarts
  /// at them, so they are not spaced against their predecessors.
  std::size_t late_records = 0;
};

/// Every CleaningReport counter in declaration order: the order of the
/// kIngestCursor cleaning counters and of the obs cleaning_records series.
inline constexpr std::size_t CleaningReport::*kCleaningCounters[] = {
    &CleaningReport::dropped_unallocated_asn,
    &CleaningReport::dropped_unallocated_prefix,
    &CleaningReport::route_server_paths_repaired,
    &CleaningReport::timestamps_adjusted, &CleaningReport::late_records};

/// Applies the cleaning pipeline in place.
CleaningReport clean(UpdateStream& stream, const CleaningOptions& options);

}  // namespace bgpcc::core
