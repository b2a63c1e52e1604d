// Per-AS community-behavior inference (§7 future work, implemented here):
// from collector vantage points only, estimate how each AS handles
// communities — tags its own, cleans everything, or blindly propagates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/stream.h"

namespace bgpcc::core {

enum class CommunityBehavior {
  kTagger,      // adds communities in its own namespace
  kCleaner,     // announcements via this AS carry (almost) no communities
  kPropagator,  // passes foreign communities through unchanged
  kMixed,       // evidence of tagging and cleaning on different sessions
  kUnknown,     // not enough evidence
};

[[nodiscard]] const char* label(CommunityBehavior behavior);

/// Evidence gathered for one AS across all sessions/prefixes.
struct AsEvidence {
  Asn asn;
  /// Announcements in which this AS appeared on the AS path.
  std::uint64_t on_path = 0;
  /// ... of those, how many carried a community in this AS's 16-bit
  /// namespace (asn16 == this AS) -> tagging signal.
  std::uint64_t own_namespace_tagged = 0;
  /// Announcements where this AS was the collector peer (first hop).
  std::uint64_t as_peer = 0;
  /// ... of those, announcements carrying any community at all.
  std::uint64_t as_peer_with_communities = 0;
  /// ... of those, announcements carrying a community from an AS deeper in
  /// the path (foreign) -> propagation signal.
  std::uint64_t as_peer_with_foreign = 0;

  CommunityBehavior classification = CommunityBehavior::kUnknown;

  /// Sums the evidence counters (classification is recomputed by
  /// finalize_community_behavior, not merged) — the associative merge of
  /// shard-parallel tomography.
  AsEvidence& operator+=(const AsEvidence& other);
  friend bool operator==(const AsEvidence&, const AsEvidence&) = default;
  /// The wire form (core/codec.h write_value): the ASN and the five
  /// counters; the classification is recomputed, not carried.
  static auto fields(auto& self) {
    return std::tie(self.asn, self.on_path, self.own_namespace_tagged,
                    self.as_peer, self.as_peer_with_communities,
                    self.as_peer_with_foreign);
  }
  /// Evidence is filed under its ASN, so a map of it writes no keys.
  static Asn key(const AsEvidence& evidence) { return evidence.asn; }
};

/// Inference thresholds (fractions in [0,1]).
struct TomographyOptions {
  /// Minimum announcements to classify at all.
  std::uint64_t min_on_path = 10;
  /// Peer cleans if < this fraction of its announcements carry communities
  /// (the paper's AS20811 removes communities in >99% of cases).
  double cleaner_max_community_fraction = 0.01;
  /// Tagger if >= this fraction of on-path announcements carry a community
  /// in its namespace.
  double tagger_min_fraction = 0.10;
  /// Propagator if >= this fraction of peered announcements carry foreign
  /// communities.
  double propagator_min_fraction = 0.50;
};

/// Folds one announcement's evidence into `evidence` (withdrawals are
/// ignored). The order-independent accumulation kernel of
/// analytics::TomographyPass. Only 16-bit ASNs can be matched to
/// community namespaces; larger ASNs are classified from peer-level
/// evidence alone.
void accumulate_community_evidence(const UpdateRecord& record,
                                   std::map<Asn, AsEvidence>& evidence);

/// Applies the thresholds and sorts by on-path volume, descending — the
/// projection step of analytics::TomographyPass.
[[nodiscard]] std::vector<AsEvidence> finalize_community_behavior(
    std::map<Asn, AsEvidence> evidence, const TomographyOptions& options);

}  // namespace bgpcc::core
