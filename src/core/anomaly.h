// Anomaly detection (§7): "communities can enrich our understanding of
// anomalous behavior in the routing system ... a first step toward
// predicting anomalous communities."
//
// Two detectors over classified update streams:
//  - duplicate outliers: sessions whose nn share is far above the
//    population (the paper's Figure-2 footnote: an AS bursting updates
//    "for an unknown reason" in mid-2012);
//  - novel community bursts: community values that appear (or re-appear
//    after a quiet gap) and immediately arrive in volume — the
//    community-based anomaly signal of CommunityWatch (Giotsas 2018).
//
// The novelty detector is split into accumulate / merge / finalize
// kernels (mirroring core/tomography) so analytics::AnomalyPass can run
// it per-shard and merge associatively; the duplicate detector scores the
// stream table's ledger (core/classifier.h). Either way the evidence
// depends only on the multiset of records and per-session order.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "core/classifier.h"
#include "core/stream.h"

namespace bgpcc::core {

struct DuplicateOutlier {
  SessionKey session;
  std::uint64_t nn = 0;
  std::uint64_t classified = 0;
  double nn_share = 0.0;
  /// Standard deviations above the leave-one-out population mean nn share.
  double sigma = 0.0;
  friend bool operator==(const DuplicateOutlier&,
                         const DuplicateOutlier&) = default;
};

struct NoveltyBurst {
  Community community;
  /// When the reported burst began: the earliest occurrence in the burst
  /// episode's opening bucket. For a community that never went quiet this
  /// is its first appearance; for a re-emergent burst it is the
  /// re-appearance after the quiet gap.
  Timestamp first_seen;
  /// Occurrences inside the burst window after the episode began (bucket
  /// granular, at most 2x novelty_window — see finalize_novelty_bursts).
  std::uint64_t occurrences = 0;
  friend bool operator==(const NoveltyBurst&, const NoveltyBurst&) = default;
};

struct AnomalyOptions {
  /// Sessions below this many classified announcements are not scored.
  std::uint64_t min_classified = 50;
  /// Flag sessions more than this many standard deviations above the
  /// population mean nn share.
  double sigma_threshold = 3.0;
  /// Width of the novelty bucketing: a community that stays quiet for a
  /// full bucket has its burst window restarted at the next sighting, and
  /// occurrences count toward a burst while within ~one window of the
  /// (re-)emergence. Must be positive (ConfigError otherwise).
  Duration novelty_window = Duration::hours(1);
  /// Minimum in-window occurrences to call a novelty a burst.
  std::uint64_t novelty_min_occurrences = 100;
};

struct AnomalyReport {
  std::vector<DuplicateOutlier> duplicate_outliers;  // worst first
  std::vector<NoveltyBurst> novelty_bursts;          // biggest first
  double population_mean_nn_share = 0.0;
  double population_stddev_nn_share = 0.0;
  friend bool operator==(const AnomalyReport&, const AnomalyReport&) = default;
};

// ---------------------------------------------------------------------------
// Novelty kernel.

/// One novelty_window-wide time bucket of one community's occurrences.
struct NoveltyBucket {
  std::uint64_t count = 0;
  /// Earliest occurrence observed in the bucket.
  Timestamp earliest;
  friend bool operator==(const NoveltyBucket&, const NoveltyBucket&) = default;
  /// The wire form (core/codec.h write_value): count, then earliest.
  static auto fields(auto& self) { return std::tie(self.count, self.earliest); }
};

/// Per-community occurrence histogram over novelty_window-aligned time
/// buckets (bucket index = floor(unix_micros / window)). A pure multiset
/// summary: counts sum and earliest-timestamps min under merge, so
/// shard-partial evidence combines associatively to exactly the
/// whole-stream evidence — the property the old streaming detector
/// lacked (it pinned first_seen forever and silently dropped every
/// occurrence outside the initial window, so re-emergent bursts were
/// never flagged).
using NoveltyEvidence =
    std::map<Community, std::map<std::int64_t, NoveltyBucket>>;

/// Folds one record's community occurrences into `evidence` (withdrawals
/// are ignored). `novelty_window` fixes the bucket width and must be
/// positive (ConfigError) and identical across every accumulate/merge
/// feeding one finalize.
void accumulate_novelty(const UpdateRecord& record, Duration novelty_window,
                        NoveltyEvidence& evidence);

/// Sums counts and mins earliest-timestamps bucket by bucket.
void merge_novelty(NoveltyEvidence& into, NoveltyEvidence&& from);

/// Scans each community's bucket histogram for burst episodes. An episode
/// starts at a bucket with no occupied predecessor bucket (the community
/// was quiet for at least novelty_window before it — re-emergences start
/// new episodes). Its burst volume is the occurrence count of the opening
/// bucket plus the immediately following bucket: a window of at most
/// 2x novelty_window after the (re-)emergence that upper-bounds the exact
/// [first, first+window] count, so no burst the exact detector would flag
/// is missed. The largest episode per community (earliest on ties) is
/// reported when it reaches novelty_min_occurrences. Sorted by
/// occurrences descending, community ascending.
[[nodiscard]] std::vector<NoveltyBurst> finalize_novelty_bursts(
    const NoveltyEvidence& evidence, const AnomalyOptions& options);

// ---------------------------------------------------------------------------
// Duplicate-outlier kernel.

/// Applies eligibility (min_classified) and leave-one-out sigma scoring to
/// a stream table's ledger, filling `report`'s population stats and
/// duplicate_outliers (sigma descending, session ascending). Defined
/// small-population behavior: n == 0 eligible sessions reports zero
/// stats and no outliers; n == 1 reports that session's share as the
/// population mean with zero stddev and can never flag it (there is no
/// population to deviate from); n == 2 scores each session against the
/// other alone (a zero-stddev remainder makes any exceedance infinitely
/// surprising, reported as sigma 1e6).
void score_duplicate_outliers(const SessionLedger& ledger,
                              const AnomalyOptions& options,
                              AnomalyReport& report);

}  // namespace bgpcc::core
