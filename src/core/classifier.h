// The paper's §5 announcement-type classifier.
//
// Consecutive announcements on the same (session, prefix) stream are
// compared: did the AS path change, was the change prepending-only, did the
// community attribute change? Six types result:
//
//   pc  path + community changed        xc  prepending-only + community
//   pn  path changed only               xn  prepending-only
//   nc  community changed only          nn  neither changed ("duplicate")
//
// Withdrawals do not reset the per-stream comparison state (Figure 4's
// post-withdrawal phases open with a pc against the pre-withdrawal state).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/stream.h"

namespace bgpcc::core {

enum class AnnouncementType : std::uint8_t {
  kPc = 0,  // path + community change
  kPn = 1,  // path change only
  kNc = 2,  // community change only
  kNn = 3,  // no change
  kXc = 4,  // prepending-only path change + community change
  kXn = 5,  // prepending-only path change
};

inline constexpr std::array<AnnouncementType, 6> kAllAnnouncementTypes = {
    AnnouncementType::kPc, AnnouncementType::kPn, AnnouncementType::kNc,
    AnnouncementType::kNn, AnnouncementType::kXc, AnnouncementType::kXn};

/// Two-letter label as used in the paper ("pc", "nn", ...).
[[nodiscard]] const char* label(AnnouncementType type);

/// The §5 verdict on one record (Classifier::advance): what the driver's
/// stream table hands to the passes that read it.
struct StreamEvent {
  /// nullopt for withdrawals and first sightings.
  std::optional<AnnouncementType> type;
  bool withdrawal = false;
  /// Consecutive nn announcements on the stream ending with this one (0
  /// unless nn); withdrawals neither extend nor break a run.
  std::uint64_t nn_run = 0;
  /// Typed announcements: a withdrawal arrived on the stream since its
  /// previous announcement (§6 exploration runs restart there).
  bool after_withdrawal = false;
  /// Announcements whose communities changed: the set they replaced
  /// (empty for a first sighting), nullptr otherwise. Points into the
  /// Classifier and stays valid until its next advance().
  const CommunitySet* replaced_communities = nullptr;
};

/// Per-type tallies plus the bookkeeping categories the shares exclude.
struct TypeCounts {
  std::array<std::uint64_t, 6> counts{};
  /// First announcement ever seen on a stream: no predecessor, untyped.
  std::uint64_t first_sightings = 0;
  std::uint64_t withdrawals = 0;
  /// nn announcements whose MED differs from the predecessor (the paper
  /// acknowledges MED changes as a cause of nn; tracked for the "manual
  /// check" step).
  std::uint64_t nn_with_med_change = 0;

  void add(AnnouncementType type) {
    ++counts[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] std::uint64_t count(AnnouncementType type) const {
    return counts[static_cast<std::size_t>(type)];
  }
  /// Total classified announcements (denominator of the shares).
  [[nodiscard]] std::uint64_t total() const;
  /// Share of a type among classified announcements, in [0,1].
  [[nodiscard]] double share(AnnouncementType type) const;

  TypeCounts& operator+=(const TypeCounts& other);
  friend bool operator==(const TypeCounts&, const TypeCounts&) = default;
  /// The wire form (core/codec.h write_value): every member, in order.
  static auto fields(auto& self) {
    return std::tie(self.counts, self.first_sightings, self.withdrawals,
                    self.nn_with_med_change);
  }
};

/// One session's §5 tallies: its TypeCounts plus the longest run of
/// consecutive nn announcements on any of its streams.
struct SessionTally {
  TypeCounts counts;
  std::uint64_t longest_nn_run = 0;

  /// Sums the counts and keeps the longer run.
  SessionTally& operator+=(const SessionTally& other);
  friend bool operator==(const SessionTally&, const SessionTally&) = default;
  /// The wire form (core/codec.h write_value): counts, then the run.
  static auto fields(auto& self) {
    return std::tie(self.counts, self.longest_nn_run);
  }
};

/// Per-session tallies of one stream table: the evidence Table 2, Figure 3,
/// the §6 duplicate bursts and the §7 duplicate outliers report from.
using SessionLedger = std::map<SessionKey, SessionTally>;

/// The tallies of every session in `ledger`, summed.
[[nodiscard]] TypeCounts sum_counts(const SessionLedger& ledger);

/// Folds map `from` into `into`: values of keys `into` lacks move over,
/// values of shared keys add (+=). One lookup per key of `from`.
template <class Map>
void merge_sum(Map& into, Map&& from) {
  for (auto& [key, value] : from) {
    auto [it, inserted] = into.try_emplace(key, std::move(value));
    if (!inserted) it->second += value;
  }
}

/// Streaming classifier; feed records in chronological order per session.
/// analytics::AnalysisDriver keeps one per shard: the stream table.
class Classifier {
 public:
  /// The per-stream comparison cursor: the attributes of the last
  /// announcement seen on one (session, prefix) stream. Public so the
  /// checkpoint codec (analytics/serialize.h) can persist a classifier
  /// mid-stream and resume with byte-identical classifications.
  struct StreamState {
    AsPath as_path;
    CommunitySet communities;
    std::optional<std::uint32_t> med;
    /// Consecutive nn announcements ending with the last one.
    std::uint64_t nn_run = 0;
    /// A withdrawal arrived after the last announcement.
    bool withdrawn = false;
    /// The wire form of a stream table entry (core/codec.h write_value).
    static auto fields(auto& self) {
      return std::tie(self.as_path, self.communities, self.med, self.nn_run,
                      self.withdrawn);
    }
  };
  /// Stream cursors keyed by (session, prefix).
  using StreamStates = std::map<std::pair<SessionKey, Prefix>, StreamState>;

  /// Classifies an announcement against the stream's previous one and
  /// tallies the event in its session's ledger entry; withdrawals are
  /// tallied and mark the stream's cursor withdrawn, its attributes
  /// untouched.
  StreamEvent advance(const UpdateRecord& record);

  /// advance() for plain loops: the type alone, nullopt for withdrawals
  /// and first sightings.
  std::optional<AnnouncementType> classify(const UpdateRecord& record) {
    return advance(record).type;
  }

  /// The tallies of every session, summed.
  [[nodiscard]] TypeCounts counts() const { return sum_counts(ledger_); }

  /// The per-session tallies.
  [[nodiscard]] const SessionLedger& ledger() const { return ledger_; }

  /// The live per-stream comparison cursors (checkpoint serialization).
  [[nodiscard]] const StreamStates& stream_states() const { return last_; }

  /// Replaces the per-stream comparison cursors and the ledger — the
  /// checkpoint/restore hook for the driver's stream table. The restored
  /// classifier classifies and tallies exactly as the saved one would.
  void restore(StreamStates streams, SessionLedger ledger);

  /// Folds the ledger of a disjoint run into this one (load_state).
  void absorb(SessionLedger&& ledger) {
    merge_sum(ledger_, std::move(ledger));
  }

 private:
  StreamStates last_;
  SessionLedger ledger_;
  /// The set the last community change replaced (the event points here).
  CommunitySet replaced_;
};

// ---------------------------------------------------------------------------
// Per-AS community usage classification, following Krenc et al.,
// "AS-Level BGP Community Usage Classification" (IMC 2021): each 16-bit
// community namespace is profiled from the values its owner AS mints and
// how widely sessions carry them. Split into a per-value heuristic plus
// accumulate/merge/finalize evidence kernels so the classification can
// run shard-parallel (analytics::UsageClassificationPass).

/// What a single community value appears to encode.
enum class CommunityUsage : std::uint8_t {
  kLocation = 0,        // ingress/geo tagging (the paper's 3356:2xxx)
  kTrafficEngineering,  // action codes: prepending, scoped export, pref
  kBlackhole,           // RTBH triggers (RFC 7999 and the asn:666 custom)
  kInformational,       // origin/relation markers and everything else
};

inline constexpr std::array<CommunityUsage, 4> kAllCommunityUsages = {
    CommunityUsage::kLocation, CommunityUsage::kTrafficEngineering,
    CommunityUsage::kBlackhole, CommunityUsage::kInformational};

/// A whole namespace's dominant usage (kMixed when no single category
/// dominates, kUnclassified below the evidence floor).
enum class UsageProfile : std::uint8_t {
  kLocation = 0,
  kTrafficEngineering,
  kBlackhole,
  kInformational,
  kMixed,
  kUnclassified,
};

[[nodiscard]] const char* label(CommunityUsage usage);
[[nodiscard]] const char* label(UsageProfile profile);

/// The evidence floor of finalize_usage; its value ranges and dominance
/// share are fixed.
struct UsageOptions {
  /// Namespaces with fewer total occurrences stay kUnclassified.
  std::uint64_t min_occurrences = 10;
};

/// Classifies one community value by the 16-bit-namespace heuristics,
/// the operator conventions Krenc et al. catalogue: 666 is blackhole,
/// values below 100 are traffic-engineering action codes, 500-999
/// (country) and 2000-3999 (city/ingress) are location, the rest
/// informational. Well-known values (0xFFFF namespace) are kBlackhole
/// for RFC 7999 BLACKHOLE and kInformational otherwise.
[[nodiscard]] CommunityUsage classify_community_usage(Community community);

/// Mergeable evidence: per-value occurrence counts plus the sessions
/// observed carrying each namespace. Counts sum and session sets unite
/// under merge, so shard-partial evidence combines associatively to the
/// whole-stream evidence (sessions never span shards, so set sizes add).
struct UsageEvidence {
  std::map<std::uint32_t, std::uint64_t> value_occurrences;
  std::map<std::uint16_t, std::set<SessionKey>> namespace_sessions;
  /// The wire form (core/codec.h write_value): both maps, in order.
  static auto fields(auto& self) {
    return std::tie(self.value_occurrences, self.namespace_sessions);
  }
};

/// Folds one announcement's community occurrences into `evidence`
/// (withdrawals are ignored).
void accumulate_usage(const UpdateRecord& record, UsageEvidence& evidence);

void merge_usage(UsageEvidence& into, UsageEvidence&& from);

/// One namespace's usage profile.
struct AsUsage {
  std::uint16_t asn16 = 0;
  std::uint64_t occurrences = 0;
  std::uint64_t distinct_values = 0;
  /// Distinct sessions observed carrying a value of this namespace.
  std::uint64_t sessions = 0;
  /// Occurrences / distinct values per CommunityUsage category.
  std::array<std::uint64_t, 4> usage_occurrences{};
  std::array<std::uint64_t, 4> usage_values{};
  UsageProfile profile = UsageProfile::kUnclassified;
  friend bool operator==(const AsUsage&, const AsUsage&) = default;
};

/// Applies the per-value heuristics and the dominance rule (a namespace
/// takes its top category's label when that category holds at least 60%
/// of its occurrences, else kMixed), sorted by occurrences descending
/// then asn16 ascending.
[[nodiscard]] std::vector<AsUsage> finalize_usage(
    const UsageEvidence& evidence, const UsageOptions& options);

}  // namespace bgpcc::core
