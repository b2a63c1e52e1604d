// The shipped analysis passes: the paper's §5 classifier and per-AS
// tomography ported onto the Pass interface, plus the Table-1/Figure-4
// community-attribute statistics and the duplicate (nn) burst
// attribution the §5 "manual check" calls for. Every pass honors the
// Pass contract (pass.h): state depends only on the record multiset and
// per-session order, so inline-parallel and materialized execution
// report identically. Five rest on the driver's stream table: two take
// its §5 events and four read its per-session ledger.
//
// All nine States also honor the snapshot contract (pass.h): every
// member is value-semantic (std::map / set / unordered_set / vector /
// optional over core evidence structs that are themselves plain value
// containers), so the implicit copy constructor is a faithful deep copy
// with no shared mutable structure, and its cost is linear in the
// evidence size — each State's doc comment below states that bound.
// That is what lets AnalysisDriver::snapshot clone shard states under
// the committed-window barrier without stalling ingestion.
// Values the paper fixes once (histogram size, burst length, usage
// ranges, tomography fractions) are constants, not pass options.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analytics/pass.h"
#include "core/anomaly.h"
#include "core/beacon.h"
#include "core/classifier.h"
#include "core/stream.h"
#include "core/tomography.h"

namespace bgpcc::analytics {

/// §5 announcement-type classification (Table 2, Figure 2): the stream
/// table's per-session ledger, summed.
class ClassifierPass {
 public:
  /// Wire tag (serialize::PassTag::kClassifier).
  static constexpr std::uint16_t kStateTag = 1;

  /// The projected result: global type tallies plus stream count.
  struct Report {
    /// Per-announcement-type tallies (Table 2's rows).
    core::TypeCounts counts;
    /// Distinct (session, prefix) streams seen (counts.first_sightings).
    std::uint64_t streams = 0;
    /// Field-wise equality.
    friend bool operator==(const Report&, const Report&) = default;
  };

  /// Holds no evidence: the ledger is the driver's (see pass.h).
  /// Copy cost (snapshot contract): O(1).
  class State {
   public:
    /// Nothing to fold: the tallies live in the ledger.
    void merge(State&&) {}
    /// Sums the ledger.
    [[nodiscard]] Report report(const core::SessionLedger& ledger) const {
      const core::TypeCounts counts = core::sum_counts(ledger);
      return Report{counts, counts.first_sightings};
    }
    /// The serialized evidence (pass.h, SerializablePass): none.
    static auto fields(auto&) { return std::tie(); }
  };

  /// Mints one empty per-shard state.
  [[nodiscard]] State make_state() const { return {}; }
};

/// Figure 3: the stream table's ledger, ranked by classified announcements
/// descending, then session ascending. For a one-prefix view (the Figure 3
/// beacon), observe only that prefix's records.
class PerSessionTypesPass {
 public:
  /// Wire tag (serialize::PassTag::kPerSessionTypes).
  static constexpr std::uint16_t kStateTag = 2;

  /// Sessions with their tallies, ranked.
  using Report = std::vector<std::pair<core::SessionKey, core::TypeCounts>>;

  /// Holds no evidence: the ledger is the driver's (see pass.h).
  /// Copy cost (snapshot contract): O(1).
  class State {
   public:
    /// Nothing to fold: the tallies live in the ledger.
    void merge(State&&) {}
    /// Ranks the ledger's sessions.
    [[nodiscard]] Report report(const core::SessionLedger& ledger) const;
    /// The serialized evidence (pass.h, SerializablePass): none.
    static auto fields(auto&) { return std::tie(); }
  };

  /// Mints one per-shard state.
  [[nodiscard]] State make_state() const { return {}; }
};

/// §7 per-AS community-behavior tomography (core/tomography) as a Pass:
/// evidence counters sum across shards; thresholds apply at report().
class TomographyPass {
 public:
  /// Default evidence floor (core::TomographyOptions).
  TomographyPass() = default;
  /// Custom evidence floor.
  explicit TomographyPass(core::TomographyOptions options)
      : options_(options) {}

  /// Wire tag (serialize::PassTag::kTomography).
  static constexpr std::uint16_t kStateTag = 3;

  /// Per-AS behavior evidence, finalized through the thresholds.
  using Report = std::vector<core::AsEvidence>;

  /// Per-shard evidence counters (see pass.h for the contract).
  /// Copy cost (snapshot contract): O(ASes) — one fixed-size evidence
  /// struct per observed AS.
  class State {
   public:
    /// Binds the state to the pass's evidence floor.
    explicit State(const core::TomographyOptions& options)
        : options_(options) {}
    /// Accumulates one record's community evidence.
    void observe(const core::UpdateRecord& record) {
      core::accumulate_community_evidence(record, evidence_);
    }
    /// Sums another shard's evidence counters into this one.
    void merge(State&& other) {
      core::merge_sum(evidence_, std::move(other.evidence_));
    }
    /// Applies the thresholds and projects per-AS behavior labels.
    [[nodiscard]] Report report() const {
      return core::finalize_community_behavior(evidence_, options_);
    }
    /// The serialized evidence (pass.h, SerializablePass). The evidence
    /// floor is configuration: only the counters travel.
    static auto fields(auto& self) { return std::tie(self.evidence_); }

   private:
    core::TomographyOptions options_;
    std::map<Asn, core::AsEvidence> evidence_;
  };

  /// Mints one per-shard state carrying the evidence floor.
  [[nodiscard]] State make_state() const { return State{options_}; }

 private:
  core::TomographyOptions options_;
};

/// Community-attribute statistics (Table 1's community rows, Figure 4's
/// namespace exploration): distinct community values per 16-bit AS
/// namespace and the communities-per-announcement distribution.
class CommunityStatsPass {
 public:
  /// Wire tag (serialize::PassTag::kCommunityStats).
  static constexpr std::uint16_t kStateTag = 4;

  /// Distinct community values attributed to one 16-bit AS namespace.
  struct NamespaceCount {
    /// The namespace: the high 16 bits of the community value.
    std::uint16_t asn16 = 0;
    /// Distinct 32-bit community values seen under this namespace.
    std::uint64_t distinct_values = 0;
    /// Field-wise equality.
    friend bool operator==(const NamespaceCount&,
                           const NamespaceCount&) = default;
  };

  /// The projected community-attribute statistics.
  struct Report {
    /// Announcements observed.
    std::uint64_t announcements = 0;
    /// Withdrawals observed.
    std::uint64_t withdrawals = 0;
    /// Announcements carrying at least one community.
    std::uint64_t with_communities = 0;
    /// Sum of community-attribute sizes over all announcements.
    std::uint64_t community_occurrences = 0;
    /// Distinct 32-bit community values seen.
    std::uint64_t unique_communities = 0;
    /// Distinct values per namespace, sorted by count desc, asn16 asc.
    std::vector<NamespaceCount> namespaces;
    /// histogram[k] = announcements carrying exactly k communities
    /// (last bucket: >= 16).
    std::vector<std::uint64_t> communities_per_announcement;
    /// Mean communities per announcement (0 when no announcements).
    [[nodiscard]] double mean_communities() const {
      return announcements == 0
                 ? 0.0
                 : static_cast<double>(community_occurrences) /
                       static_cast<double>(announcements);
    }
    /// Share of announcements carrying at least one community.
    [[nodiscard]] double share_with_communities() const {
      return announcements == 0
                 ? 0.0
                 : static_cast<double>(with_communities) /
                       static_cast<double>(announcements);
    }
    /// Field-wise equality.
    friend bool operator==(const Report&, const Report&) = default;
  };

  /// Per-shard value set + histogram (see pass.h for the contract).
  /// Copy cost (snapshot contract): O(distinct community values) plus
  /// the fixed-size histogram.
  class State {
   public:
    /// Accumulates one record's community attribute.
    void observe(const core::UpdateRecord& record);
    /// Unions value sets and sums histograms/counters.
    void merge(State&& other);
    /// Projects the merged statistics.
    [[nodiscard]] Report report() const;
    /// The serialized evidence (pass.h, SerializablePass): the value
    /// set, the histogram and the counters.
    static auto fields(auto& self) {
      return std::tie(self.values_, self.histogram_, self.announcements_,
                      self.withdrawals_, self.with_communities_,
                      self.occurrences_);
    }

   private:
    /// Announcements per community count; announcements carrying
    /// kBuckets-1 or more communities land in the last bucket.
    struct Histogram {
      static constexpr std::size_t kBuckets = 17;
      std::vector<std::uint64_t> buckets =
          std::vector<std::uint64_t>(kBuckets);
      /// u64 bucket count, then the buckets. Any count but kBuckets is a
      /// corrupt file.
      static void write_wire(ByteWriter& w, const Histogram& histogram) {
        core::codec::write_value(w, histogram.buckets);
      }
      static void read_wire(ByteReader& r, Histogram& histogram) {
        if (r.u64() != kBuckets) {
          throw DecodeError("CommunityStatsPass: histogram is not " +
                            std::to_string(kBuckets) + " buckets");
        }
        for (std::uint64_t& bucket : histogram.buckets) bucket = r.u64();
      }
    };
    std::unordered_set<std::uint32_t> values_;
    Histogram histogram_;
    std::uint64_t announcements_ = 0;
    std::uint64_t withdrawals_ = 0;
    std::uint64_t with_communities_ = 0;
    std::uint64_t occurrences_ = 0;
  };

  /// Mints one empty per-shard state.
  [[nodiscard]] State make_state() const { return {}; }
};

/// Duplicate (nn) burst attribution: which sessions emit the paper's
/// attribute-identical duplicates, and in what run lengths — the
/// session-level evidence behind the Figure-2 footnote's mid-2012 burst
/// and Figure 5's cleaned-then-re-announced duplicates.
class DuplicateBurstPass {
 public:
  /// Wire tag (serialize::PassTag::kDuplicateBurst).
  static constexpr std::uint16_t kStateTag = 5;

  /// One session's duplicate evidence.
  struct SessionDuplicates {
    /// The emitting session.
    core::SessionKey session;
    /// Announcements with a predecessor on their stream.
    std::uint64_t classified = 0;
    /// Attribute-identical (nn) announcements.
    std::uint64_t nn = 0;
    /// Runs of >= State::kMinRun consecutive nn announcements.
    std::uint64_t bursts = 0;
    /// Longest consecutive nn run observed.
    std::uint64_t longest_run = 0;
    /// nn announcements as a share of classified ones (0 when none).
    [[nodiscard]] double nn_share() const {
      return classified == 0 ? 0.0
                             : static_cast<double>(nn) /
                                   static_cast<double>(classified);
    }
    /// Field-wise equality.
    friend bool operator==(const SessionDuplicates&,
                           const SessionDuplicates&) = default;
  };

  /// Global totals plus the per-session ranking.
  struct Report {
    /// Announcements with a predecessor on their stream, all sessions.
    std::uint64_t classified = 0;
    /// Attribute-identical (nn) announcements, all sessions.
    std::uint64_t nn = 0;
    /// Bursts (runs of >= State::kMinRun), all sessions.
    std::uint64_t bursts = 0;
    /// Sorted by nn count desc, session asc (total order: stable across
    /// platforms).
    std::vector<SessionDuplicates> sessions;
    /// Field-wise equality.
    friend bool operator==(const Report&, const Report&) = default;
  };

  /// Per-shard burst counts per session; the other tallies are the
  /// ledger's (see pass.h). Copy cost (snapshot contract): O(sessions).
  class State {
   public:
    /// Consecutive attribute-identical (nn) announcements on one
    /// (session, prefix) stream that constitute a burst. Withdrawals do
    /// not break a run (StreamEvent::nn_run: they don't reset comparison
    /// state, and Figure 5's duplicates straddle withdrawal phases).
    static constexpr std::uint64_t kMinRun = 3;
    /// Counts a burst when an nn run reaches kMinRun.
    void observe(const core::UpdateRecord& record,
                 const core::StreamEvent& event) {
      if (event.nn_run == kMinRun) {
        ++bursts_[record.session];
      }
    }
    /// Sums another shard's burst counts into this one.
    void merge(State&& other) {
      core::merge_sum(bursts_, std::move(other.bursts_));
    }
    /// Projects the totals and every typed session's row, ranked.
    [[nodiscard]] Report report(const core::SessionLedger& ledger) const;
    /// The serialized evidence (pass.h, SerializablePass).
    static auto fields(auto& self) { return std::tie(self.bursts_); }

   private:
    std::map<core::SessionKey, std::uint64_t> bursts_;
  };

  /// Mints one empty per-shard state.
  [[nodiscard]] State make_state() const { return {}; }
};

/// §7 anomaly detection (core/anomaly) as a Pass: the bucketed novelty
/// evidence accumulates per shard and merge sums it; report() runs the
/// burst-episode scan and the leave-one-out sigma scoring of the stream
/// table's per-session ledger once. Streaming-windowed by construction — the
/// per-shard state carries across window cuts, so multi-month compressed
/// archives get the same report as a materialized batch.
class AnomalyPass {
 public:
  /// Default detection thresholds (core::AnomalyOptions), validated.
  AnomalyPass() { validate_options(options_); }
  /// Custom thresholds; throws ConfigError on invalid ones (e.g. a
  /// non-positive novelty window).
  explicit AnomalyPass(core::AnomalyOptions options) : options_(options) {
    validate_options(options_);
  }

  /// Wire tag (serialize::PassTag::kAnomaly).
  static constexpr std::uint16_t kStateTag = 6;

  /// Duplicate outliers + novelty bursts (core::AnomalyReport).
  using Report = core::AnomalyReport;

  /// Per-shard novelty evidence (see pass.h for the contract).
  /// Copy cost (snapshot contract): O(novelty buckets).
  class State {
   public:
    /// Binds the state to the pass's detection thresholds.
    explicit State(const core::AnomalyOptions& options) : options_(options) {}
    /// Accumulates one record into the novelty buckets.
    void observe(const core::UpdateRecord& record) {
      core::accumulate_novelty(record, options_.novelty_window, novelty_);
    }
    /// Sums another shard's novelty evidence into this one.
    void merge(State&& other) {
      core::merge_novelty(novelty_, std::move(other.novelty_));
    }
    /// Runs the sigma scoring over the ledger and the burst-episode scan
    /// over the merged novelty evidence.
    [[nodiscard]] Report report(const core::SessionLedger& ledger) const;
    /// The serialized evidence (pass.h, SerializablePass). The novelty
    /// bucket width is configuration and must match across save and load
    /// (bucket indexes are window-relative).
    static auto fields(auto& self) { return std::tie(self.novelty_); }

   private:
    core::AnomalyOptions options_;
    core::NoveltyEvidence novelty_;
  };

  /// Mints one per-shard state carrying the thresholds.
  [[nodiscard]] State make_state() const { return State{options_}; }

 private:
  static void validate_options(const core::AnomalyOptions& options);
  core::AnomalyOptions options_;
};

/// §6 revealed information (Figure 6) as a Pass: per-attribute phase
/// buckets keyed on the full CommunitySet value; buckets OR under merge.
/// The schedule is validated at construction (ConfigError), so a
/// misconfiguration fails on the caller's thread before any ingestion
/// worker runs.
class RevealedPass {
 public:
  /// Default beacon schedule (core::BeaconSchedule), validated.
  RevealedPass() { schedule_.validate(); }
  /// Custom schedule; throws ConfigError when invalid (period == 0, or
  /// window >= period).
  explicit RevealedPass(core::BeaconSchedule schedule) : schedule_(schedule) {
    schedule_.validate();
  }

  /// Wire tag (serialize::PassTag::kRevealed).
  static constexpr std::uint16_t kStateTag = 7;

  /// Figure 6's revealed-information statistic (core::RevealedStats).
  using Report = core::RevealedStats;

  /// Per-shard phase buckets (see pass.h for the contract).
  /// Copy cost (snapshot contract): O(distinct attribute values) — one
  /// phase bitmask per observed CommunitySet value.
  class State {
   public:
    /// Binds the state to the pass's beacon schedule.
    explicit State(const core::BeaconSchedule& schedule)
        : schedule_(schedule) {}
    /// Buckets one record's attribute by its beacon phase.
    void observe(const core::UpdateRecord& record) {
      core::accumulate_revealed(record, schedule_, evidence_);
    }
    /// ORs another shard's phase buckets into this one.
    void merge(State&& other) {
      core::merge_revealed(evidence_, std::move(other.evidence_));
    }
    /// Projects the revealed-information statistics.
    [[nodiscard]] Report report() const {
      return core::finalize_revealed(evidence_);
    }
    /// The serialized evidence (pass.h, SerializablePass). The beacon
    /// schedule is configuration; only the phase buckets travel.
    static auto fields(auto& self) { return std::tie(self.evidence_); }

   private:
    core::BeaconSchedule schedule_;
    core::RevealedEvidence evidence_;
  };

  /// Mints one per-shard state carrying the schedule.
  [[nodiscard]] State make_state() const { return State{schedule_}; }

 private:
  core::BeaconSchedule schedule_;
};

/// §6 community exploration (Figure 4) as a Pass: a run is a streak of
/// stream-table nc events inside a withdraw phase. nn keeps it open; any
/// other event, or leaving the phase, closes it, and the first
/// announcement after a withdrawal opens none. Runs in flight are kept
/// per stream and, like the streams, carry across window cuts. report()
/// closes them and sorts all events by (begin, session, prefix)
/// (core::sort_exploration_events).
class ExplorationPass {
 public:
  /// Default beacon schedule (core::BeaconSchedule), validated.
  ExplorationPass() { schedule_.validate(); }
  /// Custom schedule; throws ConfigError when invalid.
  explicit ExplorationPass(core::BeaconSchedule schedule)
      : schedule_(schedule) {
    schedule_.validate();
  }

  /// Wire tag (serialize::PassTag::kExploration).
  static constexpr std::uint16_t kStateTag = 8;

  /// Exploration events sorted by (begin, session, prefix).
  using Report = std::vector<core::ExplorationEvent>;

  /// Per-shard runs in flight + completed events (see pass.h).
  /// Copy cost (snapshot contract): O(runs in flight + completed events).
  class State {
   public:
    /// Binds the state to the pass's beacon schedule.
    explicit State(const core::BeaconSchedule& schedule)
        : schedule_(schedule) {}
    /// Opens, extends or closes the record's stream's run.
    void observe(const core::UpdateRecord& record,
                 const core::StreamEvent& event);
    /// Folds another shard's runs and events into this one.
    void merge(State&& other);
    /// Closes runs in flight (on copies) and projects the sorted events.
    [[nodiscard]] Report report() const;
    /// The serialized evidence (pass.h, SerializablePass): the runs in
    /// flight and the completed events travel, so a restored state
    /// continues runs mid-flight.
    static auto fields(auto& self) {
      return std::tie(self.runs_, self.events_);
    }

   private:
    /// A run in flight: its event so far and the distinct community
    /// attributes it has seen, the replaced one included.
    struct Run {
      core::ExplorationEvent event;
      std::set<CommunitySet> attributes;
      static auto fields(auto& self) {
        return std::tie(self.event, self.attributes);
      }
      /// A run is filed under its event's stream, so runs_ writes no keys.
      static std::pair<Prefix, core::SessionKey> key(const Run& run) {
        return {run.event.prefix, run.event.session};
      }
    };
    /// A run is reported once it holds at least this many nc.
    static constexpr int kMinNc = 2;
    core::BeaconSchedule schedule_;
    /// Prefix first: lookups mostly miss, and prefixes compare cheaply.
    std::map<std::pair<Prefix, core::SessionKey>, Run> runs_;
    std::vector<core::ExplorationEvent> events_;
  };

  /// Mints one per-shard state carrying the schedule.
  [[nodiscard]] State make_state() const { return State{schedule_}; }

 private:
  core::BeaconSchedule schedule_;
};

/// Per-AS community usage classification (Krenc et al., IMC 2021) as a
/// Pass: layers the usage heuristics over CommunityStatsPass-style
/// per-value evidence — occurrence counts per 32-bit value plus the
/// sessions carrying each 16-bit namespace.
class UsageClassificationPass {
 public:
  /// Default evidence floor (core::UsageOptions).
  UsageClassificationPass() = default;
  /// Custom evidence floor.
  explicit UsageClassificationPass(core::UsageOptions options)
      : options_(options) {}

  /// Wire tag (serialize::PassTag::kUsageClassification).
  static constexpr std::uint16_t kStateTag = 9;

  /// Per-AS usage profiles (core::AsUsage), sorted by namespace.
  using Report = std::vector<core::AsUsage>;

  /// Per-shard usage evidence (see pass.h for the contract).
  /// Copy cost (snapshot contract): O(distinct values + namespaces) —
  /// per-value occurrence counts and per-namespace session sets.
  class State {
   public:
    /// Binds the state to the pass's evidence floor.
    explicit State(const core::UsageOptions& options) : options_(options) {}
    /// Accumulates one record's community usage evidence.
    void observe(const core::UpdateRecord& record) {
      core::accumulate_usage(record, evidence_);
    }
    /// Sums another shard's usage evidence into this one.
    void merge(State&& other) {
      core::merge_usage(evidence_, std::move(other.evidence_));
    }
    /// Applies the heuristics and projects per-AS profiles.
    [[nodiscard]] Report report() const {
      return core::finalize_usage(evidence_, options_);
    }
    /// The serialized evidence (pass.h, SerializablePass). The evidence
    /// floor is configuration; per-value counts and per-namespace
    /// session sets are the serialized evidence.
    static auto fields(auto& self) { return std::tie(self.evidence_); }

   private:
    core::UsageOptions options_;
    core::UsageEvidence evidence_;
  };

  /// Mints one per-shard state carrying the evidence floor.
  [[nodiscard]] State make_state() const { return State{options_}; }

 private:
  core::UsageOptions options_;
};

}  // namespace bgpcc::analytics
