// The Pass concept: one analysis over the cleaned update stream,
// expressed as per-shard state so it can run anywhere the stream flows —
// inline on the ingestion engine's shard threads (zero extra traversal)
// or over an already-materialized UpdateStream. A pass supplies:
//
//   State make_state() const       — one state per shard
//   State::observe(record)         — folds one cleaned record in, OR
//   State::observe(record, event)  — the same, plus its §5 StreamEvent
//   State::merge(State&&)          — associative combination of partial
//                                    states (any grouping, any order)
//   State::report() const          — projects the merged state into the
//                                    pass's result type, OR
//   State::report(ledger) const    — the same, plus the §5 SessionLedger
//
// The contract that makes every execution mode equivalent: a state's
// final merged value must depend only on (a) the multiset of records
// observed and (b) the relative order of records WITHIN each BGP
// session — never on cross-session interleaving. The engine guarantees
// each session lands wholly inside one shard and that per-session order
// equals final stream order, so any pass honoring the contract reports
// identically for 1 thread, N threads, any window size, inline or
// materialized —
// analytics_test asserts exactly that for every shipped pass.
//
// The §5 rule (compare each announcement with the previous one on its
// (session, prefix) stream) runs once per record, in the driver's stream
// table — one core::Classifier per shard slot. A State that declares
// observe(record, event) receives the table's core::StreamEvent (type, nn
// run length, withdrawal since the last announcement, the replaced
// community set) and keeps no cursor for every stream; one that
// declares report(const core::SessionLedger&) reads the table's
// per-session tallies and keeps none of its own (it may observe nothing).
// The driver reads the shape at add() and builds tables only when some
// State takes the event or the ledger. Reports read the ledger, never
// the cursors: snapshot(), save_state() and load_state() carry the
// ledger alone, checkpoint() and restore() both, once per shard.
//
// Snapshot contract: State must additionally be copy-constructible, and
// the copy must be a faithful, independent deep copy — epoch reporting
// (AnalysisDriver::snapshot) clones every per-shard state and merges the
// clones, so copying must neither share mutable structure with nor
// perturb the original. Value-semantic members (maps, vectors, sets,
// counters) get this for free; keep copies cheap (O(state size), no
// I/O), because a clone runs under the committed-window barrier while
// ingestion waits.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>

#include "analytics/serialize.h"
#include "core/classifier.h"
#include "core/codec.h"
#include "core/stream.h"
#include "netbase/error.h"

namespace bgpcc::analytics {

/// A State that observes records with their §5 stream events, fed from
/// the driver's stream table.
template <typename S>
concept ObservesStreamEvents =
    requires(S& state, const core::UpdateRecord& record,
             const core::StreamEvent& event) {
      state.observe(record, event);
    };

/// A State that reports from the stream table's per-session ledger.
template <typename S>
concept ReadsLedger =
    requires(const S& state, const core::SessionLedger& ledger) {
      state.report(ledger);
    };

/// The compile-time shape of an analysis pass (see the header comment
/// for the semantic contract the types must honor). The State must be
/// copy-constructible: AnalysisDriver::snapshot clones per-shard states
/// to build an epoch report without finalizing — the copy must be a
/// cheap, faithful deep copy (see the snapshot contract above).
template <typename P>
concept Pass = std::move_constructible<P> &&
    std::copy_constructible<typename P::State> &&
    requires(const P& pass, typename P::State& state, typename P::State&& tmp,
             const core::UpdateRecord& record) {
      { pass.make_state() } -> std::same_as<typename P::State>;
      requires requires { state.observe(record); } ||
                   ObservesStreamEvents<typename P::State> ||
                   ReadsLedger<typename P::State>;
      state.merge(std::move(tmp));
      requires ReadsLedger<typename P::State> ||
                   requires { std::as_const(state).report(); };
    };

/// A pass whose State additionally round-trips through the versioned wire
/// codec (analytics/serialize.h): a pinned wire tag plus a field list,
/// `static auto fields(auto& self) { return std::tie(self.a_, ...); }`,
/// naming the State's evidence members once. core::codec::write_value
/// and read_value derive the State's save and load from it. Every
/// shipped pass models this; custom passes may opt in to make their
/// states checkpointable and bgpcc-merge-able.
///
/// Contract: loading fills a freshly minted state (make_state from an
/// identically configured pass) and must leave it exactly as the saved
/// one. Configuration members stay out of the field list — only
/// evidence travels, so the loading side configures the pass itself.
template <typename P>
concept SerializablePass =
    Pass<P> && requires(const typename P::State& cs, typename P::State& s) {
      { P::kStateTag } -> std::convertible_to<std::uint16_t>;
      P::State::fields(cs);
      P::State::fields(s);
    };

namespace detail {

/// Type-erased per-shard state: what the driver fans out, observes into,
/// and tournament-merges back together.
class AnyState {
 public:
  virtual ~AnyState() = default;
  /// `event` is the stream table's verdict (default when no pass reads it).
  virtual void observe(const core::UpdateRecord& record,
                       const core::StreamEvent& event) = 0;
  /// `other` must wrap the same State type (guaranteed by construction:
  /// the driver only merges states minted by one pass slot).
  virtual void merge(AnyState&& other) = 0;
  /// Serializes the state through the wire codec; ConfigError when the
  /// pass does not model SerializablePass.
  virtual void save(ByteWriter& writer) const = 0;
  /// Restores a freshly minted state from the wire codec; ConfigError
  /// when the pass does not model SerializablePass.
  virtual void load(ByteReader& reader) = 0;
  /// Deep-copies the state (the Pass concept requires copy-constructible
  /// States). Epoch reporting clones every per-shard state under the
  /// committed-window barrier and merges the clones, leaving the
  /// originals untouched.
  [[nodiscard]] virtual std::unique_ptr<AnyState> clone() const = 0;
};

/// Type-erased pass: a state factory.
class AnyPass {
 public:
  virtual ~AnyPass() = default;
  [[nodiscard]] virtual std::unique_ptr<AnyState> make_state() const = 0;
  /// The pass's pinned wire tag (serialize::PassTag value); ConfigError
  /// when the pass does not model SerializablePass.
  [[nodiscard]] virtual std::uint16_t state_tag() const = 0;
};

template <Pass P>
class StateModel final : public AnyState {
 public:
  explicit StateModel(typename P::State&& state) : state_(std::move(state)) {}
  void observe(const core::UpdateRecord& record,
               const core::StreamEvent& event) override {
    if constexpr (ObservesStreamEvents<typename P::State>) {
      state_.observe(record, event);
    } else if constexpr (requires { state_.observe(record); }) {
      state_.observe(record);
    }
  }
  void merge(AnyState&& other) override {
    state_.merge(std::move(static_cast<StateModel&>(other).state_));
  }
  void save(ByteWriter& writer) const override {
    if constexpr (SerializablePass<P>) {
      core::codec::write_value(writer, state_);
    } else {
      (void)writer;
      throw ConfigError(
          "AnalysisDriver: this pass's State is not serializable — give it "
          "kStateTag + a fields() list (analytics/pass.h) to checkpoint");
    }
  }
  void load(ByteReader& reader) override {
    if constexpr (SerializablePass<P>) {
      core::codec::read_value(reader, state_);
    } else {
      (void)reader;
      throw ConfigError(
          "AnalysisDriver: this pass's State is not serializable — give it "
          "kStateTag + a fields() list (analytics/pass.h) to restore");
    }
  }
  [[nodiscard]] std::unique_ptr<AnyState> clone() const override {
    return std::make_unique<StateModel>(typename P::State(state_));
  }
  /// Projects the state, handing it the ledger when it reads one.
  [[nodiscard]] auto report(const core::SessionLedger& ledger) const {
    if constexpr (ReadsLedger<typename P::State>) {
      return state_.report(ledger);
    } else {
      return state_.report();
    }
  }

 private:
  typename P::State state_;
};

template <Pass P>
class PassModel final : public AnyPass {
 public:
  explicit PassModel(P pass) : pass_(std::move(pass)) {}
  [[nodiscard]] std::unique_ptr<AnyState> make_state() const override {
    return std::make_unique<StateModel<P>>(pass_.make_state());
  }
  [[nodiscard]] std::uint16_t state_tag() const override {
    if constexpr (SerializablePass<P>) {
      return P::kStateTag;
    } else {
      throw ConfigError(
          "AnalysisDriver: this pass has no wire tag — give it kStateTag "
          "and its State a fields() list (analytics/pass.h) to serialize");
    }
  }

 private:
  P pass_;
};

}  // namespace detail

/// The report type a pass projects to.
template <Pass P>
using ReportOf = decltype(std::declval<const detail::StateModel<P>&>().report(
    std::declval<const core::SessionLedger&>()));

/// Typed ticket returned by AnalysisDriver::add: redeem with
/// AnalysisDriver::report after ingestion, or against any
/// ReportSnapshot taken from the issuing driver. Valid only for the
/// driver that issued it (stamped with the issuer; a foreign handle
/// throws ConfigError instead of reading the wrong pass's state).
template <Pass P>
class PassHandle {
 public:
  /// An empty handle; redeeming it throws ConfigError.
  PassHandle() = default;

 private:
  friend class AnalysisDriver;
  friend class ReportSnapshot;
  PassHandle(std::size_t index, const void* owner)
      : index_(index), owner_(owner) {}
  std::size_t index_ = static_cast<std::size_t>(-1);
  const void* owner_ = nullptr;
};

}  // namespace bgpcc::analytics
