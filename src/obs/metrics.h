// Pipeline-wide metrics: sharded counters, gauges, fixed-bucket
// histograms, RAII stage timers, and Prometheus/JSON exposition.
//
// Design contract (see docs/METRICS.md for the metric inventory):
//  - The hot path never takes a lock and never allocates: Counter::inc
//    is a single relaxed fetch_add on a per-thread stripe, Gauge
//    updates are one relaxed RMW, and Histogram::observe is a handful
//    of relaxed RMWs. Aggregation happens only on read (render).
//  - Timing is opt-in at runtime: StageTimer reads the clock only when
//    obs::set_enabled(true) has been called (the CLI does this when a
//    --metrics sink is attached). With the gate off, a StageTimer is a
//    branch on one relaxed atomic load.
//  - Metrics never feed back into analysis results, so the engine's
//    byte-identical deterministic-output contract is untouched whether
//    the gate is on or off (tests/obs_test.cpp proves this
//    differentially).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bgpcc::obs {

/// Turns stage timing on or off process-wide. Counters and gauges
/// always update (they are a few relaxed atomic operations); only
/// clock reads are gated. The gate starts off, so a run without a
/// metrics sink never reads the clock.
void set_enabled(bool on);

/// Whether stage timing is currently enabled (relaxed load).
[[nodiscard]] bool enabled();

/// Ordered label set attached to one metric series, e.g.
/// `{{"stage", "decode"}}`. Order is preserved in the rendered output.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter, sharded across cache-line-padded
/// stripes so concurrent writers on different threads do not contend.
/// Each thread hashes to a fixed stripe; value() sums the stripes.
class Counter {
 public:
  /// Adds `n` to the calling thread's stripe (relaxed).
  void inc(std::uint64_t n = 1) noexcept;

  /// Sum of all stripes (relaxed loads; exact once writers quiesce,
  /// a consistent-enough snapshot while they run).
  [[nodiscard]] std::uint64_t value() const noexcept;

  /// Zeroes every stripe. Test/reset-epoch helper, not for hot paths.
  void reset() noexcept;

 private:
  static constexpr std::size_t kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

/// Last-write-wins signed gauge (queue occupancy, in-flight work).
/// All operations are single relaxed atomics.
class Gauge {
 public:
  /// Replaces the current value.
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

  /// Adds `n` (may be negative via sub()).
  void add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Subtracts `n`.
  void sub(std::int64_t n = 1) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Current value (relaxed load).
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  /// Resets to zero.
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram of durations in seconds. Bucket upper bounds
/// are set at registration and never change; observe() is a short
/// linear scan plus three relaxed fetch_adds (bucket, count, sum).
/// Counts are stored per-bucket and cumulated only when rendered, so
/// writers never touch more than one bucket.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper bucket edges in seconds; an
  /// implicit +Inf bucket is appended. Values on an edge fall into that
  /// edge's bucket (Prometheus `le` semantics).
  explicit Histogram(std::vector<double> bounds);

  /// Records one observation of `seconds` (relaxed atomics only).
  void observe(double seconds) noexcept;

  /// Upper bucket edges as configured (without the implicit +Inf).
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

  /// Non-cumulative count of observations in bucket `i`
  /// (i in [0, bounds().size()]; the last index is the +Inf bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept;

  /// Total number of observations.
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of all observed values in seconds (accumulated internally in
  /// integer nanoseconds, so sums stay exact across threads).
  [[nodiscard]] double sum() const noexcept;

  /// Zeroes counts and sum. Test/reset-epoch helper.
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Default duration bucket edges: decades from 1µs to 100s. Suits both
/// per-chunk stages (µs–ms) and whole-window wall times (ms–s).
[[nodiscard]] std::vector<double> default_duration_buckets();

/// RAII span that observes its own lifetime into a Histogram. Reads
/// the steady clock only when the histogram is non-null and
/// obs::enabled() is true; otherwise construction and destruction are
/// a branch each.
class StageTimer {
 public:
  /// Starts timing into `hist` (nullptr → inert timer).
  explicit StageTimer(Histogram* hist) noexcept;

  /// Observes the elapsed time unless stop() already did.
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Observes the elapsed time now and disarms the destructor.
  void stop() noexcept;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// A named collection of metric families. One process-wide instance
/// (global()) backs the instrumented pipeline; tests construct private
/// registries for fully controlled render output.
///
/// Registration (counter()/gauge()/histogram()) takes a mutex and
/// returns a reference with a stable address for the registry's
/// lifetime — instrumented code registers once and keeps the pointer,
/// so steady-state updates never touch the registry lock. Re-registering
/// the same (name, labels) pair returns the existing instrument.
class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry used by the instrumented pipeline.
  [[nodiscard]] static Registry& global();

  /// Registers (or finds) a counter series. `help` is recorded on
  /// first registration of the family name.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});

  /// Registers (or finds) a gauge series.
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});

  /// Registers (or finds) a histogram series with the given bucket
  /// edges (see Histogram). Edges must match any prior registration of
  /// the same family.
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, Labels labels = {});

  /// Renders every family in the Prometheus text exposition format
  /// (HELP/TYPE comments, cumulative `_bucket{le=...}` histograms),
  /// families sorted by name, series in registration order.
  void render_prometheus(std::ostream& out) const;

  /// Renders the same data as a single JSON object:
  /// `{"metrics": [{"name", "type", "help", "series": [...]}]}`.
  void render_json(std::ostream& out) const;

  /// Zeroes every instrument (counts, sums, gauge values); the family
  /// and series structure is kept. Test/fresh-run helper.
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Renders the global registry in Prometheus text exposition format.
void render_prometheus(std::ostream& out);

/// Renders the global registry as JSON.
void render_json(std::ostream& out);

/// Writes the global registry to a metrics target: "-" is stdout in the
/// Prometheus text format, a path ending in .json is rewritten whole with
/// the JSON rendering, any other path with the Prometheus text. Returns
/// whether the write succeeded; the stream is checked after rendering.
[[nodiscard]] bool write_metrics(const std::string& target);

}  // namespace bgpcc::obs
