#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <stdexcept>

namespace bgpcc::obs {

namespace {

std::atomic<bool> g_enabled{false};

// Round-robin stripe assignment: each thread grabs the next stripe id
// once and caches it in a thread_local, so inc() costs one TLS read
// and one relaxed fetch_add.
std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

// Shortest round-trip decimal for a double ("0.001", "1e-06", "+Inf").
std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

// Prometheus label-value escaping: backslash, double quote, newline.
void write_escaped_label(std::ostream& out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        out << "\\\\";
        break;
      case '"':
        out << "\\\"";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        out << c;
    }
  }
}

// Minimal JSON string escaping (the metric names and labels we emit
// are ASCII identifiers, but stay correct for arbitrary input).
void write_json_string(std::ostream& out, std::string_view v) {
  out << '"';
  for (char c : v) {
    switch (c) {
      case '\\':
        out << "\\\\";
        break;
      case '"':
        out << "\\\"";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Counter::inc(std::uint64_t n) noexcept {
  stripes_[stripe_index() % kStripes].v.fetch_add(n,
                                                  std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Stripe& s : stripes_) {
    s.v.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("obs: histogram bounds must be sorted");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double seconds) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && seconds > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  sum_ns_.fetch_add(ns > 0 ? static_cast<std::uint64_t>(ns) : 0,
                    std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const noexcept {
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e9;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

std::vector<double> default_duration_buckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
}

StageTimer::StageTimer(Histogram* hist) noexcept
    : hist_(hist != nullptr && enabled() ? hist : nullptr) {
  if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
}

StageTimer::~StageTimer() { stop(); }

void StageTimer::stop() noexcept {
  if (hist_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  hist_->observe(std::chrono::duration<double>(elapsed).count());
  hist_ = nullptr;
}

namespace {

enum class Kind { kCounter, kGauge, kHistogram };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

struct Series {
  Labels labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Family {
  Kind kind;
  std::string help;
  std::vector<std::unique_ptr<Series>> series;
};

void write_label_set(std::ostream& out, const Labels& labels) {
  if (labels.empty()) return;
  out << '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out << ',';
    first = false;
    out << key << "=\"";
    write_escaped_label(out, value);
    out << '"';
  }
  out << '}';
}

// Label set for a histogram _bucket line: the series labels plus le.
void write_bucket_labels(std::ostream& out, const Labels& labels,
                         const std::string& le) {
  out << '{';
  for (const auto& [key, value] : labels) {
    out << key << "=\"";
    write_escaped_label(out, value);
    out << "\",";
  }
  out << "le=\"" << le << "\"}";
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  // Ordered by name so the rendered output is stable.
  std::map<std::string, Family, std::less<>> families;

  // Finds or creates the series and its instrument under one lock, so
  // a concurrent render never sees a series without an instrument.
  Series& find_or_add(std::string_view name, std::string_view help, Kind kind,
                      Labels&& labels,
                      const std::vector<double>* bounds = nullptr) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = families.find(name);
    if (it == families.end()) {
      it = families
               .emplace(std::string(name), Family{kind, std::string(help), {}})
               .first;
    } else if (it->second.kind != kind) {
      throw std::invalid_argument("obs: metric registered with two types: " +
                                  std::string(name));
    }
    for (const auto& s : it->second.series) {
      if (s->labels == labels) return *s;
    }
    auto& added = it->second.series.emplace_back(std::make_unique<Series>());
    added->labels = std::move(labels);
    switch (kind) {
      case Kind::kCounter:
        added->counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        added->gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        added->histogram = std::make_unique<Histogram>(*bounds);
        break;
    }
    return *added;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  return *impl_->find_or_add(name, help, Kind::kCounter, std::move(labels))
              .counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  return *impl_->find_or_add(name, help, Kind::kGauge, std::move(labels)).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds, Labels labels) {
  return *impl_
              ->find_or_add(name, help, Kind::kHistogram, std::move(labels),
                            &bounds)
              .histogram;
}

void Registry::render_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [name, family] : impl_->families) {
    if (!family.help.empty()) {
      out << "# HELP " << name << ' ' << family.help << '\n';
    }
    out << "# TYPE " << name << ' ' << kind_name(family.kind) << '\n';
    for (const auto& s : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out << name;
          write_label_set(out, s->labels);
          out << ' ' << s->counter->value() << '\n';
          break;
        case Kind::kGauge:
          out << name;
          write_label_set(out, s->labels);
          out << ' ' << s->gauge->value() << '\n';
          break;
        case Kind::kHistogram: {
          const Histogram& h = *s->histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket_count(i);
            out << name << "_bucket";
            write_bucket_labels(out, s->labels, format_double(h.bounds()[i]));
            out << ' ' << cumulative << '\n';
          }
          out << name << "_bucket";
          write_bucket_labels(out, s->labels, "+Inf");
          out << ' ' << h.count() << '\n';
          out << name << "_sum";
          write_label_set(out, s->labels);
          out << ' ' << format_double(h.sum()) << '\n';
          out << name << "_count";
          write_label_set(out, s->labels);
          out << ' ' << h.count() << '\n';
          break;
        }
      }
    }
  }
}

void Registry::render_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  out << "{\"metrics\":[";
  bool first_family = true;
  for (const auto& [name, family] : impl_->families) {
    if (!first_family) out << ',';
    first_family = false;
    out << "{\"name\":";
    write_json_string(out, name);
    out << ",\"type\":\"" << kind_name(family.kind) << "\",\"help\":";
    write_json_string(out, family.help);
    out << ",\"series\":[";
    bool first_series = true;
    for (const auto& s : family.series) {
      if (!first_series) out << ',';
      first_series = false;
      out << "{\"labels\":{";
      bool first_label = true;
      for (const auto& [key, value] : s->labels) {
        if (!first_label) out << ',';
        first_label = false;
        write_json_string(out, key);
        out << ':';
        write_json_string(out, value);
      }
      out << '}';
      switch (family.kind) {
        case Kind::kCounter:
          out << ",\"value\":" << s->counter->value();
          break;
        case Kind::kGauge:
          out << ",\"value\":" << s->gauge->value();
          break;
        case Kind::kHistogram: {
          const Histogram& h = *s->histogram;
          out << ",\"count\":" << h.count()
              << ",\"sum\":" << format_double(h.sum()) << ",\"buckets\":[";
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket_count(i);
            if (i != 0) out << ',';
            out << "{\"le\":" << format_double(h.bounds()[i])
                << ",\"count\":" << cumulative << '}';
          }
          if (!h.bounds().empty()) out << ',';
          out << "{\"le\":\"+Inf\",\"count\":" << h.count() << "}]";
          break;
        }
      }
      out << '}';
    }
    out << "]}";
  }
  out << "]}";
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, family] : impl_->families) {
    for (auto& s : family.series) {
      if (s->counter) s->counter->reset();
      if (s->gauge) s->gauge->reset();
      if (s->histogram) s->histogram->reset();
    }
  }
}

void render_prometheus(std::ostream& out) {
  Registry::global().render_prometheus(out);
}

void render_json(std::ostream& out) { Registry::global().render_json(out); }

bool write_metrics(const std::string& target) {
  if (target == "-") {
    render_prometheus(std::cout);
    return static_cast<bool>(std::cout.flush());
  }
  std::ofstream out(target, std::ios::trunc);
  if (!out) return false;
  if (target.ends_with(".json")) {
    render_json(out);
  } else {
    render_prometheus(out);
  }
  return static_cast<bool>(out.flush());
}

}  // namespace bgpcc::obs
