#include "core/anomaly.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "netbase/error.h"

namespace bgpcc::core {
namespace {

std::int64_t novelty_bucket_index(Timestamp time, Duration window) {
  std::int64_t width = window.count_micros();
  std::int64_t micros = time.unix_micros();
  std::int64_t index = micros / width;
  // Floor division: pre-epoch timestamps must not fold onto epoch buckets.
  if (micros % width != 0 && micros < 0) --index;
  return index;
}

}  // namespace

void accumulate_novelty(const UpdateRecord& record, Duration novelty_window,
                        NoveltyEvidence& evidence) {
  if (novelty_window.count_micros() <= 0) {
    throw ConfigError("AnomalyOptions::novelty_window must be positive");
  }
  if (!record.announcement) return;
  std::int64_t index = novelty_bucket_index(record.time, novelty_window);
  for (Community c : record.attrs.communities) {
    auto [it, fresh] = evidence[c].try_emplace(
        index, NoveltyBucket{0, record.time});
    ++it->second.count;
    if (record.time < it->second.earliest) it->second.earliest = record.time;
  }
}

void merge_novelty(NoveltyEvidence& into, NoveltyEvidence&& from) {
  for (auto& [community, buckets] : from) {
    auto [cit, fresh] = into.try_emplace(community, std::move(buckets));
    if (fresh) continue;
    for (auto& [index, bucket] : buckets) {
      auto [bit, inserted] = cit->second.try_emplace(index, bucket);
      if (!inserted) {
        bit->second.count += bucket.count;
        if (bucket.earliest < bit->second.earliest) {
          bit->second.earliest = bucket.earliest;
        }
      }
    }
  }
}

std::vector<NoveltyBurst> finalize_novelty_bursts(
    const NoveltyEvidence& evidence, const AnomalyOptions& options) {
  std::vector<NoveltyBurst> bursts;
  for (const auto& [community, buckets] : evidence) {
    NoveltyBurst best{community, Timestamp{}, 0};
    bool have_best = false;
    std::int64_t previous_index = 0;
    bool have_previous = false;
    for (auto it = buckets.begin(); it != buckets.end(); ++it) {
      bool episode_start =
          !have_previous || it->first != previous_index + 1;
      previous_index = it->first;
      have_previous = true;
      if (!episode_start) continue;
      std::uint64_t volume = it->second.count;
      auto next = std::next(it);
      if (next != buckets.end() && next->first == it->first + 1) {
        volume += next->second.count;
      }
      // Largest episode wins; the earliest one on ties (iteration is in
      // time order, so the first candidate at a given volume sticks).
      if (!have_best || volume > best.occurrences) {
        best = NoveltyBurst{community, it->second.earliest, volume};
        have_best = true;
      }
    }
    if (have_best && best.occurrences >= options.novelty_min_occurrences) {
      bursts.push_back(best);
    }
  }
  std::sort(bursts.begin(), bursts.end(),
            [](const NoveltyBurst& a, const NoveltyBurst& b) {
              if (a.occurrences != b.occurrences) {
                return a.occurrences > b.occurrences;
              }
              return a.community < b.community;
            });
  return bursts;
}

void score_duplicate_outliers(const SessionLedger& ledger,
                              const AnomalyOptions& options,
                              AnomalyReport& report) {
  std::vector<DuplicateOutlier> sessions;
  double sum = 0.0;
  for (const auto& [key, tally] : ledger) {
    const TypeCounts& counts = tally.counts;
    if (counts.total() < options.min_classified) continue;
    DuplicateOutlier entry;
    entry.session = key;
    entry.nn = counts.count(AnnouncementType::kNn);
    entry.classified = counts.total();
    entry.nn_share = counts.share(AnnouncementType::kNn);
    sessions.push_back(entry);
    sum += entry.nn_share;
  }
  if (sessions.size() == 1) {
    // A population of one: its share IS the population; nothing to
    // deviate from, so it can never be an outlier.
    report.population_mean_nn_share = sessions.front().nn_share;
    report.population_stddev_nn_share = 0.0;
    return;
  }
  if (sessions.size() >= 2) {
    double n = static_cast<double>(sessions.size());
    double mean = sum / n;
    double sumsq = 0.0;
    for (const DuplicateOutlier& s : sessions) {
      sumsq += s.nn_share * s.nn_share;
    }
    report.population_mean_nn_share = mean;
    report.population_stddev_nn_share =
        std::sqrt(std::max(0.0, sumsq / n - mean * mean));
    // Leave-one-out z-score: a single extreme session must not inflate
    // the baseline it is scored against (with inclusive statistics one
    // outlier among n is capped at sqrt(n-1) sigma).
    for (DuplicateOutlier& s : sessions) {
      double loo_mean = (sum - s.nn_share) / (n - 1);
      double loo_var = std::max(
          0.0, (sumsq - s.nn_share * s.nn_share) / (n - 1) -
                   loo_mean * loo_mean);
      double loo_stddev = std::sqrt(loo_var);
      if (loo_stddev > 0.0) {
        s.sigma = (s.nn_share - loo_mean) / loo_stddev;
      } else {
        // A perfectly uniform remainder: any exceedance is infinitely
        // surprising; report a large finite sigma.
        s.sigma = s.nn_share > loo_mean + 1e-9 ? 1e6 : 0.0;
      }
      if (s.sigma >= options.sigma_threshold) {
        report.duplicate_outliers.push_back(s);
      }
    }
    std::sort(report.duplicate_outliers.begin(),
              report.duplicate_outliers.end(),
              [](const DuplicateOutlier& a, const DuplicateOutlier& b) {
                if (a.sigma != b.sigma) return a.sigma > b.sigma;
                return a.session < b.session;
              });
  }
}

}  // namespace bgpcc::core
