// bgpcc-merge: split-run fan-in for the analysis passes.
//
// A year-scale multi-collector study does not have to run in one
// process: ingest each collector (or each month) separately with
// `ingest`, ship the resulting partial-state files anywhere, and fan
// them in with `merge` — the associative Pass::merge contract
// guarantees the combined reports are byte-identical to a monolithic
// run over the concatenated input. merge_tool_test asserts exactly
// that, end to end, against this binary's stdout.
//
//   bgpcc-merge [--metrics <path|->] ingest <out.state>
//       <collector>=<archive> [...]
//   bgpcc-merge [--metrics <path|->] merge [--save <out.state>]
//       <state-file> [...]
//   bgpcc-merge tags <state-file>
//
// --metrics enables the obs stage-timing layer and dumps the pipeline
// metric registry after the command finishes: Prometheus text format,
// or JSON when the path ends in .json; "-" writes Prometheus text to
// stdout after the reports.
//
// Archives may be raw, gzip, or bzip2 MRT (detected by magic bytes).
// Every shipped pass runs with its default configuration; `merge`
// rebuilds the same pass set, so the wire tag lists always line up.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "analytics/serialize.h"
#include "core/ingest.h"
#include "core/tables.h"
#include "netbase/error.h"
#include "obs/metrics.h"

using namespace bgpcc;

namespace {

// The standard pass set, in wire-tag order. `ingest` and `merge` must
// register the identical set: the codec verifies the tag list and
// rejects a mismatched driver with ConfigError.
struct StandardPasses {
  analytics::PassHandle<analytics::ClassifierPass> classifier;
  analytics::PassHandle<analytics::PerSessionTypesPass> per_session;
  analytics::PassHandle<analytics::TomographyPass> tomography;
  analytics::PassHandle<analytics::CommunityStatsPass> community_stats;
  analytics::PassHandle<analytics::DuplicateBurstPass> duplicate_burst;
  analytics::PassHandle<analytics::AnomalyPass> anomaly;
  analytics::PassHandle<analytics::RevealedPass> revealed;
  analytics::PassHandle<analytics::ExplorationPass> exploration;
  analytics::PassHandle<analytics::UsageClassificationPass> usage;
};

StandardPasses register_standard_passes(analytics::AnalysisDriver& driver) {
  StandardPasses handles;
  handles.classifier = driver.add(analytics::ClassifierPass{});
  handles.per_session = driver.add(analytics::PerSessionTypesPass{});
  handles.tomography = driver.add(analytics::TomographyPass{});
  handles.community_stats = driver.add(analytics::CommunityStatsPass{});
  handles.duplicate_burst = driver.add(analytics::DuplicateBurstPass{});
  handles.anomaly = driver.add(analytics::AnomalyPass{});
  handles.revealed = driver.add(analytics::RevealedPass{});
  handles.exploration = driver.add(analytics::ExplorationPass{});
  handles.usage = driver.add(analytics::UsageClassificationPass{});
  return handles;
}

// Deterministic text projection of every report: what merge_tool_test
// byte-compares between split and monolithic runs. Long rankings are
// capped, which is safe to compare — both sides rank identically.
constexpr std::size_t kTopN = 10;

void print_reports(analytics::AnalysisDriver& driver,
                   const StandardPasses& handles) {
  auto types = driver.report(handles.classifier);
  std::printf("== announcement types ==\n");
  std::printf("streams: %llu\n",
              static_cast<unsigned long long>(types.streams));
  for (core::AnnouncementType t : core::kAllAnnouncementTypes) {
    std::printf("%s: %llu (%s)\n", core::label(t),
                static_cast<unsigned long long>(types.counts.count(t)),
                core::percent(types.counts.share(t)).c_str());
  }
  std::printf("withdrawals: %llu  first sightings: %llu  nn w/ MED: %llu\n",
              static_cast<unsigned long long>(types.counts.withdrawals),
              static_cast<unsigned long long>(types.counts.first_sightings),
              static_cast<unsigned long long>(types.counts.nn_with_med_change));

  auto sessions = driver.report(handles.per_session);
  std::printf("\n== per-session types (top %zu of %zu) ==\n", kTopN,
              sessions.size());
  for (std::size_t i = 0; i < sessions.size() && i < kTopN; ++i) {
    std::printf("%s: %llu classified\n",
                sessions[i].first.to_string().c_str(),
                static_cast<unsigned long long>(sessions[i].second.total()));
  }

  auto tomography = driver.report(handles.tomography);
  std::printf("\n== per-AS tomography (top %zu of %zu) ==\n", kTopN,
              tomography.size());
  for (std::size_t i = 0; i < tomography.size() && i < kTopN; ++i) {
    const core::AsEvidence& e = tomography[i];
    std::printf("AS%u: %s (on path %llu, tagged %llu, peer %llu)\n",
                e.asn.value(), core::label(e.classification),
                static_cast<unsigned long long>(e.on_path),
                static_cast<unsigned long long>(e.own_namespace_tagged),
                static_cast<unsigned long long>(e.as_peer));
  }

  auto stats = driver.report(handles.community_stats);
  std::printf("\n== community statistics ==\n");
  std::printf("announcements: %llu  withdrawals: %llu\n",
              static_cast<unsigned long long>(stats.announcements),
              static_cast<unsigned long long>(stats.withdrawals));
  std::printf("with communities: %llu (%s)  unique values: %llu  mean "
              "size: %.3f\n",
              static_cast<unsigned long long>(stats.with_communities),
              core::percent(stats.share_with_communities()).c_str(),
              static_cast<unsigned long long>(stats.unique_communities),
              stats.mean_communities());
  for (std::size_t i = 0; i < stats.namespaces.size() && i < kTopN; ++i) {
    std::printf("namespace %u: %llu distinct values\n",
                stats.namespaces[i].asn16,
                static_cast<unsigned long long>(
                    stats.namespaces[i].distinct_values));
  }

  auto bursts = driver.report(handles.duplicate_burst);
  std::printf("\n== duplicate bursts ==\n");
  std::printf("classified: %llu  nn: %llu  bursts: %llu\n",
              static_cast<unsigned long long>(bursts.classified),
              static_cast<unsigned long long>(bursts.nn),
              static_cast<unsigned long long>(bursts.bursts));
  for (std::size_t i = 0; i < bursts.sessions.size() && i < kTopN; ++i) {
    const auto& s = bursts.sessions[i];
    std::printf("%s: nn %llu/%llu, longest run %llu\n",
                s.session.to_string().c_str(),
                static_cast<unsigned long long>(s.nn),
                static_cast<unsigned long long>(s.classified),
                static_cast<unsigned long long>(s.longest_run));
  }

  auto anomalies = driver.report(handles.anomaly);
  std::printf("\n== anomalies ==\n");
  std::printf("population nn share: mean %.6f stddev %.6f\n",
              anomalies.population_mean_nn_share,
              anomalies.population_stddev_nn_share);
  std::printf("duplicate outliers: %zu\n",
              anomalies.duplicate_outliers.size());
  for (std::size_t i = 0;
       i < anomalies.duplicate_outliers.size() && i < kTopN; ++i) {
    const core::DuplicateOutlier& o = anomalies.duplicate_outliers[i];
    std::printf("%s: nn share %.4f (%.2f sigma)\n",
                o.session.to_string().c_str(), o.nn_share, o.sigma);
  }
  std::printf("novelty bursts: %zu\n", anomalies.novelty_bursts.size());
  for (std::size_t i = 0; i < anomalies.novelty_bursts.size() && i < kTopN;
       ++i) {
    const core::NoveltyBurst& b = anomalies.novelty_bursts[i];
    std::printf("%s: %llu occurrences\n", b.community.to_string().c_str(),
                static_cast<unsigned long long>(b.occurrences));
  }

  auto revealed = driver.report(handles.revealed);
  std::printf("\n== revealed information ==\n");
  std::printf("unique attributes: %llu (withdraw-only %llu, announce-only "
              "%llu, outside-only %llu, ambiguous %llu)\n",
              static_cast<unsigned long long>(revealed.total_unique),
              static_cast<unsigned long long>(revealed.withdrawal_only),
              static_cast<unsigned long long>(revealed.announce_only),
              static_cast<unsigned long long>(revealed.outside_only),
              static_cast<unsigned long long>(revealed.ambiguous));

  auto exploration = driver.report(handles.exploration);
  std::printf("\n== community exploration ==\n");
  std::printf("events: %zu\n", exploration.size());
  for (std::size_t i = 0; i < exploration.size() && i < kTopN; ++i) {
    const core::ExplorationEvent& e = exploration[i];
    std::printf("%s %s: %d nc, %d attributes\n",
                e.session.to_string().c_str(), e.prefix.to_string().c_str(),
                e.nc_count, e.distinct_attributes);
  }

  auto usage = driver.report(handles.usage);
  std::printf("\n== community usage (top %zu of %zu namespaces) ==\n", kTopN,
              usage.size());
  for (std::size_t i = 0; i < usage.size() && i < kTopN; ++i) {
    const core::AsUsage& u = usage[i];
    std::printf("namespace %u: %s (%llu occurrences, %llu values, %llu "
                "sessions)\n",
                u.asn16, core::label(u.profile),
                static_cast<unsigned long long>(u.occurrences),
                static_cast<unsigned long long>(u.distinct_values),
                static_cast<unsigned long long>(u.sessions));
  }
}

int usage_error() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bgpcc-merge [--metrics <path|->] ingest <out.state> "
      "<collector>=<archive> [...]\n"
      "  bgpcc-merge [--metrics <path|->] merge [--save <out.state>] "
      "<state-file> [...]\n"
      "  bgpcc-merge tags <state-file>\n");
  return 2;
}

// Dumps the global metric registry to the --metrics target after the
// command ran: "-" appends Prometheus text to stdout, a .json path
// gets the JSON rendering, any other path the Prometheus text format.
void emit_metrics(const std::string& target) {
  if (target == "-") {
    std::printf("\n");
    obs::render_prometheus(std::cout);
    std::cout.flush();
    return;
  }
  std::ofstream out(target, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bgpcc-merge: cannot write metrics to '%s'\n",
                 target.c_str());
    return;
  }
  const bool json = target.size() > 5 &&
                    target.compare(target.size() - 5, 5, ".json") == 0;
  if (json) {
    obs::render_json(out);
  } else {
    obs::render_prometheus(out);
  }
}

int cmd_ingest(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage_error();
  const std::string& out_path = args[0];

  analytics::AnalysisDriver driver;
  StandardPasses handles = register_standard_passes(driver);
  core::IngestOptions options;
  driver.attach(options);

  core::StreamingIngestor ingestor(options);
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::size_t eq = args[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == args[i].size()) {
      std::fprintf(stderr, "bgpcc-merge: bad input '%s' — expected "
                           "<collector>=<archive>\n",
                   args[i].c_str());
      return 2;
    }
    ingestor.add_file(args[i].substr(0, eq), args[i].substr(eq + 1));
  }
  core::IngestResult result = ingestor.finish();
  // No CleaningOptions are set: the stream is decoded, not §4-cleaned.
  std::fprintf(stderr, "ingested %zu file(s): %zu records (uncleaned)\n",
               result.stats.files, result.stream.size());

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bgpcc-merge: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  driver.save_state(out);
  (void)handles;
  return 0;
}

int cmd_merge(const std::vector<std::string>& args) {
  std::string save_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--save") {
      if (i + 1 == args.size()) return usage_error();
      save_path = args[++i];
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (inputs.empty()) return usage_error();

  analytics::AnalysisDriver driver;
  StandardPasses handles = register_standard_passes(driver);
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "bgpcc-merge: cannot read '%s'\n", path.c_str());
      return 1;
    }
    driver.load_state(in);
  }
  if (!save_path.empty()) {
    std::ofstream out(save_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bgpcc-merge: cannot write '%s'\n",
                   save_path.c_str());
      return 1;
    }
    driver.save_state(out);
  }
  print_reports(driver, handles);
  return 0;
}

int cmd_tags(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage_error();
  std::ifstream in(args[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bgpcc-merge: cannot read '%s'\n", args[0].c_str());
    return 1;
  }
  for (analytics::serialize::PassTag tag :
       analytics::serialize::read_state_tags(in)) {
    std::printf("%u\n", static_cast<unsigned>(tag));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string metrics_target;
  while (args.size() >= 2 && args[0] == "--metrics") {
    metrics_target = args[1];
    args.erase(args.begin(), args.begin() + 2);
  }
  if (!metrics_target.empty()) obs::set_enabled(true);
  if (args.empty()) return usage_error();
  std::string command = args[0];
  args.erase(args.begin());
  try {
    int rc;
    if (command == "ingest") {
      rc = cmd_ingest(args);
    } else if (command == "merge") {
      rc = cmd_merge(args);
    } else if (command == "tags") {
      rc = cmd_tags(args);
    } else {
      return usage_error();
    }
    if (!metrics_target.empty()) emit_metrics(metrics_target);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpcc-merge: %s\n", e.what());
    return 1;
  }
}
