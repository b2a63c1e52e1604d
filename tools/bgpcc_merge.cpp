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
// stdout after the reports. A metrics write that fails exits 1.
//
// Archives may be raw, gzip, or bzip2 MRT (detected by magic bytes).
// Both commands register the standard pass set (analytics/standard.h),
// so the wire tag lists always line up, and `merge` prints its
// canonical report text: the same sections stream_report prints.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "analytics/serialize.h"
#include "analytics/standard.h"
#include "core/ingest.h"
#include "netbase/error.h"
#include "obs/metrics.h"

using namespace bgpcc;

namespace {

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

int cmd_ingest(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage_error();
  const std::string& out_path = args[0];

  analytics::AnalysisDriver driver;
  static_cast<void>(analytics::StandardPasses::add(driver));
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
  const analytics::StandardPasses standard =
      analytics::StandardPasses::add(driver);
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
  std::fputs(standard.collect(driver).render().c_str(), stdout);
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
    if (!metrics_target.empty()) {
      if (metrics_target == "-") std::printf("\n");
      if (!obs::write_metrics(metrics_target)) {
        std::fprintf(stderr, "bgpcc-merge: cannot write metrics to '%s'\n",
                     metrics_target.c_str());
        return rc != 0 ? rc : 1;
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpcc-merge: %s\n", e.what());
    return 1;
  }
}
