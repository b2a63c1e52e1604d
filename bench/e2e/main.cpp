// bgpcc-e2e: the end-to-end benchmark program.
//
//   bgpcc-e2e gen --corpus day|packed|live --seed N --volume V --out DIR
//       Writes (or keeps, when its manifest still matches) a corpus.
//   bgpcc-e2e reference --dir DIR
//       Writes DIR/reference.json: the one-thread batch reference digests.
//   bgpcc-e2e run --workload W --dir DIR --seconds S --spill-dir D
//       One warm-up iteration, then iterations, each followed by a batch
//       of set-ups, until S seconds have been measured (S = 0: exactly
//       one, no warm-up). Prints one JSON line.
//   bgpcc-e2e trace --workload W --dir DIR --spill-dir D [--untraced N]
//       The traced run (trace.cpp). Prints one JSON line.
//
// run_e2e.py drives these and checks every output; see README.md.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/ingest.h"
#include "e2e.h"
#include "netbase/error.h"

namespace bgpcc::e2e {

void write_reference(const std::filesystem::path& dir) {
  const Corpus corpus = load_corpus(dir);
  core::Registry registry = load_registry(corpus.registry_path);
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  core::IngestOptions options;
  options.num_threads = 1;
  options.cleaning = &cleaning;

  core::IngestResult batch = core::ingest_mrt_files(corpus.files, options);
  StreamHasher batch_hash;
  for (const core::UpdateRecord& record : batch.stream.records()) {
    batch_hash.add(record);
  }
  analytics::AnalysisDriver driver;
  Handles handles = add_passes(driver);
  driver.observe_stream(batch.stream);
  Reports reports = collect_final(driver, handles);

  options.window_records = kWindowRecords;
  core::StreamingIngestor ingestor(options);
  for (const auto& [collector, paths] : corpus.files) {
    for (const std::string& path : paths) ingestor.add_file(collector, path);
  }
  StreamHasher windowed_hash;
  core::IngestResult windowed =
      ingestor.finish([&windowed_hash](core::UpdateRecord&& record) {
        windowed_hash.add(record);
      });

  JsonWriter json;
  json.begin_object();
  json.key("report_digest").value(hex64(report_digest(reports)));
  json.key("batch_stream_digest").value(hex64(batch_hash.value()));
  json.key("windowed_stream_digest").value(hex64(windowed_hash.value()));
  json.key("records").value(std::uint64_t{batch.stats.records});
  json.key("windowed_records").value(std::uint64_t{windowed.stats.records});
  json.key("dropped_unallocated_prefix")
      .value(std::uint64_t{batch.cleaning.dropped_unallocated_prefix});
  json.key("counters");
  write_counters(json, reports);
  json.end_object();

  const std::filesystem::path tmp = dir / "reference.json.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << json.str() << "\n";
    if (!out) throw ConfigError("cannot write " + tmp.string());
  }
  std::filesystem::rename(tmp, dir / "reference.json");
}

}  // namespace bgpcc::e2e

namespace {

using namespace bgpcc;

int usage() {
  std::fprintf(stderr,
               "usage: bgpcc-e2e gen --corpus K --seed N --volume V --out DIR\n"
               "       bgpcc-e2e reference --dir DIR\n"
               "       bgpcc-e2e run --workload W --dir DIR --seconds S "
               "--spill-dir D\n"
               "       bgpcc-e2e trace --workload W --dir DIR --spill-dir D "
               "[--untraced N]\n");
  return 2;
}

std::string need(const std::map<std::string, std::string>& args,
                 const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) throw ConfigError("missing --" + key);
  return it->second;
}

int run(const std::map<std::string, std::string>& args) {
  const e2e::WorkloadSpec& spec = e2e::find_workload(need(args, "workload"));
  const e2e::Corpus corpus = e2e::load_corpus(need(args, "dir"));
  const double seconds = std::stod(need(args, "seconds"));
  const e2e::RunEnv env{need(args, "spill-dir")};
  e2e::JsonWriter json;
  json.begin_object();
  json.key("workload").value(spec.name);
  if (seconds > 0) {
    json.key("warmup");
    e2e::write_iteration(json, e2e::run_iteration(spec, corpus, env));
  }
  // One set-up lasts a few milliseconds: short enough that a host-side
  // slowdown either covers a single sample whole or misses it. So the
  // set-up samples are batch means, taken between the iterations, which
  // spreads them over the whole run like the iterations themselves.
  constexpr int kSetupsPerSample = 8;
  std::vector<double> setup_samples;
  json.key("iterations").begin_array();
  const e2e::Clock::time_point start = e2e::Clock::now();
  do {
    e2e::write_iteration(json, e2e::run_iteration(spec, corpus, env));
    setup_samples.push_back(
        e2e::setup_batch(spec, corpus, env.spill_dir, kSetupsPerSample));
  } while (e2e::seconds_between(start, e2e::Clock::now()) < seconds);
  json.end_array();
  json.key("setup_s").begin_array();
  for (double sample : setup_samples) json.value(sample);
  json.end_array();
  json.key("peak_rss_mb").value(e2e::peak_rss_mb());
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || (argc % 2) != 0) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (command == "gen") {
      e2e::CorpusSpec spec;
      spec.kind = need(args, "corpus");
      spec.seed = std::stoull(need(args, "seed"));
      spec.volume = std::stod(need(args, "volume"));
      bool cached = e2e::generate_corpus(spec, need(args, "out"));
      std::cout << (cached ? "cached " : "generated ") << need(args, "out")
                << std::endl;
      return 0;
    }
    if (command == "reference") {
      e2e::write_reference(need(args, "dir"));
      return 0;
    }
    if (command == "run") return run(args);
    if (command == "trace") {
      const e2e::WorkloadSpec& spec =
          e2e::find_workload(need(args, "workload"));
      int untraced = args.count("untraced") != 0
                         ? std::stoi(args.at("untraced"))
                         : 3;
      std::cout << e2e::run_trace(spec, e2e::load_corpus(need(args, "dir")),
                                  need(args, "spill-dir"), untraced)
                << std::endl;
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpcc-e2e %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
