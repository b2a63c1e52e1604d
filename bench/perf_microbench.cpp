// Engineering microbenchmarks (google-benchmark): throughput of the hot
// paths — wire codec, MRT framing, classifier, trie, decision process.
// Not a paper artifact; used to keep the measurement pipeline fast enough
// for full-archive runs.
#include <benchmark/benchmark.h>

#include <array>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "analytics/standard.h"
#include "bgp/codec.h"
#include "core/classifier.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "core/registry.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "obs/metrics.h"
#include "rib/decision.h"
#include "rib/trie.h"

#include "archive_gen.h"

namespace bgpcc {
namespace {

UpdateMessage sample_update(int communities) {
  UpdateMessage update;
  update.announced.push_back(Prefix::from_string("84.205.64.0/24"));
  PathAttributes attrs;
  attrs.as_path = AsPath::sequence({20205, 3356, 174, 12654});
  attrs.next_hop = IpAddress::from_string("192.0.2.1");
  for (int i = 0; i < communities; ++i) {
    attrs.communities.add(
        Community::of(3356, static_cast<std::uint16_t>(2000 + i)));
  }
  update.attrs = std::move(attrs);
  return update;
}

void BM_EncodeUpdate(benchmark::State& state) {
  UpdateMessage update = sample_update(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_update(update));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeUpdate)->Arg(0)->Arg(3)->Arg(10);

void BM_DecodeUpdate(benchmark::State& state) {
  auto wire = encode_update(sample_update(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_update(wire));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeUpdate)->Arg(0)->Arg(3)->Arg(10);

void BM_MrtWriteRead(benchmark::State& state) {
  mrt::Bgp4mpMessage message;
  message.peer_asn = Asn(20205);
  message.local_asn = Asn(65500);
  message.peer_ip = IpAddress::from_string("192.0.2.1");
  message.local_ip = IpAddress::from_string("192.0.2.2");
  message.bgp_message = encode_update(sample_update(3));
  for (auto _ : state) {
    std::stringstream buffer;
    mrt::Writer writer(buffer);
    writer.write_message(Timestamp::from_unix_seconds(1), message);
    mrt::Reader reader(buffer);
    benchmark::DoNotOptimize(reader.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrtWriteRead);

void BM_ClassifyRecord(benchmark::State& state) {
  core::Classifier classifier;
  core::UpdateRecord record;
  record.session = core::SessionKey{"rrc00", Asn(20205),
                                    IpAddress::from_string("192.0.2.1")};
  record.prefix = Prefix::from_string("84.205.64.0/24");
  record.announcement = true;
  record.attrs.as_path = AsPath::sequence({20205, 3356, 174, 12654});
  std::uint16_t tick = 0;
  for (auto _ : state) {
    record.attrs.communities.clear();
    record.attrs.communities.add(Community::of(3356, 2000 + (tick++ % 8)));
    benchmark::DoNotOptimize(classifier.classify(record));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyRecord);

void BM_TrieInsertLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PrefixTrie<int> trie;
    for (int i = 0; i < n; ++i) {
      trie.insert(
          Prefix(IpAddress::v4(0x0a000000u +
                               static_cast<std::uint32_t>(i) * 256),
                 24),
          i);
    }
    benchmark::DoNotOptimize(
        trie.lookup(IpAddress::v4(0x0a000000u +
                                  static_cast<std::uint32_t>(n / 2) * 256)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TrieInsertLookup)->Arg(100)->Arg(1000)->Arg(10000);

// §4 unallocated-prefix lookup against a registry listing the looked-up
// prefixes exactly — the worst case for a covering lookup, which must
// reach the prefix's own length: arg 0 = v4 /24s, arg 1 = v6 /48s.
void BM_RegistryPrefixAllocated(benchmark::State& state) {
  constexpr std::uint32_t kBlocks = 1024;
  const bool v6 = state.range(0) != 0;
  std::vector<Prefix> prefixes;
  core::Registry registry;
  for (std::uint32_t i = 0; i < kBlocks; ++i) {
    std::array<std::uint8_t, 16> bytes{0x20, 0x01, 0x0d, 0xb8,
                                       static_cast<std::uint8_t>(i >> 8),
                                       static_cast<std::uint8_t>(i)};
    prefixes.push_back(
        v6 ? Prefix(IpAddress::v6(bytes), 48)
           : Prefix(IpAddress::v4(0x0a000000u + i * 256), 24));
    registry.allocate_prefix(prefixes.back());
  }
  const Timestamp at = Timestamp::from_unix_seconds(1600000000);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.prefix_allocated(prefixes[next], at));
    next = (next + 1) % kBlocks;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryPrefixAllocated)->Arg(0)->Arg(1);

// One shard-window through the §4 kernels (cleaning::run: registry drop,
// second-granularity spacing and its sorts): 16384 records of the seeded
// test-archive shape, in arrival order (not yet time-sorted), as the
// engine gathers a shard. items/sec = records cleaned.
void BM_CleanShard(benchmark::State& state) {
  constexpr int kRecords = 16384;
  static const std::vector<core::SeqRecord> window = [] {
    std::istringstream in(
        core::archgen::ArchiveGenerator(7).generate(kRecords));
    mrt::Reader reader(in);
    std::vector<core::UpdateRecord> records;
    while (std::optional<mrt::Record> record = reader.next()) {
      bool four_byte = true;
      mrt::Bgp4mpMessage message =
          mrt::Reader::parse_message(*record, &four_byte);
      CodecOptions codec;
      codec.four_byte_asn = four_byte;
      core::append_update_records("bench", message.peer_asn, message.peer_ip,
                                  record->timestamp,
                                  decode_update(message.bgp_message, codec),
                                  records);
    }
    std::vector<core::SeqRecord> out;
    std::uint64_t seq = 0;
    for (core::UpdateRecord& record : records) {
      out.push_back(core::SeqRecord{seq++, std::move(record)});
    }
    return out;
  }();
  const core::Registry registry = core::archgen::allocated_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<core::SeqRecord> records = window;
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::cleaning::run(records, cleaning));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(window.size()));
}
BENCHMARK(BM_CleanShard);

// Ingestion throughput (records/sec) of the chunked parallel engine over
// a synthetic multi-session archive, swept over worker counts: the 1-vs-N
// comparison CI tracks as the seed of the BENCH_*.json trajectory.
std::string synthetic_ingest_archive(int sessions, int updates_per_session) {
  std::ostringstream out;
  mrt::Writer writer(out);
  Timestamp base = Timestamp::from_unix_seconds(1600000000);
  for (int u = 0; u < updates_per_session; ++u) {
    for (int s = 0; s < sessions; ++s) {
      UpdateMessage update = sample_update(/*communities=*/4);
      update.attrs->as_path =
          AsPath::sequence({65000u + static_cast<std::uint32_t>(s), 3356, 174});
      mrt::Bgp4mpMessage message;
      message.peer_asn = Asn(65000u + static_cast<std::uint32_t>(s));
      message.local_asn = Asn(64512);
      message.peer_ip = IpAddress::v4(0x0a000001u + static_cast<std::uint32_t>(s));
      message.local_ip = IpAddress::from_string("203.0.113.1");
      message.bgp_message = encode_update(update);
      // Half the sessions model second-granularity collectors so the
      // sub-second repair is on the measured path.
      writer.write_message(base + Duration::millis(u * 7 + s),
                           message, /*extended_time=*/s % 2 == 0);
    }
  }
  return out.str();
}

// The registry matching synthetic_ingest_archive's session/path shape —
// one definition, so changing the archive shape cannot silently skew
// one benchmark's cleaning-drop behavior.
core::Registry ingest_bench_registry() {
  core::Registry registry;
  for (std::uint32_t s = 0; s < 64; ++s) {
    registry.allocate_asn(Asn(65000u + s));
  }
  registry.allocate_asn(Asn(3356));
  registry.allocate_asn(Asn(174));
  registry.allocate_prefix(Prefix::from_string("84.205.64.0/24"));
  return registry;
}

void BM_IngestMrtStream(benchmark::State& state) {
  static const std::string archive = synthetic_ingest_archive(64, 256);
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  core::IngestOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  options.chunk_records = 1024;
  options.cleaning = &cleaning;
  std::size_t records = 0;
  for (auto _ : state) {
    std::istringstream in(archive);
    core::IngestResult result = core::ingest_mrt_stream("bench", in, options);
    records = result.stream.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_IngestMrtStream)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Multi-archive throughput of the pipelined engine: 8 in-memory archives
// framed concurrently (bounded-queue fan-out) into one shared shard set,
// swept over worker counts — the collector-directory workload the paper's
// multi-collector measurement study implies.
void BM_IngestMrtSources(benchmark::State& state) {
  constexpr int kFiles = 8;
  static const std::vector<std::string> archives = [] {
    std::vector<std::string> out;
    out.reserve(kFiles);
    for (int f = 0; f < kFiles; ++f) {
      out.push_back(synthetic_ingest_archive(16, 128));
    }
    return out;
  }();
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  core::IngestOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  options.chunk_records = 256;
  options.cleaning = &cleaning;
  std::size_t records = 0;
  for (auto _ : state) {
    std::vector<std::istringstream> streams;
    streams.reserve(archives.size());
    std::vector<core::MrtSource> sources;
    sources.reserve(archives.size());
    for (const std::string& archive : archives) {
      streams.emplace_back(archive);
    }
    for (std::size_t f = 0; f < streams.size(); ++f) {
      sources.push_back(
          core::MrtSource{"bench" + std::to_string(f), &streams[f]});
    }
    core::IngestResult result = core::ingest_mrt_sources(sources, options);
    records = result.stream.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(options.num_threads);
  state.counters["files"] = static_cast<double>(kFiles);
}
BENCHMARK(BM_IngestMrtSources)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Streaming windowed ingestion over the same multi-archive workload as
// BM_IngestMrtSources: bounded windows (arg1 raw records each) with the
// shard-clean + merge per window and the final k-way run-merge — the
// O(window) memory configuration for archives larger than RAM. Compared
// against BM_IngestMrtSources this prices the windowing overhead. The
// `spilled` row writes every window run to a temporary spill directory
// (removed afterwards) and reads it back in the run-merge, so it guards
// the spill codec.
void BM_IngestMrtSourcesWindowed(benchmark::State& state, bool spill) {
  constexpr int kFiles = 8;
  static const std::vector<std::string> archives = [] {
    std::vector<std::string> out;
    out.reserve(kFiles);
    for (int f = 0; f < kFiles; ++f) {
      out.push_back(synthetic_ingest_archive(16, 128));
    }
    return out;
  }();
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  core::IngestOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  options.chunk_records = 256;
  options.cleaning = &cleaning;
  options.window_records = static_cast<std::size_t>(state.range(1));
  if (spill) {
    const std::string name =
        "bgpcc-bench-spill-" + std::to_string(std::random_device{}());
    options.spill_dir =
        (std::filesystem::temp_directory_path() / name).string();
  }
  std::size_t records = 0;
  for (auto _ : state) {
    std::vector<std::istringstream> streams;
    streams.reserve(archives.size());
    for (const std::string& archive : archives) {
      streams.emplace_back(archive);
    }
    core::StreamingIngestor engine(options);
    for (std::size_t f = 0; f < streams.size(); ++f) {
      engine.add_stream("bench" + std::to_string(f), streams[f]);
    }
    core::IngestResult result = engine.finish();
    records = result.stream.size();
    benchmark::DoNotOptimize(records);
  }
  if (spill) std::filesystem::remove_all(options.spill_dir);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(options.num_threads);
  state.counters["window"] = static_cast<double>(options.window_records);
}
// The in-memory rows keep their historical names (BENCHMARK picks this
// overload by its signature).
void BM_IngestMrtSourcesWindowed(benchmark::State& state) {
  BM_IngestMrtSourcesWindowed(state, false);
}
BENCHMARK(BM_IngestMrtSourcesWindowed)
    ->Args({1, 512})
    ->Args({4, 512})
    ->Args({4, 4096})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_IngestMrtSourcesWindowed, spilled, true)
    ->Args({4, 512})
    ->UseRealTime();

// The small-window regime where per-window fixed cost dominates: tiny
// window budgets mean hundreds of windows per run, so this prices what
// the persistent worker pool + window pipelining removed — a full
// spawn/join of every worker thread per window. Window N+1's
// frame/decode overlaps window N's clean+merge.
void BM_IngestSmallWindows(benchmark::State& state) {
  constexpr int kFiles = 4;
  static const std::vector<std::string> archives = [] {
    std::vector<std::string> out;
    out.reserve(kFiles);
    for (int f = 0; f < kFiles; ++f) {
      out.push_back(synthetic_ingest_archive(16, 128));
    }
    return out;
  }();
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  core::IngestOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  options.chunk_records = 64;
  options.cleaning = &cleaning;
  options.window_records = static_cast<std::size_t>(state.range(1));
  std::size_t records = 0;
  std::size_t windows = 0;
  for (auto _ : state) {
    std::vector<std::istringstream> streams;
    streams.reserve(archives.size());
    for (const std::string& archive : archives) {
      streams.emplace_back(archive);
    }
    core::StreamingIngestor engine(options);
    for (std::size_t f = 0; f < streams.size(); ++f) {
      engine.add_stream("bench" + std::to_string(f), streams[f]);
    }
    core::IngestResult result = engine.finish();
    records = result.stream.size();
    windows = result.stats.windows;
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(options.num_threads);
  state.counters["window"] = static_cast<double>(options.window_records);
  state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_IngestSmallWindows)
    ->Args({4, 64})
    ->Args({4, 1024})
    ->UseRealTime();

// The compressed-input path: the same archive gzip-compressed once,
// inflated transparently on every iteration — decompression cost rides
// the framer stage, so this measures the real RouteViews/.gz workload.
void BM_IngestMrtGzip(benchmark::State& state) {
  if (!mrt::gzip_supported()) {
    state.SkipWithError("bgpcc built without zlib");
    return;
  }
  static const std::string archive = synthetic_ingest_archive(64, 256);
  static const std::string compressed = mrt::gzip_compress(archive);
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  core::IngestOptions options;
  options.num_threads = static_cast<unsigned>(state.range(0));
  options.chunk_records = 1024;
  options.cleaning = &cleaning;
  std::size_t records = 0;
  for (auto _ : state) {
    std::istringstream in(compressed);
    core::IngestResult result = core::ingest_mrt_stream("bench", in, options);
    records = result.stream.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(archive.size()));
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_IngestMrtGzip)->Arg(1)->Arg(4)->UseRealTime();

// The analytics engine, inline mode: every pass observes on the shard
// threads during ingestion — prices the per-record virtual-dispatch and
// state-update cost of the full pass set riding the ingest hot path.
void BM_AnalyzeInline(benchmark::State& state) {
  static const std::string archive = synthetic_ingest_archive(64, 256);
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  std::size_t records = 0;
  for (auto _ : state) {
    analytics::AnalysisDriver driver;
    auto types = driver.add(analytics::ClassifierPass{});
    auto tomography = driver.add(analytics::TomographyPass{});
    auto communities = driver.add(analytics::CommunityStatsPass{});
    auto duplicates = driver.add(analytics::DuplicateBurstPass{});
    core::IngestOptions options;
    options.num_threads = static_cast<unsigned>(state.range(0));
    options.chunk_records = 1024;
    options.cleaning = &cleaning;
    driver.attach(options);
    std::istringstream in(archive);
    core::IngestResult result = core::ingest_mrt_stream("bench", in, options);
    // Pre-clean decoded total: the same denominator BM_AnomalyInline
    // uses, so the two compare identical work.
    records = result.stats.records;
    benchmark::DoNotOptimize(driver.report(types));
    benchmark::DoNotOptimize(driver.report(tomography));
    benchmark::DoNotOptimize(driver.report(communities));
    benchmark::DoNotOptimize(driver.report(duplicates));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AnalyzeInline)->Arg(1)->Arg(4)->UseRealTime();

// The obs layer's whole-pipeline price: the BM_AnalyzeInline workload
// (windowed, so every instrumented stage runs) with the metrics timing
// gate off (arg1 = 0, the default for any run without a --metrics
// sink) versus on (arg1 = 1). Off prices the always-on relaxed counter
// increments against the uninstrumented baseline in the BENCH_*.json
// trajectory; the off/on delta prices the StageTimer clock reads.
void BM_MetricsOverhead(benchmark::State& state) {
  static const std::string archive = synthetic_ingest_archive(64, 256);
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  const bool metrics_on = state.range(1) != 0;
  obs::set_enabled(metrics_on);
  std::size_t records = 0;
  for (auto _ : state) {
    analytics::AnalysisDriver driver;
    auto types = driver.add(analytics::ClassifierPass{});
    auto tomography = driver.add(analytics::TomographyPass{});
    auto communities = driver.add(analytics::CommunityStatsPass{});
    auto duplicates = driver.add(analytics::DuplicateBurstPass{});
    core::IngestOptions options;
    options.num_threads = static_cast<unsigned>(state.range(0));
    options.chunk_records = 1024;
    options.window_records = 4096;
    options.cleaning = &cleaning;
    driver.attach(options);
    std::istringstream in(archive);
    core::StreamingIngestor engine(options);
    engine.add_stream("bench", in);
    core::IngestResult result = engine.finish();
    records = result.stats.records;
    benchmark::DoNotOptimize(driver.report(types));
    benchmark::DoNotOptimize(driver.report(tomography));
    benchmark::DoNotOptimize(driver.report(communities));
    benchmark::DoNotOptimize(driver.report(duplicates));
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["metrics"] = metrics_on ? 1.0 : 0.0;
}
BENCHMARK(BM_MetricsOverhead)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->UseRealTime();

// The §6/§7 anomaly + beacon passes riding ingest inline — the port that
// unlocked streaming multi-month archives for the Figure 4/6 and anomaly
// kernels. Same pre-clean denominator as BM_AnalyzeInline, so the two
// benchmarks compare per-record cost of the different pass sets.
void BM_AnomalyInline(benchmark::State& state) {
  static const std::string archive = synthetic_ingest_archive(64, 256);
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  std::size_t records = 0;
  for (auto _ : state) {
    analytics::AnalysisDriver driver;
    auto anomalies = driver.add(analytics::AnomalyPass{});
    auto revealed = driver.add(analytics::RevealedPass{});
    auto exploration = driver.add(analytics::ExplorationPass{});
    auto usage = driver.add(analytics::UsageClassificationPass{});
    core::IngestOptions options;
    options.num_threads = static_cast<unsigned>(state.range(0));
    options.chunk_records = 1024;
    options.cleaning = &cleaning;
    driver.attach(options);
    std::istringstream in(archive);
    core::IngestResult result = core::ingest_mrt_stream("bench", in, options);
    records = result.stats.records;
    benchmark::DoNotOptimize(driver.report(anomalies));
    benchmark::DoNotOptimize(driver.report(revealed));
    benchmark::DoNotOptimize(driver.report(exploration));
    benchmark::DoNotOptimize(driver.report(usage));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AnomalyInline)->Arg(1)->Arg(4)->UseRealTime();

// Checkpoint/restore round-trip (analytics/serialize.h): encode a
// populated standard-pass-set driver's shard states through the wire codec
// and restore them into a fresh driver — the crash-safety overhead a
// resumable year-scale run pays per checkpoint interval. Bytes/sec is
// measured over the encoded checkpoint size, so codec regressions and
// state-size blowups both move the trajectory gate.
void BM_CheckpointRoundtrip(benchmark::State& state) {
  static const std::string archive = synthetic_ingest_archive(64, 256);
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  analytics::AnalysisDriver driver;
  static_cast<void>(analytics::StandardPasses::add(driver));
  core::IngestOptions options;
  options.num_threads = 1;
  options.chunk_records = 1024;
  options.cleaning = &cleaning;
  driver.attach(options);
  std::istringstream in(archive);
  core::IngestResult result = core::ingest_mrt_stream("bench", in, options);
  benchmark::DoNotOptimize(result.stream.size());

  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    driver.checkpoint(out);
    std::string encoded = std::move(out).str();
    bytes = encoded.size();
    analytics::AnalysisDriver restored;
    static_cast<void>(analytics::StandardPasses::add(restored));
    std::istringstream encoded_in(encoded);
    restored.restore(encoded_in);
    benchmark::DoNotOptimize(restored.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["state_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointRoundtrip);

// Epoch-snapshot cost (analytics::AnalysisDriver::snapshot()): clone all
// per-shard states of the full pass set under the committed-window lock,
// then merge the clones outside it — the price a live dashboard pays per
// report refresh while ingestion keeps running. Swept over evidence size
// (records ingested before snapshotting, arg0) and the thread count the
// driver was attached with (arg1): more shards means more clones per
// epoch, and state size — not ingest speed — should dominate. items/sec
// counts records covered per snapshot so the gate tracks cost-per-record
// of a refresh, comparable across evidence sizes.
void BM_SnapshotEpoch(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  core::Registry registry = ingest_bench_registry();
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;
  analytics::AnalysisDriver driver;
  static_cast<void>(analytics::StandardPasses::add(driver));
  core::IngestOptions options;
  options.num_threads = static_cast<unsigned>(state.range(1));
  options.chunk_records = 1024;
  options.cleaning = &cleaning;
  driver.attach(options);
  std::istringstream in(synthetic_ingest_archive(64, records / 64));
  core::IngestResult result = core::ingest_mrt_stream("bench", in, options);
  benchmark::DoNotOptimize(result.stream.size());

  for (auto _ : state) {
    benchmark::DoNotOptimize(driver.snapshot());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records));
  state.counters["threads"] = static_cast<double>(options.num_threads);
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_SnapshotEpoch)
    ->Args({2048, 1})
    ->Args({2048, 4})
    ->Args({16384, 1})
    ->Args({16384, 4});

void BM_DecisionCompare(benchmark::State& state) {
  Route a;
  a.prefix = Prefix::from_string("84.205.64.0/24");
  a.attrs.as_path = AsPath::sequence({20205, 3356, 174, 12654});
  a.source.peer_router_id = 1;
  Route b = a;
  b.source.peer_router_id = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(better_route(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecisionCompare);

}  // namespace
}  // namespace bgpcc

BENCHMARK_MAIN();
