// The traced run: per-layer numbers measured from outside, by timing the
// benchmark's own calls into each layer's public functions (spans), plus
// the obs stage instruments the engine already keeps. Nothing here adds
// tracing inside the library.
//
// Order: an untraced baseline of the workload; one traced iteration with
// obs enabled (its wall time over the baseline is the tracing overhead);
// then the single-threaded layer kernels over the workload's corpus.
#include <sstream>

#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "e2e.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "obs/metrics.h"

namespace bgpcc::e2e {

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::uint64_t count) {
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  spans_.push_back(Span{std::move(name), ns(start), ns(end), parent, count});
  return static_cast<int>(spans_.size()) - 1;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, int parent)
    : tracer_(tracer), start_(Clock::now()) {
  id_ = tracer_.add(std::move(name), start_, start_, parent);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(id_)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - tracer_.origin_)
                    .count();
  span.count = count_;
}

void Tracer::write(JsonWriter& json) const {
  json.begin_array();
  for (const Span& span : spans_) {
    json.begin_object();
    json.key("name").value(span.name);
    json.key("start_ns").value(static_cast<std::uint64_t>(span.start_ns));
    json.key("end_ns").value(static_cast<std::uint64_t>(span.end_ns));
    json.key("parent").value(static_cast<double>(span.parent));
    json.key("count").value(span.count);
    json.end_object();
  }
  json.end_array();
}

namespace {

/// One decoded BGP4MP UPDATE, with what explode needs.
struct DecodedUpdate {
  Asn peer_asn;
  IpAddress peer_ip;
  Timestamp time;
  UpdateMessage update;
};

/// A layer's input for one archive, tagged with its collector.
template <typename T>
struct PerFile {
  const std::string* collector;
  T data;
};

std::string render_obs() {
  std::ostringstream out;
  obs::render_json(out);
  return out.str();
}

/// The single-threaded layer kernels over the corpus, in pipeline order:
/// inflate → frame → decode → explode → clean → observe (one pass at a
/// time, then all nine with snapshot / checkpoint / restore / finalize).
/// Returns the kernel path's report digest, which must equal the
/// reference like every other run.
std::uint64_t run_kernels(const WorkloadSpec& spec, const Corpus& corpus,
                          const std::string& spill_dir, Tracer& tracer) {
  Tracer::Scope root(tracer, "kernels");
  core::Registry registry = load_registry(corpus.registry_path);
  core::CleaningOptions cleaning;
  cleaning.registry = &registry;

  // The whole engine at one thread in the workload's configuration, minus
  // the passes: what the kernels below do one layer at a time.
  {
    core::IngestOptions options;
    options.num_threads = 1;
    options.cleaning = &cleaning;
    Tracer::Scope span(tracer, "core.ingest_1t", root.id());
    if (!spec.passes) {
      core::IngestResult result = core::ingest_mrt_files(corpus.files, options);
      span.set_count(result.stats.records);
    } else {
      options.window_records = kWindowRecords;
      options.spill_dir = spill_dir;
      core::StreamingIngestor ingestor(options);
      for (const auto& [collector, paths] : corpus.files) {
        for (const std::string& path : paths) {
          ingestor.add_file(collector, path);
        }
      }
      core::IngestResult result =
          ingestor.finish([](core::UpdateRecord&&) {});
      span.set_count(result.stats.records);
    }
  }

  std::vector<PerFile<std::string>> inflated;
  for (const auto& [collector, paths] : corpus.files) {
    for (const std::string& path : paths) {
      Tracer::Scope span(tracer, "mrt.inflate", root.id());
      mrt::InputStream input = mrt::InputStream::open_file(path);
      std::string bytes;
      char buffer[1 << 16];
      while (input.stream().read(buffer, sizeof(buffer)) ||
             input.stream().gcount() > 0) {
        bytes.append(buffer, static_cast<std::size_t>(input.stream().gcount()));
      }
      span.set_count(bytes.size());
      inflated.push_back({&collector, std::move(bytes)});
    }
  }

  std::vector<PerFile<std::vector<mrt::Record>>> framed;
  for (PerFile<std::string>& file : inflated) {
    Tracer::Scope span(tracer, "mrt.frame", root.id());
    std::istringstream in(std::move(file.data));
    mrt::ChunkedReader reader(in, 4096);
    std::vector<mrt::Record> records;
    while (std::optional<std::vector<mrt::Record>> chunk =
               reader.next_chunk()) {
      std::move(chunk->begin(), chunk->end(), std::back_inserter(records));
    }
    span.set_count(records.size());
    framed.push_back({file.collector, std::move(records)});
  }
  inflated.clear();

  std::vector<PerFile<std::vector<DecodedUpdate>>> decoded;
  for (PerFile<std::vector<mrt::Record>>& file : framed) {
    Tracer::Scope span(tracer, "bgp.decode", root.id());
    std::vector<DecodedUpdate> updates;
    for (const mrt::Record& record : file.data) {
      if (!record.is_bgp4mp() ||
          (record.subtype !=
               static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessage) &&
           record.subtype !=
               static_cast<std::uint16_t>(mrt::Bgp4mpSubtype::kMessageAs4))) {
        continue;
      }
      bool four_byte = true;
      mrt::Bgp4mpMessage message =
          mrt::Reader::parse_message(record, &four_byte);
      if (peek_type(message.bgp_message) != MessageType::kUpdate) continue;
      CodecOptions codec;
      codec.four_byte_asn = four_byte;
      updates.push_back({message.peer_asn, message.peer_ip, record.timestamp,
                         decode_update(message.bgp_message, codec)});
    }
    span.set_count(updates.size());
    decoded.push_back({file.collector, std::move(updates)});
  }
  framed.clear();

  // Arrival sequence: file-major, the engine's (file, chunk, record) order.
  std::vector<core::SeqRecord> records;
  std::uint64_t seq = 0;
  for (PerFile<std::vector<DecodedUpdate>>& file : decoded) {
    std::vector<core::UpdateRecord> exploded;
    {
      Tracer::Scope span(tracer, "core.explode", root.id());
      for (const DecodedUpdate& u : file.data) {
        core::append_update_records(*file.collector, u.peer_asn, u.peer_ip,
                                    u.time, u.update, exploded);
      }
      span.set_count(exploded.size());
    }
    for (core::UpdateRecord& record : exploded) {
      records.push_back(core::SeqRecord{seq++, std::move(record)});
    }
  }
  decoded.clear();

  {
    Tracer::Scope span(tracer, "core.clean", root.id());
    (void)core::cleaning::run(records, cleaning);
    span.set_count(records.size());
  }
  core::UpdateStream stream;  // cleaning::run leaves (time, seq) order
  for (core::SeqRecord& record : records) stream.add(std::move(record.record));
  records.clear();

  for (std::size_t pass = 0; pass < kPassCount; ++pass) {
    analytics::AnalysisDriver driver;
    add_pass(driver, pass);
    {
      Tracer::Scope span(tracer, std::string("analytics.observe.") +
                                     kPassNames[pass],
                         root.id());
      driver.observe_stream(stream);
      span.set_count(stream.size());
    }
    Tracer::Scope span(tracer,
                       std::string("analytics.save_state.") + kPassNames[pass],
                       root.id());
    std::ostringstream state;
    driver.save_state(state);
    span.set_count(static_cast<std::uint64_t>(state.tellp()));
  }

  analytics::AnalysisDriver driver;
  Handles handles = add_passes(driver);
  {
    Tracer::Scope span(tracer, "analytics.observe.all", root.id());
    driver.observe_stream(stream);
    span.set_count(stream.size());
  }
  analytics::ReportSnapshot snapshot;
  {
    Tracer::Scope span(tracer, "analytics.snapshot", root.id());
    snapshot = driver.snapshot();
  }
  std::string checkpoint;
  {
    Tracer::Scope span(tracer, "analytics.checkpoint", root.id());
    std::ostringstream out;
    driver.checkpoint(out);
    checkpoint = std::move(out).str();
    span.set_count(checkpoint.size());
  }
  {
    analytics::AnalysisDriver restored;
    (void)add_passes(restored);
    std::istringstream in(std::move(checkpoint));
    Tracer::Scope span(tracer, "analytics.restore", root.id());
    restored.restore(in);
  }
  Reports reports;
  {
    Tracer::Scope span(tracer, "analytics.finalize", root.id());
    reports = collect_final(driver, handles);
  }
  return report_digest(reports);
}

}  // namespace

std::string run_trace(const WorkloadSpec& spec, const Corpus& corpus,
                      const std::string& spill_dir, int untraced_iterations) {
  Tracer tracer;
  const RunEnv plain{spill_dir};
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(spec.name);

  (void)run_iteration(spec, corpus, plain);  // warm-up
  json.key("untraced").begin_array();
  for (int i = 0; i < untraced_iterations; ++i) {
    write_iteration(json, run_iteration(spec, corpus, plain));
  }
  json.end_array();

  obs::Registry::global().reset();
  obs::set_enabled(true);
  const std::uint64_t written_before = written_bytes();
  {
    Tracer::Scope span(tracer, "workload");
    const RunEnv traced{spill_dir, &tracer, span.id()};
    json.key("traced");
    write_iteration(json, run_iteration(spec, corpus, traced));
  }
  json.key("spill_bytes").value(written_bytes() - written_before);
  obs::set_enabled(false);
  json.key("obs").raw(render_obs());

  json.key("kernel_digest")
      .value(hex64(run_kernels(spec, corpus, spill_dir, tracer)));
  json.key("spans");
  tracer.write(json);
  json.end_object();
  return json.str();
}

}  // namespace bgpcc::e2e
