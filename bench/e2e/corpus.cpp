// Corpus generation: one synthetic 2020-03-15 day from synth::MacroGen
// (its event mix is calibrated to Table 2's *d_mar20 shares and it models
// all 1504 sessions at 34 collectors), written the way RouteViews/RIS
// publish it — per-collector, time-sorted, gzip BGP4MP/BGP4MP_ET
// archives — plus the registry file that drives the §4 drop path and a
// truth file the correctness gate checks the pass counters against.
#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "bgp/codec.h"
#include "e2e.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "netbase/error.h"
#include "synth/macrogen.h"

namespace bgpcc::e2e {
namespace {

// Bump whenever the bytes a given spec produces change, so stale caches
// are regenerated instead of trusted.
constexpr const char* kGeneratorVersion = "bgpcc-e2e-corpus-1";
// Live corpora: the day cut into 12-minute dumps per collector.
constexpr std::size_t kRotations = 120;
// Packed corpora: announcements per UPDATE at most (chosen, not measured).
constexpr std::size_t kPackMax = 16;
// IPv4 prefixes left out of the registry, per mille (the §4 drop path).
constexpr std::uint64_t kUnallocatedPerMille = 10;
constexpr std::uint32_t kCollectorAsn = 12654;

/// One BGP UPDATE as written to an archive.
struct Message {
  Timestamp time;
  core::SessionKey session;
  UpdateMessage update;
};

/// One UPDATE per record: the plain archive shape.
std::vector<Message> single_prefix_messages(
    std::vector<core::UpdateRecord>& records) {
  std::vector<Message> out;
  out.reserve(records.size());
  for (core::UpdateRecord& record : records) {
    Message m{record.time, std::move(record.session), {}};
    if (record.announcement) {
      m.update.announced.push_back(record.prefix);
      m.update.attrs = std::move(record.attrs);
    } else {
      m.update.withdrawn.push_back(record.prefix);
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Packs each session's consecutive announcements into UPDATEs of up to
/// kPackMax prefixes of one address family, sharing the first one's
/// attributes and timestamp. The rule is a synthetic stress shape, not
/// calibrated against real archives (see README.md). An announcement joins the session's oldest open UPDATE
/// of its family that has room and comes after the one holding its
/// stream's previous announcement (an UPDATE names a prefix once), so
/// each (session, prefix) stream keeps its order. A withdrawal on the
/// session closes all its open UPDATEs and stays single-prefix. Input
/// must be time-sorted; output stays time-sorted because every UPDATE
/// keeps the position of its first record.
std::vector<Message> packed_messages(std::vector<core::UpdateRecord>& records) {
  std::vector<Message> out;
  // Session → indexes (into out) of its open UPDATEs, oldest first.
  std::map<core::SessionKey, std::vector<std::size_t>> open;
  // (session, prefix) → index of the UPDATE holding its last record.
  std::map<std::pair<core::SessionKey, Prefix>, std::size_t> last;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  for (core::UpdateRecord& record : records) {
    std::vector<std::size_t>& packs = open[record.session];
    std::size_t& previous =
        last.try_emplace({record.session, record.prefix}, kNone).first->second;
    if (!record.announcement) {
      packs.clear();
      previous = out.size();
      Message m{record.time, record.session, {}};
      m.update.withdrawn.push_back(record.prefix);
      out.push_back(std::move(m));
      continue;
    }
    auto fits = [&](std::size_t index) {
      return (previous == kNone || index > previous) &&
             out[index].update.announced.front().is_v4() ==
                 record.prefix.is_v4();
    };
    auto pack = std::find_if(packs.begin(), packs.end(), fits);
    if (pack != packs.end()) {
      std::size_t index = *pack;
      out[index].update.announced.push_back(record.prefix);
      previous = index;
      if (out[index].update.announced.size() == kPackMax) packs.erase(pack);
      continue;
    }
    previous = out.size();
    packs.push_back(out.size());
    Message m{record.time, record.session, {}};
    m.update.announced.push_back(record.prefix);
    m.update.attrs = std::move(record.attrs);
    out.push_back(std::move(m));
  }
  return out;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw ConfigError("cannot write " + path.string());
}

/// Writes messages [begin, end) as one archive.
void write_archive(const std::filesystem::path& path,
                   const std::vector<Message>& messages, std::size_t begin,
                   std::size_t end, mrt::Compression compression) {
  std::ostringstream staging(std::ios::binary);
  mrt::Writer writer(staging);
  for (std::size_t i = begin; i < end; ++i) {
    const Message& m = messages[i];
    mrt::Bgp4mpMessage record;
    record.peer_asn = m.session.peer_asn;
    record.local_asn = Asn(kCollectorAsn);
    record.peer_ip = m.session.peer_address;
    record.local_ip = IpAddress::v4(198, 51, 100, 1);
    record.bgp_message = encode_update(m.update);
    // Second-granularity sessions carry whole-second stamps: those go out
    // as plain BGP4MP, everything else as BGP4MP_ET.
    bool extended = m.time.unix_micros() % 1000000 != 0;
    writer.write_message(m.time, record, extended);
  }
  write_file(path, mrt::compress(staging.str(), compression));
}

/// Every regular file of the corpus except the two derived JSON files.
std::vector<std::filesystem::path> corpus_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name == "manifest.json" ||
        name == "reference.json") {
      continue;
    }
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The manifest a corpus directory must carry: generator parameters plus
/// the FNV-1a digest of every file.
std::string render_manifest(const CorpusSpec& spec,
                            const std::filesystem::path& dir) {
  JsonWriter json;
  json.begin_object();
  json.key("generator").value(kGeneratorVersion);
  json.key("corpus").value(spec.kind);
  json.key("seed").value(spec.seed);
  json.key("volume").value(spec.volume);
  json.key("population").value(spec.population);
  json.key("rotations").value(
      std::uint64_t{spec.kind == "live" ? kRotations : 1});
  json.key("pack_max").value(
      std::uint64_t{spec.kind == "packed" ? kPackMax : 1});
  json.key("unallocated_per_mille").value(kUnallocatedPerMille);
  json.key("files").begin_array();
  for (const std::filesystem::path& path : corpus_files(dir)) {
    std::string bytes = read_file(path);
    json.begin_object();
    json.key("name").value(path.filename().string());
    json.key("bytes").value(std::uint64_t{bytes.size()});
    json.key("fnv1a64").value(hex64(fnv1a64(bytes)));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

}  // namespace

bool generate_corpus(const CorpusSpec& spec, const std::filesystem::path& dir) {
  if (spec.kind != "day" && spec.kind != "packed" && spec.kind != "live") {
    throw ConfigError("unknown corpus kind: " + spec.kind);
  }
  const std::filesystem::path manifest = dir / "manifest.json";
  if (std::filesystem::exists(manifest) &&
      read_file(manifest) == render_manifest(spec, dir)) {
    return true;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  synth::MacroParams params =
      synth::MacroParams::march2020(spec.volume, spec.population);
  params.seed = spec.seed;
  synth::MacroGen generator(params);
  std::map<std::string, std::vector<core::UpdateRecord>> by_collector;
  std::set<std::uint32_t> asns;
  std::set<Prefix> prefixes;
  generator.generate_day([&](const core::UpdateRecord& record) {
    by_collector[record.session.collector].push_back(record);
    prefixes.insert(record.prefix);
    for (Asn asn : record.attrs.as_path.flatten()) asns.insert(asn.value());
  });

  // Registry: every ASN seen; every prefix but ~1% of the IPv4 ones.
  std::set<Prefix> unallocated;
  std::string registry;
  for (std::uint32_t asn : asns) {
    registry += "asn " + std::to_string(asn) + "\n";
  }
  for (const Prefix& prefix : prefixes) {
    std::string text = prefix.to_string();
    if (prefix.is_v4() &&
        fnv1a64(text, spec.seed) % 1000 < kUnallocatedPerMille) {
      unallocated.insert(prefix);
      continue;
    }
    registry += "prefix " + text + "\n";
  }
  write_file(dir / "registry.txt", registry);

  const mrt::Compression compression = mrt::gzip_supported()
                                           ? mrt::Compression::kGzip
                                           : mrt::Compression::kNone;
  const std::string suffix = ".mrt" + mrt::compression_suffix(compression);
  std::uint64_t update_messages = 0;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  std::uint64_t announcements = 0;
  std::uint64_t withdrawals = 0;
  std::uint64_t with_communities = 0;
  std::uint64_t occurrences = 0;
  std::set<std::uint32_t> values;
  for (auto& [collector, list] : by_collector) {
    // Collector archives are chronological; stable keeps each stream's
    // generation order among equal (second-granularity) stamps.
    std::stable_sort(
        list.begin(), list.end(),
        [](const core::UpdateRecord& a, const core::UpdateRecord& b) {
          return a.time < b.time;
        });
    std::vector<Message> messages = spec.kind == "packed"
                                        ? packed_messages(list)
                                        : single_prefix_messages(list);
    update_messages += messages.size();
    for (const Message& m : messages) {
      for (const Prefix& p : m.update.withdrawn) {
        ++records;
        if (unallocated.count(p) != 0) {
          ++dropped;
        } else {
          ++withdrawals;
        }
      }
      for (const Prefix& p : m.update.announced) {
        ++records;
        if (unallocated.count(p) != 0) {
          ++dropped;
          continue;
        }
        ++announcements;
        occurrences += m.update.attrs->communities.size();
        if (!m.update.attrs->communities.empty()) ++with_communities;
        for (Community c : m.update.attrs->communities) values.insert(c.raw());
      }
    }
    if (spec.kind != "live") {
      write_archive(dir / (collector + suffix), messages, 0, messages.size(),
                    compression);
      continue;
    }
    // 12-minute slices; every collector gets all kRotations dumps (empty
    // ones included), so round r of the live loop adds one per collector.
    const std::int64_t slice_us = Duration::hours(24).count_micros() /
                                  static_cast<std::int64_t>(kRotations);
    std::size_t begin = 0;
    for (std::size_t r = 0; r < kRotations; ++r) {
      std::size_t end = begin;
      while (end < messages.size() &&
             (r + 1 == kRotations ||
              (messages[end].time - params.day_start).count_micros() <
                  static_cast<std::int64_t>(r + 1) * slice_us)) {
        ++end;
      }
      char name[32];
      std::snprintf(name, sizeof(name), ".%04zu", r);
      write_archive(dir / (collector + name + suffix), messages, begin, end,
                    compression);
      begin = end;
    }
  }

  JsonWriter truth;
  truth.begin_object();
  truth.key("update_messages").value(update_messages);
  truth.key("records").value(records);
  truth.key("dropped_unallocated_prefix").value(dropped);
  truth.key("announcements").value(announcements);
  truth.key("withdrawals").value(withdrawals);
  truth.key("with_communities").value(with_communities);
  truth.key("community_occurrences").value(occurrences);
  truth.key("unique_communities").value(std::uint64_t{values.size()});
  truth.end_object();
  write_file(dir / "truth.json", truth.str() + "\n");

  // Last: a corpus without a manifest is regenerated, never trusted.
  write_file(manifest, render_manifest(spec, dir));
  return false;
}

std::size_t Corpus::rotations() const {
  return files.empty() ? 0 : files.begin()->second.size();
}

Corpus load_corpus(const std::filesystem::path& dir) {
  Corpus corpus;
  corpus.registry_path = (dir / "registry.txt").string();
  for (const std::filesystem::path& path : corpus_files(dir)) {
    std::string name = path.filename().string();
    if (name.find(".mrt") == std::string::npos) continue;
    // "<collector>.mrt[.gz]" or "<collector>.<NNNN>.mrt[.gz]"; the sorted
    // listing puts rotations in order.
    corpus.files[name.substr(0, name.find('.'))].push_back(path.string());
  }
  if (corpus.files.empty()) {
    throw ConfigError("no archives in corpus " + dir.string());
  }
  for (const auto& [collector, paths] : corpus.files) {
    if (paths.size() != corpus.rotations()) {
      throw ConfigError("corpus " + dir.string() + ": collector " + collector +
                        " has a different number of dumps");
    }
  }
  return corpus;
}

core::Registry load_registry(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot read registry " + path);
  core::Registry registry;
  std::string kind;
  std::string value;
  while (in >> kind >> value) {
    if (kind == "asn") {
      registry.allocate_asn(Asn(static_cast<std::uint32_t>(std::stoul(value))));
    } else if (kind == "prefix") {
      registry.allocate_prefix(Prefix::from_string(value));
    } else {
      throw ConfigError("registry " + path + ": unknown line kind " + kind);
    }
  }
  return registry;
}

}  // namespace bgpcc::e2e
