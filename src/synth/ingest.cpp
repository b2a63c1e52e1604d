#include "synth/ingest.h"

#include <sstream>
#include <utility>

#include "netbase/error.h"

namespace bgpcc::synth {

core::IngestResult ingest(
    const std::vector<const sim::RouteCollector*>& collectors,
    const core::IngestOptions& options) {
  // Reserved up front: the sources point into this vector.
  std::vector<std::istringstream> archives;
  archives.reserve(collectors.size());
  std::vector<core::MrtSource> sources;
  sources.reserve(collectors.size());
  for (const sim::RouteCollector* collector : collectors) {
    if (collector == nullptr) {
      throw ConfigError("synth::ingest: null collector");
    }
    std::ostringstream out;
    collector->write_mrt(out);
    archives.emplace_back(std::move(out).str());
    sources.push_back(core::MrtSource{collector->name(), &archives.back()});
  }
  return core::ingest_mrt_sources(sources, options);
}

}  // namespace bgpcc::synth
