// The one way a simulated collector's log reaches the analysis: each log
// is written as the BGP4MP_ET archive a real collector would publish
// (sim::RouteCollector::write_mrt, into memory) and the archives go
// through the MRT ingestion engine as one multi-source run. Simulated
// and real collector output therefore share frame, decode, shards, §4
// cleaning and the inline passes. This lives in synth/ because it is the
// layer that already depends on both the simulator and core; core itself
// never sees a simulator type.
#pragma once

#include <vector>

#include "core/ingest.h"
#include "sim/collector.h"

namespace bgpcc::synth {

/// Ingests the collectors' logs as one multi-source MRT run, in the given
/// order (which fixes the interleaving of equal timestamps, as for
/// core::ingest_mrt_sources). Attach analysis with
/// AnalysisDriver::attach(options) before the call. Throws ConfigError on
/// a null collector.
[[nodiscard]] core::IngestResult ingest(
    const std::vector<const sim::RouteCollector*>& collectors,
    const core::IngestOptions& options = {});

}  // namespace bgpcc::synth
