// The engine-free reference for simulated collector logs, shared by the
// ingest tests that pin how a sim::RouteCollector log reaches the passes:
// every log's messages exploded in arrival order, the logs concatenated
// in collector order, then a stable time sort. No ingestion engine and no
// MRT encoding is involved, so a test comparing an engine run against it
// compares two independent paths.
#pragma once

#include <vector>

#include "core/stream.h"
#include "sim/collector.h"

namespace bgpcc::test {

inline core::UpdateStream explode_logs(
    const std::vector<const sim::RouteCollector*>& collectors) {
  core::UpdateStream reference;
  for (const sim::RouteCollector* collector : collectors) {
    for (const sim::RecordedMessage& message : collector->messages()) {
      reference.add_message(collector->name(), message.peer_asn,
                            message.peer_address, message.time,
                            message.update);
    }
  }
  reference.sort_by_time();
  return reference;
}

}  // namespace bgpcc::test
