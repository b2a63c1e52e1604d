// One analysis pass over a materialized stream: the add → observe_stream
// → report sequence of analytics::AnalysisDriver, shortened for the
// kernel tests that check a single pass's report.
#pragma once

#include <utility>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/stream.h"

namespace bgpcc::test {

template <analytics::Pass P>
[[nodiscard]] analytics::ReportOf<P> run_pass(
    P pass, const core::UpdateStream& stream) {
  analytics::AnalysisDriver driver;
  auto handle = driver.add(std::move(pass));
  driver.observe_stream(stream);
  return driver.report(handle);
}

}  // namespace bgpcc::test
