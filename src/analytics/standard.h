// The standard pass set: the nine shipped passes in one configuration,
// registered in wire-tag order, collected into one report struct and
// rendered as one canonical text. Both CLIs (stream_report,
// bgpcc-merge), the checkpoint and snapshot test suites and the
// microbench run exactly this set, so their outputs agree on the same
// input:
//
//   analytics::AnalysisDriver driver;
//   auto standard = analytics::StandardPasses::add(driver);
//   ...ingest...
//   std::fputs(standard.collect(driver).render().c_str(), stdout);
//
// The configuration has no parameters: AnomalyPass scores sessions with
// at least 20 classified announcements and calls a novelty a burst at
// 50 in-window occurrences; UsageClassificationPass labels namespaces
// with at least 5 occurrences; every other pass runs its defaults. The
// thresholds apply only at report(), and configuration is never
// serialized, so checkpoint and state bytes do not depend on them.
#pragma once

#include <string>

#include "analytics/driver.h"
#include "analytics/passes.h"

namespace bgpcc::analytics {

/// All nine projections, from a finalizing driver or a snapshot.
struct StandardReports {
  ClassifierPass::Report types;
  PerSessionTypesPass::Report sessions;
  TomographyPass::Report tomography;
  CommunityStatsPass::Report communities;
  DuplicateBurstPass::Report duplicates;
  AnomalyPass::Report anomalies;
  RevealedPass::Report revealed;
  ExplorationPass::Report exploration;
  UsageClassificationPass::Report usage;

  friend bool operator==(const StandardReports&,
                         const StandardReports&) = default;

  /// The canonical text: every field of every report, one titled
  /// section per report, list sections as their length followed by
  /// their lines in sorted order (so the text does not depend on how a
  /// pass orders equal items), doubles printed as %.17g.
  [[nodiscard]] std::string render() const;
};

/// Handles for the nine passes, registration order = wire tags 1-9.
struct StandardPasses {
  PassHandle<ClassifierPass> types;
  PassHandle<PerSessionTypesPass> sessions;
  PassHandle<TomographyPass> tomography;
  PassHandle<CommunityStatsPass> communities;
  PassHandle<DuplicateBurstPass> duplicates;
  PassHandle<AnomalyPass> anomalies;
  PassHandle<RevealedPass> revealed;
  PassHandle<ExplorationPass> exploration;
  PassHandle<UsageClassificationPass> usage;

  /// Registers the standard set on `driver`.
  [[nodiscard]] static StandardPasses add(AnalysisDriver& driver);

  /// The final reports; the first call finalizes `driver`.
  [[nodiscard]] StandardReports collect(AnalysisDriver& driver) const;
  /// The reports at a snapshot's committed-window boundary.
  [[nodiscard]] StandardReports collect(
      const ReportSnapshot& snapshot) const;
};

}  // namespace bgpcc::analytics
