//===- workload/SuiteReport.h - Whole-suite study + report ------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-benchmark-suite study behind `suitecheck` and the
/// determinism tests: verify, analyze, and soundness-check every program,
/// merge their counters, compute the three paper tables, and assemble the
/// "ipcp-suite-report-v1" JSON document.
///
/// All per-program work runs through a SuiteRunner, so `--jobs=8`
/// produces byte-identical results to a sequential run (timing counters
/// aside): diagnostics, counters, report entries, and table rows are all
/// collected per-program into suite-order slots and aggregated in that
/// order afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_WORKLOAD_SUITEREPORT_H
#define IPCP_WORKLOAD_SUITEREPORT_H

#include "support/Json.h"
#include "support/Statistics.h"
#include "workload/Study.h"

#include <string>
#include <vector>

namespace ipcp {

class ContentStore;
class SuiteRunner;
class Trace;

/// Outcome of one whole-suite study run.
struct SuiteStudyResult {
  int Failures = 0;

  /// One diagnostic block per program (suite order, empty when clean);
  /// formatted exactly as suitecheck has always printed them.
  std::vector<std::string> Messages;

  /// Analysis counters merged over all programs, in suite order.
  StatisticSet Counters;

  /// One "ipcp-report-v1" entry per program (with a "sound" flag), suite
  /// order; stays an empty array unless requested.
  JsonValue Programs = JsonValue::array();

  std::vector<Table1Row> T1;
  std::vector<Table2Row> T2;
  std::vector<Table3Row> T3;
};

/// Runs the study over the full benchmark suite through \p Runner. With
/// \p BuildReports, also builds the per-program report entries (they cost
/// a per-program JSON tree, so suitecheck only asks when --report-json is
/// given). A non-null \p Store analyzes each program through a summary
/// cache loaded from and saved to that store (one name per program; see
/// docs/INCREMENTAL.md); the concurrent tasks share the store, and each
/// has its own SummaryCache. Table computations always run cold.
/// \p Engine selects the propagation engine for the per-program analyses
/// (the contexts engine runs cache-less; docs/CONTEXTS.md); the paper
/// tables keep their own option sets either way.
SuiteStudyResult
runSuiteStudy(SuiteRunner &Runner, bool BuildReports,
              ContentStore *Store = nullptr,
              PropagationEngine Engine = PropagationEngine::Jump);

/// Assembles the "ipcp-suite-report-v1" document: schema, failures,
/// programs, the three tables, merged counters, and (when \p TraceData is
/// non-null) the trace JSON.
JsonValue buildSuiteReport(const SuiteStudyResult &R,
                           const Trace *TraceData = nullptr);

} // namespace ipcp

#endif // IPCP_WORKLOAD_SUITEREPORT_H
