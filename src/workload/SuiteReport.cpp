//===- workload/SuiteReport.cpp -------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "workload/SuiteReport.h"

#include "core/Report.h"
#include "core/SuiteRunner.h"
#include "core/SummaryCache.h"
#include "ir/Verifier.h"
#include "support/Trace.h"
#include "workload/Oracle.h"

using namespace ipcp;

SuiteStudyResult ipcp::runSuiteStudy(SuiteRunner &Runner, bool BuildReports,
                                     ContentStore *Store,
                                     PropagationEngine Engine) {
  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  size_t N = Suite.size();

  // Per-program slots; each task writes only its own index, and the
  // aggregation below walks them in suite order.
  std::vector<std::string> Messages(N);
  std::vector<StatisticSet> Stats(N);
  std::vector<JsonValue> Entries(N);
  std::vector<int> Failures(N, 0);

  Runner.run(N, [&](size_t I) {
    const SuiteProgram &Prog = Suite[I];
    ScopedTraceSpan ProgSpan("program", Prog.Name);
    AnalysisRequest Req;
    Req.Name = Prog.Name;
    Req.Opts.Engine = Engine;
    RequestRun Run(Req);
    if (!Run.compile(Prog.Source)) {
      Messages[I] += Prog.Name + ": " + Run.Diags.str();
      ++Failures[I];
      return;
    }
    for (const std::string &E : verifyModule(*Run.M)) {
      Messages[I] += Prog.Name + ": verify: " + E + "\n";
      ++Failures[I];
    }
    // Each program gets its own cache object: the tasks run concurrently
    // and must not share mutable cache state. The store is thread-safe.
    SummaryCache Cache;
    bool Cached = Store && Req.usesCache();
    if (Cached)
      Cache.load(*Store, Prog.Name, Req.Opts);
    Run.run(Cached ? &Cache : nullptr);
    if (Cached)
      Cache.save(*Store, Prog.Name, Req.Opts);
    const IPCPResult &Res = *Run.Single;
    OracleReport Rep = checkSoundness(*Run.M, Res);
    bool Ok = Rep.Sound && Rep.ExecStatus == ExecutionResult::Status::Ok;
    if (!Ok) {
      Messages[I] += Prog.Name + ": " + Rep.str() + " (exec status " +
                     std::to_string(int(Rep.ExecStatus)) + ")\n";
      ++Failures[I];
    }
    Stats[I] = Res.Stats;
    if (BuildReports) {
      Entries[I] = Run.report(false);
      Entries[I].set("sound", Ok);
    }
  });

  SuiteStudyResult R;
  R.Messages = std::move(Messages);
  for (size_t I = 0; I != N; ++I) {
    R.Failures += Failures[I];
    R.Counters.merge(Stats[I]);
    if (BuildReports)
      R.Programs.push(std::move(Entries[I]));
  }

  R.T1 = computeTable1(Suite, &Runner);
  R.T2 = computeTable2(Suite, &Runner);
  R.T3 = computeTable3(Suite, &Runner);
  return R;
}

JsonValue ipcp::buildSuiteReport(const SuiteStudyResult &R,
                                 const Trace *TraceData) {
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", "ipcp-suite-report-v1");
  Doc.set("failures", R.Failures);
  Doc.set("programs", R.Programs);
  Doc.set("table1", table1ToJson(R.T1));
  Doc.set("table2", table2ToJson(R.T2));
  Doc.set("table3", table3ToJson(R.T3));
  Doc.set("counters", R.Counters.toJson());
  if (TraceData)
    Doc.set("trace", TraceData->toJson());
  return Doc;
}
