//===- bench/bench_scaling.cpp - SCC propagation scheduling ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// SCC condensation scheduling (propagateConstants) does strictly less
// work than the naive FIFO worklist (propagateConstantsFIFO): per-program
// propagator counters (prop_visits, prop_evaluations, prop_revisits) are
// summed over the suite for both schedules, each solving the same
// prebuilt jump functions, and the harness exits 1 unless SCC wins on
// visits and evaluations.
//
// The counters land in BENCH_scaling.json (when IPCP_BENCH_JSON_DIR is
// set) and are compared with the committed baseline: a deterministic
// counter that moved is reported as COUNTER DRIFT, which CI's
// perf-smoke job fails on. The google-benchmark timings cover one solve
// of the suite per schedule plus a warm-vs-cold suite pass through the
// summary cache. The warm-vs-cold work claims are tier-1 tests
// (tests/IncrementalTests.cpp), and parallel suite output equals
// sequential output by SuiteDeterminism.ReportByteIdenticalAcrossJobCounts
// and the suitecheck_report_json_stdout ctest.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Pipeline.h"
#include "core/SummaryCache.h"
#include "support/Statistics.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

/// The suite's call graphs, MOD/REF and jump functions, built once.
const std::vector<std::unique_ptr<ModuleAnalysis>> &suiteAnalyses() {
  static const std::vector<std::unique_ptr<ModuleAnalysis>> Analyses = [] {
    std::vector<std::unique_ptr<ModuleAnalysis>> Out;
    for (const std::unique_ptr<Module> &M : suiteModules()) {
      Out.push_back(std::make_unique<ModuleAnalysis>(*M, IPCPOptions()));
      buildJumpFunctions(*Out.back(), IPCPOptions());
    }
    return Out;
  }();
  return Analyses;
}

/// Solves \p A's jump functions under the FIFO or the SCC schedule.
ConstantsMap solve(const ModuleAnalysis &A, bool FIFO,
                   PropagatorStats *Stats = nullptr) {
  return FIFO ? propagateConstantsFIFO(A.CG, A.MRI, A.Tables.FJFs, Stats)
              : propagateConstants(A.CG, A.MRI, A.Tables.FJFs, Stats);
}

/// Propagator work counters over the whole suite for one schedule.
StatisticSet scheduleCounters(bool FIFO) {
  StatisticSet Sum;
  for (const std::unique_ptr<ModuleAnalysis> &A : suiteAnalyses()) {
    PropagatorStats PS;
    solve(*A, FIFO, &PS);
    Sum.add(Counter::prop_visits, PS.ProcVisits);
    Sum.add(Counter::prop_evaluations, PS.JumpFunctionEvaluations);
    Sum.add(Counter::prop_lowerings, PS.Lowerings);
    Sum.add(Counter::prop_revisits, PS.Revisits);
  }
  return Sum;
}

void BM_SuiteCached(benchmark::State &State) {
  bool Warm = State.range(0) != 0;
  State.SetLabel(Warm ? "warm" : "cold");
  // The warm variant analyzes through per-program caches populated once
  // outside the timed loop; every iteration after that is a full warm
  // rerun (all summaries adopted, no propagation work).
  std::vector<SummaryCache> Caches(suiteModules().size());
  if (Warm)
    for (size_t I = 0; I != suiteModules().size(); ++I)
      runIPCP(*suiteModules()[I], {}, nullptr, &Caches[I]);
  for (auto _ : State) {
    unsigned Total = 0;
    for (size_t I = 0; I != suiteModules().size(); ++I)
      Total += runIPCP(*suiteModules()[I], {}, nullptr,
                       Warm ? &Caches[I] : nullptr)
                   .TotalConstantRefs;
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_SuiteCached)->DenseRange(0, 1)->ArgName("warm");

void BM_PropagateSchedule(benchmark::State &State) {
  bool FIFO = State.range(0) != 0;
  State.SetLabel(FIFO ? "fifo" : "scc");
  for (auto _ : State) {
    unsigned Total = 0;
    for (const std::unique_ptr<ModuleAnalysis> &A : suiteAnalyses())
      Total += solve(*A, FIFO).totalConstants();
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_PropagateSchedule)->DenseRange(0, 1)->ArgName("schedule");

} // namespace

int main(int argc, char **argv) {
  // Scheduling work counters: the SCC condensation must strictly beat
  // the FIFO baseline on both visits and evaluations.
  StatisticSet SCC = scheduleCounters(/*FIFO=*/false);
  StatisticSet FIFO = scheduleCounters(/*FIFO=*/true);
  auto CountersJson = [](const StatisticSet &S) {
    JsonValue Obj = JsonValue::object();
    for (Counter C : {Counter::prop_visits, Counter::prop_evaluations,
                      Counter::prop_lowerings, Counter::prop_revisits})
      Obj.set(counterName(C), S.get(C));
    return Obj;
  };
  bool StrictlyFewer =
      SCC.get(Counter::prop_visits) < FIFO.get(Counter::prop_visits) &&
      SCC.get(Counter::prop_evaluations) < FIFO.get(Counter::prop_evaluations);
  std::printf("propagator work over the suite (scc vs fifo):\n"
              "  visits:      %llu vs %llu\n"
              "  evaluations: %llu vs %llu\n"
              "  revisits:    %llu vs %llu\n"
              "  scc strictly fewer: %s\n\n",
              (unsigned long long)SCC.get(Counter::prop_visits),
              (unsigned long long)FIFO.get(Counter::prop_visits),
              (unsigned long long)SCC.get(Counter::prop_evaluations),
              (unsigned long long)FIFO.get(Counter::prop_evaluations),
              (unsigned long long)SCC.get(Counter::prop_revisits),
              (unsigned long long)FIFO.get(Counter::prop_revisits),
              StrictlyFewer ? "yes" : "NO");

  JsonValue Schedules = JsonValue::object();
  Schedules.set("scc", CountersJson(SCC));
  Schedules.set("fifo", CountersJson(FIFO));
  JsonValue Doc = JsonValue::object();
  Doc.set("schedules", std::move(Schedules));
  Doc.set("scc_strictly_fewer", StrictlyFewer);
  benchReport("scaling", std::move(Doc));

  // The deterministic work counters must not move from the committed
  // baseline at all: a layout change is not an algorithm change.
  if (std::optional<JsonValue> Base = benchBaseline("scaling")) {
    std::printf("vs committed baseline (bench/baselines):\n");
    bool CountersStable = true;
    if (const JsonValue *BaseSched = Base->find("schedules"))
      for (const char *Sched : {"scc", "fifo"})
        if (const JsonValue *BS = BaseSched->find(Sched)) {
          const StatisticSet &Now =
              std::string(Sched) == "scc" ? SCC : FIFO;
          for (Counter C : {Counter::prop_visits, Counter::prop_evaluations,
                            Counter::prop_revisits})
            if (const JsonValue *BV = BS->find(counterName(C)))
              if (uint64_t(BV->asInt()) != Now.get(C)) {
                std::printf("  COUNTER DRIFT %s/%s: baseline %lld now "
                            "%llu\n",
                            Sched, counterName(C), (long long)BV->asInt(),
                            (unsigned long long)Now.get(C));
                CountersStable = false;
              }
        }
    std::printf("  deterministic counters vs baseline: %s\n\n",
                CountersStable ? "unchanged" : "CHANGED");
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return StrictlyFewer ? 0 : 1;
}
