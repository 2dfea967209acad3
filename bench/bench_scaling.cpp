//===- bench/bench_scaling.cpp - Parallel suite + SCC scheduling ----------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The two performance claims of the parallel-analysis work:
//
//  1. Suite throughput scales with worker threads: one full analysis of
//     the twelve-program suite is timed through SuiteRunner at 1/2/4/8
//     jobs (programs are independent, so the ideal is linear until the
//     core count runs out).
//
//  2. SCC condensation scheduling does strictly less work than the naive
//     FIFO worklist: per-program propagator counters (prop_visits,
//     prop_evaluations, prop_revisits) are summed over the suite for
//     both schedules.
//
// The headline numbers land in BENCH_scaling.json (when
// IPCP_BENCH_JSON_DIR is set) so trajectories can compare them
// mechanically; the google-benchmark timings cover the same suite pass
// per thread count plus a warm-vs-cold suite pass through the summary
// cache. The warm-vs-cold work claims are tier-1 tests
// (tests/IncrementalTests.cpp).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Pipeline.h"
#include "core/SuiteRunner.h"
#include "core/SummaryCache.h"
#include "support/Statistics.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

/// One full suite analysis across \p Jobs workers; returns the summed
/// constant-reference count (also serving as a determinism check).
unsigned analyzeSuite(unsigned Jobs) {
  const std::vector<std::unique_ptr<Module>> &Modules = suiteModules();
  std::vector<unsigned> Refs(Modules.size(), 0);
  SuiteRunner Runner(Jobs);
  Runner.run(Modules.size(), [&](size_t I) {
    Refs[I] = runIPCP(*Modules[I]).TotalConstantRefs;
  });
  unsigned Total = 0;
  for (unsigned R : Refs)
    Total += R;
  return Total;
}

/// Propagator work counters over the whole suite for one schedule.
StatisticSet scheduleCounters(PropagationSchedule Schedule) {
  StatisticSet Sum;
  IPCPOptions Opts;
  Opts.Schedule = Schedule;
  for (const std::unique_ptr<Module> &M : suiteModules())
    Sum.merge(runIPCP(*M, Opts).Stats);
  return Sum;
}

void BM_AnalyzeSuiteJobs(benchmark::State &State) {
  unsigned Jobs = unsigned(State.range(0));
  State.SetLabel("jobs=" + std::to_string(Jobs));
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeSuite(Jobs));
}
BENCHMARK(BM_AnalyzeSuiteJobs)->RangeMultiplier(2)->Range(1, 8)->ArgName("jobs");

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
  IPCPOptions Opts;
  Opts.Schedule = State.range(0) == 0 ? PropagationSchedule::SCC
                                      : PropagationSchedule::FIFO;
  State.SetLabel(State.range(0) == 0 ? "scc" : "fifo");
  for (auto _ : State) {
    unsigned Total = 0;
    for (const std::unique_ptr<Module> &M : suiteModules())
      Total += runIPCP(*M, Opts).TotalConstantRefs;
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_PropagateSchedule)->DenseRange(0, 1)->ArgName("schedule");

} // namespace

int main(int argc, char **argv) {
  // Thread-scaling sweep. On a single hardware thread the times stay
  // flat — the interesting check there is that the answers are identical
  // at every job count.
  unsigned Baseline = analyzeSuite(1);
  JsonValue Threads = JsonValue::array();
  double SequentialMs = 0;
  std::printf("suite analysis wall time by worker count:\n");
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    Timer T;
    unsigned Refs = analyzeSuite(Jobs);
    double Ms = T.seconds() * 1e3;
    if (Jobs == 1)
      SequentialMs = Ms;
    std::printf("  jobs=%u  %8.2f ms  speedup %.2fx  refs=%u%s\n", Jobs, Ms,
                Ms > 0 ? SequentialMs / Ms : 0.0, Refs,
                Refs == Baseline ? "" : "  MISMATCH");
    JsonValue Entry = JsonValue::object();
    Entry.set("jobs", Jobs);
    Entry.set("suite_ms", Ms);
    Entry.set("constant_refs", Refs);
    Entry.set("matches_sequential", Refs == Baseline);
    Threads.push(std::move(Entry));
  }

  // Scheduling work counters: the SCC condensation must strictly beat
  // the FIFO baseline on both visits and evaluations.
  StatisticSet SCC = scheduleCounters(PropagationSchedule::SCC);
  StatisticSet FIFO = scheduleCounters(PropagationSchedule::FIFO);
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
  std::printf("\npropagator work over the suite (scc vs fifo):\n"
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
  Doc.set("threads", std::move(Threads));
  Doc.set("schedules", std::move(Schedules));
  Doc.set("scc_strictly_fewer", StrictlyFewer);
  benchReport("scaling", std::move(Doc));

  // Delta against the committed pre-rewrite baseline. Timings should
  // improve; the deterministic work counters must not move at all (the
  // data-oriented rewrite changes layout, not the algorithm).
  if (std::optional<JsonValue> Base = benchBaseline("scaling")) {
    const JsonValue *BaseThreads = Base->find("threads");
    if (BaseThreads && BaseThreads->isArray() && BaseThreads->size() > 0) {
      std::printf("vs committed baseline (bench/baselines):\n");
      const JsonValue *BaseMs = BaseThreads->at(0).find("suite_ms");
      if (BaseMs)
        printBaselineDelta("suite jobs=1", BaseMs->asDouble(), SequentialMs,
                           "ms");
    }
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
