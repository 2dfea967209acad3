//===- bench/bench_table3_ablations.cpp - Table 3 reproduction ------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 3, "Comparison of most precise jump function with
// other propagation techniques": polynomial jump functions without MOD
// information, with MOD information, complete propagation (iterated with
// dead code elimination), and purely intraprocedural propagation.
//
// Expected shape (paper Section 4.2): MOD information exposes many
// additional constants ("particularly striking" in the global-heavy
// programs); complete propagation adds few (ocean and spec77 only);
// interprocedural beats intraprocedural everywhere.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/SuiteRunner.h"
#include "workload/Study.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

void BM_SuiteWithConfig(benchmark::State &State) {
  IPCPOptions Opts;
  bool Complete = false;
  switch (State.range(0)) {
  case 0:
    Opts.UseModInformation = false;
    State.SetLabel("polynomial-without-MOD");
    break;
  case 1:
    State.SetLabel("polynomial-with-MOD");
    break;
  case 2:
    Complete = true;
    State.SetLabel("complete-propagation");
    break;
  default:
    Opts.IntraproceduralOnly = true;
    State.SetLabel("intraprocedural-only");
    break;
  }
  for (auto _ : State) {
    unsigned Total = 0;
    for (const std::unique_ptr<Module> &M : suiteModules())
      Total += Complete ? runCompletePropagation(*M, Opts).TotalConstantRefs
                        : runIPCP(*M, Opts).TotalConstantRefs;
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_SuiteWithConfig)->DenseRange(0, 3)->ArgName("config");

} // namespace

int main(int argc, char **argv) {
  SuiteRunner Runner;
  std::vector<Table3Row> Rows = computeTable3(benchmarkSuite(), &Runner);
  std::printf("%s\n", formatTable3(Rows).c_str());

  unsigned NoMod = 0, WithMod = 0, Complete = 0, Intra = 0;
  unsigned ModHurts = 0, CompleteHelps = 0;
  for (const Table3Row &Row : Rows) {
    NoMod += Row.PolynomialWithoutMod;
    WithMod += Row.PolynomialWithMod;
    Complete += Row.CompletePropagation;
    Intra += Row.IntraproceduralOnly;
    if (Row.PolynomialWithoutMod < Row.PolynomialWithMod)
      ++ModHurts;
    if (Row.CompletePropagation > Row.PolynomialWithMod)
      ++CompleteHelps;
  }
  std::printf("totals: without-MOD=%u with-MOD=%u complete=%u "
              "intraprocedural=%u\n",
              NoMod, WithMod, Complete, Intra);
  std::printf("programs hurt by losing MOD: %u/12; programs helped by "
              "complete propagation: %u/12 (paper: ocean and spec77)\n\n",
              ModHurts, CompleteHelps);

  JsonValue Totals = JsonValue::object();
  Totals.set("polynomial_without_mod", NoMod);
  Totals.set("polynomial_with_mod", WithMod);
  Totals.set("complete_propagation", Complete);
  Totals.set("intraprocedural_only", Intra);
  Totals.set("programs_hurt_by_losing_mod", ModHurts);
  Totals.set("programs_helped_by_complete", CompleteHelps);
  JsonValue Doc = JsonValue::object();
  Doc.set("table3", table3ToJson(Rows));
  Doc.set("totals", std::move(Totals));
  benchReport("table3", std::move(Doc));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
