//===- bench/bench_design_ablations.cpp - implementation knobs ------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Ablations over the implementation choices DESIGN.md documents:
//
//  - the polynomial expression-tree size cap (paper Section 3.1.5 notes
//    polynomial data structures are "significantly greater" in
//    complexity; the paper also observes real polynomials stay tiny, so
//    the cap should cost nothing — verified here);
//  - gated-single-assignment phi resolution on/off (Section 4.2), and
//    its relationship to complete propagation;
//  - hash-consing pressure: how many unique expressions the value
//    numbering creates per program (two structurally equal jump
//    functions share one node — the "context-independent
//    representation" of Section 4.1).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "workload/Generator.h"
#include "workload/Study.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

void printExpressionCapAblation() {
  std::printf("Expression-cap ablation (substituted constants over the "
              "suite):\n  cap:");
  for (unsigned Cap : {2u, 4u, 8u, 64u, 256u})
    std::printf("  %4u", Cap);
  std::printf("\n  refs:");
  for (unsigned Cap : {2u, 4u, 8u, 64u, 256u}) {
    unsigned Total = 0;
    for (const SuiteProgram &Prog : benchmarkSuite()) {
      IPCPOptions Opts;
      Opts.MaxExprNodes = Cap;
      Total += runCell(Prog, Opts);
    }
    std::printf("  %4u", Total);
  }
  std::printf("\n  (the paper: real polynomial jump functions are small; "
              "past a handful of nodes\n   the cap stops mattering)\n\n");
}

void printGatedSSAAblation() {
  std::printf("Gated-SSA ablation (suite totals):\n");
  unsigned Plain = 0, Gated = 0, Complete = 0;
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    auto M = loadSuiteModule(Prog);
    Plain += runIPCP(*M).TotalConstantRefs;
    IPCPOptions G;
    G.UseGatedSSA = true;
    Gated += runIPCP(*M, G).TotalConstantRefs;
    Complete += runCompletePropagation(*M).TotalConstantRefs;
  }
  std::printf("  plain single pass:       %u\n", Plain);
  std::printf("  gated single pass:       %u\n", Gated);
  std::printf("  complete propagation:    %u\n", Complete);
  std::printf("  (Section 4.2: gated == complete, with no DCE rounds)\n\n");
}

void printHashConsingPressure() {
  std::printf("Hash-consing pressure (unique expressions per program):\n");
  std::printf("  program      instructions  unique-exprs\n");
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    auto M = loadSuiteModule(Prog);
    IPCPResult R = runIPCP(*M);
    std::printf("  %-12s %12u  %12llu\n", Prog.Name.c_str(),
                M->instructionCount(),
                static_cast<unsigned long long>(
                    R.Stats.get(Counter::unique_exprs)));
  }
  std::printf("\n");
}

void BM_ExpressionCap(benchmark::State &State) {
  GeneratorConfig Config;
  Config.Seed = 31;
  Config.NumProcs = 24;
  auto M = benchModule(generateProgram(Config));
  IPCPOptions Opts;
  Opts.MaxExprNodes = State.range(0);
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M, Opts);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
}

void BM_GatedSSA(benchmark::State &State) {
  auto M = loadSuiteModule(*findSuiteProgram("ocean"));
  IPCPOptions Opts;
  Opts.UseGatedSSA = State.range(0);
  State.SetLabel(State.range(0) ? "gated" : "plain");
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M, Opts);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
}

} // namespace

BENCHMARK(BM_ExpressionCap)->Arg(4)->Arg(64)->Arg(256)->ArgName("cap");
BENCHMARK(BM_GatedSSA)->Arg(0)->Arg(1)->ArgName("gated");

int main(int argc, char **argv) {
  printExpressionCapAblation();
  printGatedSSAAblation();
  printHashConsingPressure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
