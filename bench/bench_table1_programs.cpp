//===- bench/bench_table1_programs.cpp - Table 1 reproduction -------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 1, "Characteristics of program test suite": line
// counts (excluding comments and blanks, the paper's convention),
// procedure counts, and mean/median lines per procedure, for the twelve
// synthetic stand-ins. Also times the frontend (parse + check + lower)
// per program, since every analysis configuration pays it.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/SuiteRunner.h"
#include "workload/Study.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

static void BM_FrontendPerProgram(benchmark::State &State) {
  const SuiteProgram &Prog = benchmarkSuite()[State.range(0)];
  State.SetLabel(Prog.Name);
  for (auto _ : State)
    benchmark::DoNotOptimize(benchModule(Prog.Source)->instructionCount());
}
BENCHMARK(BM_FrontendPerProgram)->DenseRange(0, 11)->ArgName("program");

int main(int argc, char **argv) {
  SuiteRunner Runner;
  std::printf("%s\n",
              formatTable1(computeTable1(benchmarkSuite(), &Runner)).c_str());
  std::printf("(Stand-ins for the paper's SPEC'89/PERFECT members; see "
              "DESIGN.md for the substitution rationale.)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
