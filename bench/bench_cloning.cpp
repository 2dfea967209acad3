//===- bench/bench_cloning.cpp - cloning application ----------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The paper's Section 5 reports (via Metzger & Stroud [13]) that
// goal-directed procedure cloning based on interprocedural constants
// "can substantially increase the number of interprocedural constants
// available". This binary runs the cloning transformation over the
// benchmark suite and over synthetic divergent-call-site programs, and
// reports constants before/after along with the code-growth cost.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Cloning.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

std::string divergentProgram(unsigned Kernels, unsigned SitesPerKernel) {
  std::string Src;
  for (unsigned K = 0; K != Kernels; ++K) {
    Src += "proc kern" + std::to_string(K) + "(n, w) {\n"
           "  var i;\n"
           "  do i = 1, n { print i * w; }\n"
           "}\n";
  }
  Src += "proc main() {\n";
  for (unsigned K = 0; K != Kernels; ++K)
    for (unsigned S = 0; S != SitesPerKernel; ++S)
      Src += "  call kern" + std::to_string(K) + "(" +
             std::to_string(4 + 4 * S) + ", 3);\n";
  Src += "}\n";
  return Src;
}

void printCloningTable() {
  std::printf("Cloning application (paper Section 5 / refs [6, 13]):\n");
  std::printf("program      clones  refs-before  refs-after  insts-before  "
              "insts-after\n");
  auto Report = [](const std::string &Name, const CloningResult &R) {
    std::printf("%-12s %6u  %11u  %10u  %12u  %11u\n", Name.c_str(),
                R.ClonesCreated, R.RefsBefore, R.RefsAfter,
                R.InstructionsBefore, R.InstructionsAfter);
  };
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    auto M = loadSuiteModule(Prog);
    Report(Prog.Name, cloneForConstants(*M));
  }
  for (unsigned Sites : {2u, 3u}) {
    auto M = benchModule(divergentProgram(3, Sites));
    Report("divergent-" + std::to_string(Sites), cloneForConstants(*M));
  }
  std::printf("\n");
}

void BM_CloneForConstants(benchmark::State &State) {
  std::string Source = divergentProgram(State.range(0), 3);
  for (auto _ : State) {
    State.PauseTiming();
    auto M = benchModule(Source); // cloning mutates: fresh module per run
    State.ResumeTiming();
    CloningResult R = cloneForConstants(*M);
    benchmark::DoNotOptimize(R.RefsAfter);
  }
}
BENCHMARK(BM_CloneForConstants)->Arg(2)->Arg(4)->Arg(8)->ArgName("kernels");

} // namespace

int main(int argc, char **argv) {
  printCloningTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
