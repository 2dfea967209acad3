//===- bench/bench_costs.cpp - Section 3.1.5 cost model -------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Substantiates the cost discussion of Section 3.1.5 on generated
// programs of increasing size:
//
//  - the literal jump function needs only "a textual scan of the call
//    sites"; the other three require O(N) intraprocedural analysis
//    (SSA + value numbering), so their construction cost is similar and
//    dominates;
//  - "In our implementation, the cost of intraprocedural analysis
//    dominates the cost of the interprocedural phase";
//  - polynomial construction approaches pass-through cost because the
//    complex polynomials are rare and |support| approaches 1.
//
// The phase-time statistics printed at the end come from the pipeline's
// own counters and break one analysis into its four stages.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Pipeline.h"
#include "workload/Generator.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

std::unique_ptr<Module> makeProgram(unsigned Procs, uint64_t Seed) {
  GeneratorConfig Config;
  Config.Seed = Seed;
  Config.NumProcs = Procs;
  Config.NumGlobals = 6;
  Config.StmtsPerProc = 14;
  return benchModule(generateProgram(Config));
}

/// Full analysis cost by forward jump function class, over program size.
void BM_AnalysisByClassAndSize(benchmark::State &State) {
  unsigned Procs = State.range(0);
  auto Kind = static_cast<JumpFunctionKind>(State.range(1));
  auto M = makeProgram(Procs, /*Seed=*/Procs * 7 + 1);
  IPCPOptions Opts;
  Opts.ForwardKind = Kind;
  State.SetLabel(std::string(jumpFunctionKindName(Kind)) + "/" +
                 std::to_string(M->instructionCount()) + "insts");
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M, Opts);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
  State.SetItemsProcessed(State.iterations() * M->instructionCount());
}

} // namespace

BENCHMARK(BM_AnalysisByClassAndSize)
    ->ArgsProduct({{8, 16, 32, 64},
                   {0 /*literal*/, 1 /*intra*/, 2 /*pass*/, 3 /*poly*/}})
    ->ArgNames({"procs", "class"});

namespace {

/// Phase breakdown of one polynomial analysis on a larger program.
void printPhaseBreakdown() {
  auto M = makeProgram(/*Procs=*/48, /*Seed=*/99);
  IPCPResult R = runIPCP(*M);
  std::printf("Section 3.1.5 phase breakdown (%u instructions, "
              "polynomial + return JFs + MOD):\n",
              M->instructionCount());
  for (Counter C :
       {Counter::time_intraprocedural_us, Counter::time_return_jf_us,
        Counter::time_forward_jf_us, Counter::time_propagation_us,
        Counter::time_record_us, Counter::time_total_us})
    std::printf("  %-26s %8llu us\n", counterName(C),
                static_cast<unsigned long long>(R.Stats.get(C)));
  std::printf("  (paper: \"the cost of intraprocedural analysis dominates "
              "the cost of the interprocedural phase\")\n");
  std::printf("  jump functions built: constant=%llu passthrough=%llu "
              "polynomial=%llu bottom=%llu\n\n",
              static_cast<unsigned long long>(
                  R.Stats.get(Counter::jf_constant)),
              static_cast<unsigned long long>(
                  R.Stats.get(Counter::jf_passthrough)),
              static_cast<unsigned long long>(
                  R.Stats.get(Counter::jf_polynomial)),
              static_cast<unsigned long long>(R.Stats.get(Counter::jf_bottom)));

  JsonValue Doc = JsonValue::object();
  Doc.set("instructions", M->instructionCount());
  Doc.set("counters", R.Stats.toJson());
  benchReport("costs", std::move(Doc));
}

} // namespace

int main(int argc, char **argv) {
  printPhaseBreakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
