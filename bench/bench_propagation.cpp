//===- bench/bench_propagation.cpp - propagation complexity ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Measures the interprocedural propagation phase against the paper's
// complexity claims (Section 3.1.5 / the 1986 bounds):
//
//  - the lattice is shallow, so each VAL entry lowers at most twice and
//    work is O(sum of cost(J) * |support(J)|) — the lowering counters
//    printed below grow linearly in the number of parameters even on
//    pathological call-graph shapes;
//  - pass-through chains of any depth converge in time linear in the
//    chain length;
//  - parallel (diamond) call sites with agreeing constants cost the same
//    as one site; disagreeing sites lower twice and stop.
//
// It is also a gate: it exits 1 when the call-graph and binding-graph
// formulations reach different fixpoints, or when a chain lowers more
// than twice per parameter (Figure 1's depth bound, on which the Section
// 3.1.5 cost argument rests).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/BindingGraph.h"
#include "core/Pipeline.h"
#include "workload/Generator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace ipcp;

namespace {

/// A pass-through chain of the given depth: main -> p0 -> ... -> pN-1.
std::string chainProgram(unsigned Depth) {
  std::string Src;
  for (unsigned I = 0; I != Depth; ++I) {
    Src += "proc p" + std::to_string(I) + "(a, b) {\n";
    if (I + 1 != Depth)
      Src += "  call p" + std::to_string(I + 1) + "(a, b);\n";
    Src += "  print a + b;\n}\n";
  }
  Src += "proc main() { call p0(7, 9); }\n";
  return Src;
}

/// A fan: main calls every leaf directly (wide, shallow).
std::string fanProgram(unsigned Width, bool Agree) {
  std::string Src;
  for (unsigned I = 0; I != Width; ++I)
    Src += "proc leaf" + std::to_string(I) + "(x) { print x; }\n";
  Src += "proc shared(y) { print y; }\n";
  Src += "proc main() {\n";
  for (unsigned I = 0; I != Width; ++I) {
    Src += "  call leaf" + std::to_string(I) + "(5);\n";
    Src += "  call shared(" + std::to_string(Agree ? 5 : I) + ");\n";
  }
  Src += "}\n";
  return Src;
}

void BM_ChainDepth(benchmark::State &State) {
  auto M = benchModule(chainProgram(State.range(0)));
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_ChainDepth)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->ArgName("depth");

void BM_FanWidth(benchmark::State &State) {
  auto M = benchModule(fanProgram(State.range(0), State.range(1)));
  State.SetLabel(State.range(1) ? "agreeing" : "disagreeing");
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
}
BENCHMARK(BM_FanWidth)
    ->ArgsProduct({{8, 32, 128}, {0, 1}})
    ->ArgNames({"width", "agree"});

/// Compares the two solver formulations (call-graph worklist vs the
/// binding multigraph of [7]) on the same prebuilt jump functions.
void BM_SolverFormulation(benchmark::State &State) {
  GeneratorConfig Config;
  Config.Seed = 17;
  Config.NumProcs = State.range(0);
  Config.NumGlobals = 8;
  auto M = benchModule(generateProgram(Config));

  IPCPOptions Opts;
  ModuleAnalysis Analysis(*M, Opts);
  buildJumpFunctions(Analysis, Opts);
  const CallGraph &CG = Analysis.CG;
  const ModRefInfo &MRI = Analysis.MRI;
  const ForwardJumpFunctions &FJFs = Analysis.Tables.FJFs;

  bool Binding = State.range(1);
  State.SetLabel(Binding ? "binding-graph" : "call-graph");
  for (auto _ : State) {
    ConstantsMap CM =
        Binding ? propagateConstantsBindingGraph(CG, MRI, FJFs)
                : propagateConstants(CG, MRI, FJFs);
    benchmark::DoNotOptimize(CM.totalConstants());
  }
}
BENCHMARK(BM_SolverFormulation)
    ->ArgsProduct({{16, 48}, {0, 1}})
    ->ArgNames({"procs", "binding"});

JsonValue printSolverComparison(bool &Ok) {
  std::printf("Solver formulations on one 48-procedure generated program "
              "(identical fixpoints):\n");
  GeneratorConfig Config;
  Config.Seed = 17;
  Config.NumProcs = 48;
  Config.NumGlobals = 8;
  auto M = benchModule(generateProgram(Config));
  IPCPOptions Opts;
  ModuleAnalysis Analysis(*M, Opts);
  buildJumpFunctions(Analysis, Opts);
  const CallGraph &CG = Analysis.CG;
  const ModRefInfo &MRI = Analysis.MRI;
  const ForwardJumpFunctions &FJFs = Analysis.Tables.FJFs;
  PropagatorStats CGStats, BGStats;
  ConstantsMap A = propagateConstants(CG, MRI, FJFs, &CGStats);
  ConstantsMap B = propagateConstantsBindingGraph(CG, MRI, FJFs, &BGStats);
  std::printf("  call-graph worklist:      %6llu JF evaluations, %4llu "
              "lowerings\n",
              (unsigned long long)CGStats.JumpFunctionEvaluations,
              (unsigned long long)CGStats.Lowerings);
  std::printf("  binding multigraph [7]:   %6llu JF evaluations, %4llu "
              "lowerings\n",
              (unsigned long long)BGStats.JumpFunctionEvaluations,
              (unsigned long long)BGStats.Lowerings);
  std::printf("  fixpoints agree: %s; constants: %u\n",
              A.equals(B) ? "yes" : "NO", A.totalConstants());
  if (!A.equals(B)) {
    std::fprintf(stderr, "FATAL: the two formulations' fixpoints differ\n");
    Ok = false;
  }
  std::printf("  (lowering counts may differ: a cell can step T->_|_ "
              "directly in one order\n   and T->c->_|_ in the other; "
              "which formulation evaluates less depends on\n   call-graph "
              "density — sparse support favors the binding graph.)\n\n");

  auto StatsJson = [](const PropagatorStats &S) {
    JsonValue Obj = JsonValue::object();
    Obj.set("visits", S.ProcVisits);
    Obj.set("evaluations", S.JumpFunctionEvaluations);
    Obj.set("lowerings", S.Lowerings);
    return Obj;
  };
  JsonValue Out = JsonValue::object();
  Out.set("call_graph_worklist", StatsJson(CGStats));
  Out.set("binding_multigraph", StatsJson(BGStats));
  Out.set("fixpoints_agree", A.equals(B));
  Out.set("constants", A.totalConstants());
  return Out;
}

JsonValue printLoweringLinearity(bool &Ok) {
  std::printf("Lowerings vs chain depth (each VAL entry lowers at most "
              "twice; Figure-1 depth bound):\n");
  std::printf("  depth  parameters  lowerings  evaluations  visits\n");
  JsonValue Out = JsonValue::array();
  for (unsigned Depth : {4u, 16u, 64u, 256u}) {
    auto M = benchModule(chainProgram(Depth));
    IPCPResult R = runIPCP(*M);
    std::printf("  %5u  %10u  %9llu  %11llu  %6llu\n", Depth, 2 * Depth,
                static_cast<unsigned long long>(
                    R.Stats.get(Counter::prop_lowerings)),
                static_cast<unsigned long long>(
                    R.Stats.get(Counter::prop_evaluations)),
                static_cast<unsigned long long>(
                    R.Stats.get(Counter::prop_visits)));
    if (R.Stats.get(Counter::prop_lowerings) > 2 * 2 * Depth) {
      std::fprintf(stderr,
                   "FATAL: depth-%u chain lowers more than twice per "
                   "parameter\n",
                   Depth);
      Ok = false;
    }
    JsonValue Row = JsonValue::object();
    Row.set("depth", Depth);
    Row.set("parameters", 2 * Depth);
    Row.set("lowerings", R.Stats.get(Counter::prop_lowerings));
    Row.set("evaluations", R.Stats.get(Counter::prop_evaluations));
    Row.set("visits", R.Stats.get(Counter::prop_visits));
    Out.push(std::move(Row));
  }
  std::printf("\n");
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Ok = true;
  JsonValue Doc = JsonValue::object();
  Doc.set("lowering_linearity", printLoweringLinearity(Ok));
  Doc.set("solver_comparison", printSolverComparison(Ok));
  benchReport("propagation", std::move(Doc));
  if (!Ok)
    return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
