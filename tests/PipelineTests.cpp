//===- tests/PipelineTests.cpp - end-to-end driver tests ------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/DeadCode.h"
#include "core/BindingGraph.h"
#include "core/Pipeline.h"
#include "ir/IRPrinter.h"
#include "workload/Generator.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// The ocean-like pattern used throughout: an init routine, a guarded
/// clobber, and phases reading the constants.
const char *OceanLike = R"(
global nx, dt, steps, debug, depth;
proc init() {
  nx = 20; dt = 4; steps = 3; debug = 0; depth = 100;
}
proc noisy() {
  var v;
  read v;
  depth = v;
}
proc phase(k) {
  if (debug != 0) { call noisy(); }
  print depth + k * dt;
}
proc main() {
  var t;
  call init();
  do t = 1, steps { call phase(t); }
  print depth;
}
)";

TEST(Pipeline, CountsConstantReferences) {
  auto M = lowerOk("proc f(a) { print a + a; }\n"
                   "proc main() { call f(21); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 2u) << "both refs of a";
  EXPECT_EQ(R.TotalConstantRefs, 2u);
  EXPECT_EQ(R.TotalEntryConstants, 1u);
}

TEST(Pipeline, CountsIncludeIntraproceduralCascades) {
  // The metric counts every variable reference proven constant once the
  // entry constants are substituted and local propagation reruns.
  auto M = lowerOk("proc f(a) { var b; b = a * 2; print b + 1; }\n"
                   "proc main() { call f(10); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 2u) << "the a ref and the b ref";
}

TEST(Pipeline, RefsInDeadBranchesAreNotCounted) {
  auto M = lowerOk("proc f(flag, x) { if (flag) { print x; } }\n"
                   "proc main() { call f(0, 5); }");
  IPCPResult R = runIPCP(*M);
  // flag's own ref in the condition counts; x's ref inside the dead
  // branch does not.
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 1u);
}

TEST(Pipeline, FactsApplyToTheOriginalModule) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { call f(3); }");
  IPCPResult R = runIPCP(*M);
  ASSERT_EQ(R.Facts.ConstantLoads.size(), 1u);
  TransformStats Stats = applyFacts(*M, R.Facts);
  EXPECT_EQ(Stats.LoadsReplaced, 1u);
  expectVerifies(*M);
  // After substitution, no scalar load of the formal remains in f.
  EXPECT_EQ(countInsts<LoadInst>(*getProc(*M, "f")), 0u);
}

TEST(Pipeline, ModuleIsNotMutatedByAnalysis) {
  auto M = lowerOk("proc f(a) { print a; }\nproc main() { call f(3); }");
  unsigned Before = M->instructionCount();
  runIPCP(*M);
  EXPECT_EQ(M->instructionCount(), Before);
}

// The analysis only reads its module: SSA form lives in side tables, so
// runIPCP and a jump-function build leave the printed module, its
// instruction count and its next instruction and variable IDs as they
// were. (The module's lazy instruction stream and entry values are the
// only state they may fill in.)
TEST(Pipeline, AnalysisLeavesEveryModuleUntouched) {
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> Modules;
  for (const SuiteProgram &Prog : benchmarkSuite())
    Modules.push_back({Prog.Name, loadSuiteModule(Prog)});
  for (bool Recursion : {false, true})
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      GeneratorConfig Config;
      Config.Seed = Seed;
      Config.NumProcs = 6;
      Config.NumGlobals = 4;
      Config.AllowRecursion = Recursion;
      Modules.push_back({"generated seed " + std::to_string(Seed) +
                             (Recursion ? " (recursive)" : ""),
                         lowerOk(generateProgram(Config))});
    }

  std::vector<std::pair<std::string, IPCPOptions>> Configs(4);
  Configs[0].first = "default";
  Configs[1].first = "gated-ssa";
  Configs[1].second.UseGatedSSA = true;
  Configs[2].first = "no-mod";
  Configs[2].second.UseModInformation = false;
  Configs[3].first = "contexts";
  Configs[3].second.Engine = PropagationEngine::Contexts;

  for (const auto &[Name, M] : Modules) {
    std::string Text = printModule(*M);
    unsigned Insts = M->instructionCount();
    uint64_t InstIds = M->instIdBound(), VarIds = M->varIdBound();
    auto ExpectUntouched = [&](const std::string &What) {
      EXPECT_EQ(printModule(*M), Text) << Name << ", " << What;
      EXPECT_EQ(M->instructionCount(), Insts) << Name << ", " << What;
      EXPECT_EQ(M->instIdBound(), InstIds) << Name << ", " << What;
      EXPECT_EQ(M->varIdBound(), VarIds) << Name << ", " << What;
    };
    for (const auto &[ConfigName, Opts] : Configs) {
      runIPCP(*M, Opts);
      ExpectUntouched("runIPCP " + ConfigName);
      ModuleAnalysis A(*M, Opts);
      buildJumpFunctions(A, Opts);
      ExpectUntouched("buildJumpFunctions " + ConfigName);
      propagateConstantsFIFO(A.CG, A.MRI, A.Tables.FJFs);
      propagateConstantsBindingGraph(A.CG, A.MRI, A.Tables.FJFs);
      ExpectUntouched("the reference solvers " + ConfigName);
    }
  }
}

TEST(Pipeline, OceanPatternNeedsReturnJumpFunctions) {
  auto M = lowerOk(OceanLike);
  IPCPResult With = runIPCP(*M);
  IPCPOptions NoRet;
  NoRet.UseReturnJumpFunctions = false;
  IPCPResult Without = runIPCP(*M, NoRet);
  EXPECT_GT(With.TotalConstantRefs, 3 * Without.TotalConstantRefs)
      << "the init-routine constants dominate (paper: ocean tripled)";
}

TEST(Pipeline, CompletePropagationExposesGuardedConstants) {
  auto M = lowerOk(OceanLike);
  IPCPResult Single = runIPCP(*M);
  CompletePropagationResult Complete = runCompletePropagation(*M);
  EXPECT_EQ(Complete.Rounds, 2u) << "one dead-code round, as in the paper";
  EXPECT_GT(Complete.TotalConstantRefs, Single.TotalConstantRefs)
      << "depth becomes provably constant once noisy() is removed";
  EXPECT_GT(Complete.BlocksRemoved, 0u);
}

TEST(Pipeline, CompletePropagationIsIdempotentWithoutDeadCode) {
  auto M = lowerOk("proc f(a) { print a; }\nproc main() { call f(3); }");
  IPCPResult Single = runIPCP(*M);
  CompletePropagationResult Complete = runCompletePropagation(*M);
  EXPECT_EQ(Complete.Rounds, 1u);
  EXPECT_EQ(Complete.TotalConstantRefs, Single.TotalConstantRefs);
  EXPECT_EQ(Complete.BlocksRemoved, 0u);
}

TEST(Pipeline, CompletePropagationDoesNotMutateInput) {
  auto M = lowerOk(OceanLike);
  unsigned Before = M->instructionCount();
  runCompletePropagation(*M);
  EXPECT_EQ(M->instructionCount(), Before);
}

TEST(Pipeline, IntraproceduralBaseline) {
  auto M = lowerOk("proc f(a) { var k; k = 6; print k + a; }\n"
                   "proc main() { call f(1); }");
  IPCPOptions Intra;
  Intra.IntraproceduralOnly = true;
  IPCPResult R = runIPCP(*M, Intra);
  EXPECT_EQ(R.TotalEntryConstants, 0u) << "no interprocedural information";
  EXPECT_EQ(R.findProc("f")->ConstantRefs, 1u) << "only the local k";
  IPCPResult Full = runIPCP(*M);
  EXPECT_EQ(Full.findProc("f")->ConstantRefs, 2u);
}

TEST(Pipeline, StatsExposePhaseTimings) {
  auto M = lowerOk(OceanLike);
  IPCPResult R = runIPCP(*M);
  EXPECT_GT(R.Stats.get("constants_found"), 0u);
  EXPECT_EQ(R.Stats.get("constant_refs"), R.TotalConstantRefs);
  EXPECT_GT(R.Stats.get("rjf_entries"), 0u);
  EXPECT_GT(R.Stats.get("jf_constant") + R.Stats.get("jf_passthrough") +
                R.Stats.get("jf_polynomial"),
            0u);
  // Timings exist (values are machine dependent).
  EXPECT_GE(R.Stats.get("time_total_us"), R.Stats.get("time_propagation_us"));
}

TEST(Pipeline, NoModOptionUsesWorstCase) {
  // The calls sit in a loop so the phi at the header defeats the
  // identity-return-jump-function recovery; without MOD information the
  // body's view of g is destroyed, exactly the Table 3 column 1 effect.
  auto M = lowerOk("global g;\n"
                   "proc pure(a) { print a + g; }\n"
                   "proc main() { var t; g = 8; do t = 1, 3 { "
                   "call pure(1); } }");
  IPCPResult With = runIPCP(*M);
  IPCPOptions NoMod;
  NoMod.UseModInformation = false;
  IPCPResult Without = runIPCP(*M, NoMod);
  EXPECT_GT(With.TotalConstantRefs, Without.TotalConstantRefs)
      << "without MOD the second call site loses g";
}

TEST(Pipeline, EmptyProgramIsFine) {
  auto M = lowerOk("proc main() { }");
  IPCPResult R = runIPCP(*M);
  EXPECT_EQ(R.TotalConstantRefs, 0u);
  CompletePropagationResult C = runCompletePropagation(*M);
  EXPECT_EQ(C.Rounds, 1u);
}

} // namespace
