//===- tests/BindingGraphTests.cpp - binding multigraph solver tests ------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The binding-multigraph propagator (the paper's cited alternative
// formulation [7]) must compute exactly the same fixpoint as the
// call-graph worklist, while re-evaluating only jump functions whose
// support changed.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/BindingGraph.h"
#include "core/Pipeline.h"
#include "support/FileIO.h"
#include "workload/Generator.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Builds the analysis state and runs both solvers on the same inputs.
struct DualRun {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  ModuleAnalysis A;

  explicit DualRun(std::unique_ptr<Module> Input, IPCPOptions TheOpts = {})
      : M(std::move(Input)), Opts(TheOpts), A(*M, Opts) {
    buildJumpFunctions(A, Opts);
  }

  ConstantsMap callGraph(PropagatorStats *Stats = nullptr) {
    return propagateConstants(A.CG, A.MRI, A.Tables.FJFs, Stats);
  }
  ConstantsMap fifo(PropagatorStats *Stats = nullptr) {
    return propagateConstantsFIFO(A.CG, A.MRI, A.Tables.FJFs, Stats);
  }
  ConstantsMap bindingGraph(PropagatorStats *Stats = nullptr) {
    return propagateConstantsBindingGraph(A.CG, A.MRI, A.Tables.FJFs, Stats);
  }
};

TEST(BindingGraph, AgreesOnSimpleChain) {
  DualRun Run(lowerOk("proc c(z) { print z; }\n"
                      "proc b(y) { call c(y + 1); }\n"
                      "proc a(x) { call b(x * 2); }\n"
                      "proc main() { call a(5); }"));
  ConstantsMap A = Run.callGraph();
  ConstantsMap B = Run.bindingGraph();
  EXPECT_TRUE(A.equals(B));
  Procedure *C = getProc(*Run.M, "c");
  EXPECT_EQ(B.valueOf(C, C->formals()[0]).getConstant(), 11);
}

TEST(BindingGraph, AgreesOnConflicts) {
  DualRun Run(lowerOk("proc f(a, b) { print a + b; }\n"
                      "proc main() { call f(1, 9); call f(2, 9); }"));
  ConstantsMap A = Run.callGraph();
  ConstantsMap B = Run.bindingGraph();
  EXPECT_TRUE(A.equals(B));
  Procedure *F = getProc(*Run.M, "f");
  EXPECT_TRUE(B.valueOf(F, F->formals()[0]).isBottom());
  EXPECT_EQ(B.valueOf(F, F->formals()[1]).getConstant(), 9);
}

TEST(BindingGraph, MapsReadTopWhereTheyHoldNoRow) {
  // "No constants" is the answer of the empty map (a tripped solve or an
  // intraprocedural-only run) and of a procedure the map was not solved
  // for, even one whose module index has a row in it.
  const char *Source = "proc f(a) { print a; }\n"
                       "proc main() { call f(1); }";
  DualRun Run(lowerOk(Source));
  std::unique_ptr<Module> Other = lowerOk(Source);
  Procedure *F = getProc(*Run.M, "f");
  Procedure *OtherF = getProc(*Other, "f");
  for (const ConstantsMap &CM : {Run.callGraph(), Run.bindingGraph()}) {
    EXPECT_EQ(CM.valueOf(F, F->formals()[0]).getConstant(), 1);
    EXPECT_TRUE(CM.valueOf(OtherF, OtherF->formals()[0]).isTop());
    EXPECT_TRUE(CM.row(OtherF).Vals.empty());
  }
  ConstantsMap Empty;
  EXPECT_TRUE(Empty.valueOf(F, F->formals()[0]).isTop());
  EXPECT_TRUE(Empty.constantsOf(F).empty());
  EXPECT_EQ(Empty.totalEntries(), 0u);
}

TEST(BindingGraph, AgreesOnRecursion) {
  DualRun Run(lowerOk(
      "proc f(n, k) { if (n > 0) { call f(n - 1, k); } print k; }\n"
      "proc main() { call f(3, 42); }"));
  EXPECT_TRUE(Run.callGraph().equals(Run.bindingGraph()));
}

TEST(BindingGraph, AgreesOnGlobalsAndEntryEdge) {
  DualRun Run(lowerOk("global g, h;\n"
                      "proc use() { print g + h; }\n"
                      "proc main() { g = 5; call use(); }"));
  ConstantsMap A = Run.callGraph();
  ConstantsMap B = Run.bindingGraph();
  EXPECT_TRUE(A.equals(B));
  Procedure *Use = getProc(*Run.M, "use");
  EXPECT_EQ(B.valueOf(Use, Run.M->findGlobal("g")).getConstant(), 5);
  // h reaches use still holding its initial zero.
  EXPECT_EQ(B.valueOf(Use, Run.M->findGlobal("h")).getConstant(), 0);
}

TEST(BindingGraph, AgreesOnUnreachableCallerSemantics) {
  DualRun Run(lowerOk("proc f(a) { print a; }\n"
                      "proc dead() { call f(1); }\n"
                      "proc main() { call f(2); }"));
  ConstantsMap A = Run.callGraph();
  ConstantsMap B = Run.bindingGraph();
  EXPECT_TRUE(A.equals(B));
  Procedure *F = getProc(*Run.M, "f");
  EXPECT_TRUE(B.valueOf(F, F->formals()[0]).isBottom())
      << "the dead call's literal still meets (paper semantics)";
}

TEST(BindingGraph, ReevaluatesOnlyDependentEdges) {
  // A wide fan where only one parameter's lowering matters: the binding
  // graph must evaluate far fewer jump functions than the per-procedure
  // worklist visits.
  std::string Src;
  for (int I = 0; I != 30; ++I)
    Src += "proc leaf" + std::to_string(I) + "(x) { print x; }\n";
  Src += "proc hub(v) {\n";
  for (int I = 0; I != 30; ++I)
    Src += "  call leaf" + std::to_string(I) + "(" + std::to_string(I) +
           ");\n";
  Src += "  call leaf0(v);\n}\n";
  Src += "proc main() { call hub(7); }\n";

  // The binding graph's claimed advantage is over the naive FIFO
  // worklist (the SCC schedule also avoids the revisit, so pin the
  // baseline explicitly).
  DualRun Run(lowerOk(Src));
  PropagatorStats CGStats, BGStats;
  ConstantsMap A = Run.fifo(&CGStats);
  ConstantsMap B = Run.bindingGraph(&BGStats);
  EXPECT_TRUE(A.equals(B));
  // FIFO worklist: hub is revisited after v lowers, re-evaluating all 31
  // jump functions. Binding graph: only the single v-dependent edge is
  // re-evaluated beyond the initial sweep.
  EXPECT_LT(BGStats.JumpFunctionEvaluations,
            CGStats.JumpFunctionEvaluations);
}

// The golden corpus (tests/golden/): the binding multigraph reaches the
// analyzer's fixpoint on every program, and its work counters stay
// pinned as visits/evaluations/lowerings/revisits.
TEST(BindingGraph, GoldenCorpusCounters) {
  struct Expected {
    const char *Program;
    PropagatorStats Stats;
  };
  const Expected Corpus[] = {
      {"heat", {9, 10, 10, 0}},
      {"deep_nest", {0, 0, 0, 0}},
      {"divergent", {2, 6, 3, 0}},
      {"context_swap", {6, 11, 9, 0}},
  };
  for (const auto &[Program, Want] : Corpus) {
    std::string Source, Error;
    ASSERT_TRUE(readFileToString(std::string(IPCP_EXAMPLES_DIR) + "/" +
                                     Program + ".mf",
                                 Source, &Error))
        << Error;
    DualRun Run(lowerOk(Source));
    PropagatorStats Got;
    ConstantsMap B = Run.bindingGraph(&Got);
    EXPECT_TRUE(Run.callGraph().equals(B)) << Program;
    EXPECT_EQ(Got.ProcVisits, Want.ProcVisits) << Program;
    EXPECT_EQ(Got.JumpFunctionEvaluations, Want.JumpFunctionEvaluations)
        << Program;
    EXPECT_EQ(Got.Lowerings, Want.Lowerings) << Program;
    EXPECT_EQ(Got.Revisits, Want.Revisits) << Program;
  }
}

class BindingGraphEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BindingGraphEquivalence, MatchesCallGraphSolverOnRandomPrograms) {
  GeneratorConfig Config;
  Config.Seed = GetParam();
  Config.NumProcs = 7;
  Config.AllowRecursion = (GetParam() % 3) == 0;
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::PassThrough,
        JumpFunctionKind::Polynomial}) {
    IPCPOptions Opts;
    Opts.ForwardKind = Kind;
    DualRun Run(lowerOk(generateProgram(Config)), Opts);
    EXPECT_TRUE(Run.callGraph().equals(Run.bindingGraph()))
        << "seed " << GetParam() << " kind " << jumpFunctionKindName(Kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindingGraphEquivalence,
                         ::testing::Range<uint64_t>(300, 318));

TEST(BindingGraph, WholeSuiteEquivalence) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    DualRun Run(loadSuiteModule(Prog));
    EXPECT_TRUE(Run.callGraph().equals(Run.bindingGraph())) << Prog.Name;
  }
}

} // namespace
