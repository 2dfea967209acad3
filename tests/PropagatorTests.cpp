//===- tests/PropagatorTests.cpp - interprocedural propagation tests ------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Pipeline.h"
#include "core/Propagator.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Runs the full pipeline and returns CONSTANTS(proc) as a name->value
/// map for easy assertions.
std::map<std::string, ConstantValue>
constantsOf(const IPCPResult &R, const std::string &Proc) {
  std::map<std::string, ConstantValue> Out;
  const ProcedureResult *PR = R.findProc(Proc);
  EXPECT_NE(PR, nullptr);
  if (PR)
    for (const auto &[Name, Value] : PR->EntryConstants)
      Out[Name] = Value;
  return Out;
}

IPCPResult analyze(const std::string &Source, IPCPOptions Opts = {}) {
  auto M = lowerOk(Source);
  return runIPCP(*M, Opts);
}

/// A module's jump functions, built once, solved under either schedule.
struct Schedules {
  std::unique_ptr<Module> M;
  ModuleAnalysis A;

  explicit Schedules(const std::string &Source)
      : M(lowerOk(Source)), A(*M, IPCPOptions()) {
    buildJumpFunctions(A, IPCPOptions());
  }

  ConstantsMap scc(PropagatorStats *Stats = nullptr) {
    return propagateConstants(A.CG, A.MRI, A.Tables.FJFs, Stats);
  }
  ConstantsMap fifo(PropagatorStats *Stats = nullptr) {
    return propagateConstantsFIFO(A.CG, A.MRI, A.Tables.FJFs, Stats);
  }
};

TEST(Propagator, SingleEdgeLiteral) {
  IPCPResult R = analyze("proc f(a) { print a; }\n"
                         "proc main() { call f(7); }");
  auto C = constantsOf(R, "f");
  ASSERT_TRUE(C.count("a"));
  EXPECT_EQ(C["a"], 7);
}

TEST(Propagator, MultiHopPassThroughChain) {
  IPCPResult R = analyze("proc c(z) { print z; }\n"
                         "proc b(y) { call c(y); }\n"
                         "proc a(x) { call b(x); }\n"
                         "proc main() { call a(9); }");
  EXPECT_EQ(constantsOf(R, "a")["x"], 9);
  EXPECT_EQ(constantsOf(R, "b")["y"], 9);
  EXPECT_EQ(constantsOf(R, "c")["z"], 9)
      << "constants propagate along paths of length > 1";
}

TEST(Propagator, MultiHopStopsForWeakJumpFunctions) {
  IPCPOptions Opts;
  Opts.ForwardKind = JumpFunctionKind::IntraproceduralConstant;
  IPCPResult R = analyze("proc c(z) { print z; }\n"
                         "proc b(y) { call c(y); }\n"
                         "proc main() { call b(9); }",
                         Opts);
  EXPECT_EQ(constantsOf(R, "b")["y"], 9);
  EXPECT_FALSE(constantsOf(R, "c").count("z"))
      << "single-edge classes cannot cross procedure bodies";
}

TEST(Propagator, ConflictingCallSitesMeetToBottom) {
  IPCPResult R = analyze("proc f(a, b) { print a + b; }\n"
                         "proc main() { call f(1, 5); call f(2, 5); }");
  auto C = constantsOf(R, "f");
  EXPECT_FALSE(C.count("a")) << "1 /\\ 2 = bottom";
  EXPECT_EQ(C["b"], 5) << "agreeing sites stay constant";
}

TEST(Propagator, PolynomialAcrossEdges) {
  IPCPResult R = analyze("proc g(m) { print m; }\n"
                         "proc f(n) { call g(n * n + 1); }\n"
                         "proc main() { call f(4); }");
  EXPECT_EQ(constantsOf(R, "g")["m"], 17);
}

TEST(Propagator, GlobalsArePropagatedAsExtendedFormals) {
  IPCPResult R = analyze("global g;\n"
                         "proc use() { print g; }\n"
                         "proc main() { g = 13; call use(); }");
  EXPECT_EQ(constantsOf(R, "use")["g"], 13);
}

TEST(Propagator, EntryGlobalsAreZero) {
  // MiniFort zero-initializes globals; the virtual entry edge into main
  // reflects that.
  IPCPResult R = analyze("global g;\nproc main() { print g; }");
  EXPECT_EQ(constantsOf(R, "main")["g"], 0);
}

TEST(Propagator, GlobalClobberedByCalleeIsNotConstantDownstream) {
  IPCPResult R = analyze("global g;\n"
                         "proc clobber() { read g; }\n"
                         "proc use() { print g; }\n"
                         "proc main() { g = 5; call clobber(); call use(); }");
  EXPECT_FALSE(constantsOf(R, "use").count("g"));
}

TEST(Propagator, SelfRecursionPreservesInvariantArgument) {
  IPCPResult R = analyze(
      "proc f(n, k) { if (n > 0) { call f(n - 1, k) ; } print k; }\n"
      "proc main() { call f(3, 42); }");
  auto C = constantsOf(R, "f");
  EXPECT_FALSE(C.count("n")) << "3 meets 2, 1, 0 from the recursive edge";
  EXPECT_EQ(C["k"], 42) << "k is invariant around the cycle";
}

TEST(Propagator, MutualRecursionConverges) {
  IPCPResult R = analyze(
      "proc even(n, k) { if (n > 0) { call odd(n - 1, k); } print k; }\n"
      "proc odd(n, k) { if (n > 0) { call even(n - 1, k); } }\n"
      "proc main() { call even(8, 5); }");
  EXPECT_EQ(constantsOf(R, "even")["k"], 5);
  EXPECT_EQ(constantsOf(R, "odd")["k"], 5);
}

TEST(Propagator, NeverCalledProcedureKeepsTop) {
  IPCPResult R = analyze("proc dead(x) { print x; }\n"
                         "proc main() { print 1; }",
                         {});
  // x retains top: it is reported as no constant (CONSTANTS excludes
  // top), and nothing is substituted inside dead.
  EXPECT_TRUE(constantsOf(R, "dead").empty());
  EXPECT_EQ(R.findProc("dead")->ConstantRefs, 0u);
}

TEST(Propagator, CallsInUnreachableProceduresStillLowerCallees) {
  // The meet ranges over every edge of G, including edges out of
  // procedures that are never invoked (paper semantics; this is exactly
  // the conservatism dead code elimination removes in Table 3).
  IPCPResult R = analyze("proc f(a) { print a; }\n"
                         "proc dead() { call f(1); }\n"
                         "proc main() { call f(2); }");
  auto C = constantsOf(R, "f");
  EXPECT_FALSE(C.count("a")) << "the dead call's literal 1 meets main's 2";
}

TEST(Propagator, SupportCarryingJFsFromUnreachableCallersStayTop) {
  IPCPResult R = analyze("proc f(a) { print a; }\n"
                         "proc dead(x) { call f(x); }\n"
                         "proc main() { call f(2); }");
  // dead's VAL(x) is top, so its pass-through jump function evaluates to
  // top and does not lower f's a.
  EXPECT_EQ(constantsOf(R, "f")["a"], 2);
}

TEST(Propagator, ReturnJumpFunctionsCarryConstantsThroughCalls) {
  IPCPResult R = analyze("global g;\n"
                         "proc init() { g = 50; }\n"
                         "proc use() { print g; }\n"
                         "proc main() { call init(); call use(); }");
  EXPECT_EQ(constantsOf(R, "use")["g"], 50);

  IPCPOptions NoRet;
  NoRet.UseReturnJumpFunctions = false;
  IPCPResult R2 = analyze("global g;\n"
                          "proc init() { g = 50; }\n"
                          "proc use() { print g; }\n"
                          "proc main() { call init(); call use(); }",
                          NoRet);
  EXPECT_FALSE(constantsOf(R2, "use").count("g"));
}

TEST(Propagator, ExpressionActualDoesNotCarryModificationBack) {
  IPCPResult R = analyze("proc setv(o) { o = 9; }\n"
                         "proc use(x) { print x; }\n"
                         "proc main() { var v; v = 3; call setv(v + 0); "
                         "call use(v); }");
  // v + 0 is a hidden temporary: v is still 3 afterwards.
  EXPECT_EQ(constantsOf(R, "use")["x"], 3);
}

TEST(Propagator, WorkCountersAreBoundedByLatticeDepth) {
  auto M = lowerOk("proc c(z) { print z; }\n"
                   "proc b(y) { call c(y); }\n"
                   "proc a(x) { call b(x); }\n"
                   "proc main() { call a(9); call a(9); }");
  IPCPResult R = runIPCP(*M);
  // Each VAL cell lowers at most twice; evaluations stay small.
  EXPECT_GT(R.Stats.get("prop_evaluations"), 0u);
  EXPECT_LE(R.Stats.get("prop_lowerings"),
            2u * 3u /* formals */ + 2u /* slack */);
}

TEST(Propagator, SccAndFifoSchedulesAgree) {
  // Both schedules must reach the same fixpoint on recursive, mutually
  // recursive, and global-heavy shapes.
  for (const char *Source :
       {"proc f(n, k) { if (n > 0) { call f(n - 1, k); } print k; }\n"
        "proc main() { call f(3, 42); }",
        "proc even(n) { if (n > 0) { call odd(n - 1); } print n; }\n"
        "proc odd(n) { if (n > 0) { call even(n - 1); } print n; }\n"
        "proc main() { call even(8); }",
        "global g, h;\n"
        "proc use() { print g + h; }\n"
        "proc main() { g = 5; call use(); }"}) {
    Schedules S(Source);
    ConstantsMap Scc = S.scc();
    EXPECT_GT(Scc.totalEntries(), 0u) << Source;
    EXPECT_TRUE(Scc.equals(S.fifo())) << Source;
  }
}

TEST(Propagator, SccScheduleNeverRevisitsAcyclicGraphs) {
  // Module order lists callees first, the worst case for the FIFO
  // schedule; the SCC sweep still visits each procedure exactly once.
  Schedules S("proc c(z) { print z; }\n"
              "proc b(y) { call c(y); }\n"
              "proc a(x) { call b(x); }\n"
              "proc main() { call a(9); }");
  IPCPResult R = runIPCP(*S.M);
  EXPECT_EQ(R.Stats.get("prop_revisits"), 0u);
  EXPECT_EQ(R.Stats.get("prop_visits"), 4u);

  PropagatorStats Scc, Naive;
  S.scc(&Scc);
  S.fifo(&Naive);
  EXPECT_EQ(Scc.Revisits, 0u);
  EXPECT_EQ(Scc.ProcVisits, 4u);
  EXPECT_EQ(Scc.JumpFunctionEvaluations, R.Stats.get("prop_evaluations"));
  EXPECT_GT(Naive.Revisits, 0u);
  EXPECT_LT(Scc.ProcVisits, Naive.ProcVisits);
  EXPECT_LT(Scc.JumpFunctionEvaluations, Naive.JumpFunctionEvaluations);
}

TEST(Propagator, RecursiveComponentsStillIterate) {
  // A cyclic component must keep iterating until its members converge:
  // the conflicting recursive argument has to reach bottom, not stop at
  // the first visit's value.
  const char *Source =
      "proc f(n, k) { if (n > 0) { call f(n - 1, k); } print n + k; }\n"
      "proc main() { call f(3, 42); }";
  auto C = constantsOf(analyze(Source), "f");
  EXPECT_FALSE(C.count("n")) << "n meets 3, 2, 1, ... -> bottom";
  EXPECT_EQ(C["k"], 42);

  Schedules S(Source);
  Procedure *F = getProc(*S.M, "f");
  for (const ConstantsMap &CM : {S.scc(), S.fifo()}) {
    EXPECT_TRUE(CM.valueOf(F, F->formals()[0]).isBottom());
    ASSERT_TRUE(CM.valueOf(F, F->formals()[1]).isConstant());
    EXPECT_EQ(CM.valueOf(F, F->formals()[1]).getConstant(), 42);
  }
}

TEST(Propagator, DeterministicAcrossRuns) {
  const char *Source = "global g, h;\n"
                       "proc f(a, b) { g = a; call k(b, 3); }\n"
                       "proc k(x, y) { h = x + y; print h; }\n"
                       "proc main() { call f(1, 2); call k(2, 3); }";
  auto M1 = lowerOk(Source);
  auto M2 = lowerOk(Source);
  IPCPResult R1 = runIPCP(*M1);
  IPCPResult R2 = runIPCP(*M2);
  ASSERT_EQ(R1.Procs.size(), R2.Procs.size());
  for (unsigned I = 0; I != R1.Procs.size(); ++I) {
    EXPECT_EQ(R1.Procs[I].Name, R2.Procs[I].Name);
    EXPECT_EQ(R1.Procs[I].EntryConstants, R2.Procs[I].EntryConstants);
    EXPECT_EQ(R1.Procs[I].ConstantRefs, R2.Procs[I].ConstantRefs);
  }
}

} // namespace
