//===- tests/InliningTests.cpp - procedure integration tests --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Inlining.h"
#include "interp/Interpreter.h"
#include "workload/Generator.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

TEST(Inlining, SingleSiteBasics) {
  auto M = lowerOk("proc inc(x) { x = x + 1; }\n"
                   "proc main() { var v; v = 4; call inc(v); print v; }");
  Procedure *Main = getProc(*M, "main");
  CallInst *Call = firstInst<CallInst>(*Main);
  ASSERT_NE(Call, nullptr);
  inlineCallSite(*M, *Main, Call);
  expectVerifies(*M);
  EXPECT_EQ(countInsts<CallInst>(*Main), 0u);
  ExecutionResult R = interpret(*M);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{5}))
      << "by-reference binding must update the caller's variable";
}

TEST(Inlining, ExpressionActualStaysIsolated) {
  auto M = lowerOk("proc clobber(x) { x = 99; }\n"
                   "proc main() { var v; v = 4; call clobber(v + 0); "
                   "print v; }");
  Procedure *Main = getProc(*M, "main");
  inlineCallSite(*M, *Main, firstInst<CallInst>(*Main));
  expectVerifies(*M);
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{4}))
      << "the hidden temporary absorbs the write";
}

TEST(Inlining, CalleeLocalsAreFreshPerIntegration) {
  auto M = lowerOk("proc acc(x) { var t; t = t + x; x = t; }\n"
                   "proc main() { var a, b; a = 3; b = 8; call acc(a); "
                   "call acc(b); print a; print b; }");
  Procedure *Main = getProc(*M, "main");
  // Inline both sites.
  std::vector<CallInst *> Sites = Main->callSites();
  for (CallInst *Site : Sites)
    inlineCallSite(*M, *Main, Site);
  expectVerifies(*M);
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{3, 8}))
      << "each integration zero-initializes its own copy of t";
}

TEST(Inlining, ControlFlowInsideCalleeSurvives) {
  auto M = lowerOk(
      "proc clampit(v, hi) { if (v > hi) { v = hi; } }\n"
      "proc main() { var a, b; a = 10; b = 3; call clampit(a, 7); "
      "call clampit(b, 7); print a; print b; }");
  Procedure *Main = getProc(*M, "main");
  for (CallInst *Site : Main->callSites())
    inlineCallSite(*M, *Main, Site);
  expectVerifies(*M);
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{7, 3}));
}

TEST(Inlining, CallInsideLoopReexecutes) {
  auto M = lowerOk("global total;\n"
                   "proc add(k) { total = total + k; }\n"
                   "proc main() { var i; do i = 1, 4 { call add(i); } "
                   "print total; }");
  Procedure *Main = getProc(*M, "main");
  inlineCallSite(*M, *Main, firstInst<CallInst>(*Main));
  expectVerifies(*M);
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{10}));
}

TEST(Inlining, NestedCallsNeedRounds) {
  auto M = lowerOk("proc c(z) { z = z * 2; }\n"
                   "proc b(y) { call c(y); y = y + 1; }\n"
                   "proc a(x) { call b(x); }\n"
                   "proc main() { var v; v = 5; call a(v); print v; }");
  InlineOptions Opts;
  InlineResult R = inlineCalls(*M, Opts);
  expectVerifies(*M);
  EXPECT_GE(R.CallsInlined, 3u);
  EXPECT_GE(R.RoundsRun, 1u);
  EXPECT_EQ(countInsts<CallInst>(*getProc(*M, "main")), 0u);
  EXPECT_EQ(R.ProceduresRemoved, 3u) << "a, b, c are all dead afterwards";
  ExecutionResult Exec = interpret(*M);
  EXPECT_EQ(Exec.Output, (std::vector<ConstantValue>{11}));
}

TEST(Inlining, RecursiveCalleesAreSkipped) {
  auto M = lowerOk("proc f(n) { if (n > 0) { call f(n - 1); } }\n"
                   "proc main() { call f(3); }");
  InlineResult R = inlineCalls(*M);
  EXPECT_EQ(R.CallsInlined, 0u);
  EXPECT_EQ(R.ProceduresRemoved, 0u) << "f stays, it is still called";
}

TEST(Inlining, SizeCapSkipsBigCallees) {
  auto M = lowerOk("proc big(x) { var i; do i = 0, 9 { x = x + i; } }\n"
                   "proc main() { var v; call big(v); print v; }");
  InlineOptions Opts;
  Opts.MaxCalleeInstructions = 3;
  InlineResult R = inlineCalls(*M, Opts);
  EXPECT_EQ(R.CallsInlined, 0u);
}

TEST(Inlining, GrowthCapStopsIntegration) {
  // Ten sites of a callee; a tight budget integrates only some of them.
  std::string Src = "proc w(x) { x = x + 1; x = x * 2; x = x - 3; }\n"
                    "proc main() { var v;\n";
  for (int I = 0; I != 10; ++I)
    Src += "  call w(v);\n";
  Src += "  print v;\n}\n";
  auto M = lowerOk(Src);
  InlineOptions Opts;
  Opts.MaxGrowthFactor = 1.5;
  Opts.RemoveDeadProcedures = false;
  unsigned Before = M->instructionCount();
  InlineResult R = inlineCalls(*M, Opts);
  EXPECT_GT(R.CallsInlined, 0u);
  EXPECT_LT(R.CallsInlined, 10u);
  EXPECT_LE(M->instructionCount(),
            static_cast<unsigned>(Before * 1.5) + 20);
  ExecutionResult Exec = interpret(*M);
  EXPECT_TRUE(Exec.ok());
}

class InliningPreservesBehavior : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(InliningPreservesBehavior, GeneratedPrograms) {
  GeneratorConfig Config;
  Config.Seed = GetParam();
  Config.NumProcs = 5;
  auto M = lowerOk(generateProgram(Config));
  ExecutionOptions Exec;
  Exec.MaxSteps = 2'000'000;
  Exec.InputSeed = GetParam();
  ExecutionResult Before = interpret(*M, Exec);

  InlineResult R = inlineCalls(*M);
  expectVerifies(*M);
  ExecutionResult After = interpret(*M, Exec);
  EXPECT_EQ(Before.TheStatus, After.TheStatus) << "inlined " << R.CallsInlined;
  EXPECT_EQ(Before.Output, After.Output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InliningPreservesBehavior,
                         ::testing::Range<uint64_t>(600, 615));

TEST(Inlining, SuiteProgramsPreserveOutput) {
  for (const char *Name : {"trfd", "qcd", "ocean", "linpackd"}) {
    auto M = loadSuiteModule(*findSuiteProgram(Name));
    ExecutionResult Before = interpret(*M);
    inlineCalls(*M);
    expectVerifies(*M);
    ExecutionResult After = interpret(*M);
    EXPECT_EQ(Before.Output, After.Output) << Name;
  }
}

//===----------------------------------------------------------------------===//
// The Wegman-Zadeck comparison itself.
//===----------------------------------------------------------------------===//

TEST(IntegrationIPCP, FindsTheFrameworksConstantsAtGrowthCost) {
  auto M = lowerOk("proc kernel(n, w) { var i; do i = 1, n { print i * w; "
                   "} }\n"
                   "proc main() { call kernel(4, 2); call kernel(8, 2); }");
  // The framework meets 4 /\ 8 to bottom for n; integration keeps the
  // paths apart and each copy sees its own constant.
  IPCPResult Framework = runIPCP(*M);
  IntegrationResult Integrated = runIntegrationBasedIPCP(*M);
  EXPECT_GT(Integrated.ConstantRefs, Framework.TotalConstantRefs);
  EXPECT_GT(Integrated.Inlining.InstructionsAfter,
            Integrated.Inlining.InstructionsBefore)
      << "the precision is bought with code growth";
}

TEST(IntegrationIPCP, DoesNotMutateTheInput) {
  auto M = lowerOk("proc f(a) { print a; }\nproc main() { call f(3); }");
  unsigned Before = M->instructionCount();
  runIntegrationBasedIPCP(*M);
  EXPECT_EQ(M->instructionCount(), Before);
}

TEST(IntegrationIPCP, RecursionLimitsIntegration) {
  auto M = lowerOk("proc f(n, k) { if (n > 0) { call f(n - 1, k); } print "
                   "k; }\n"
                   "proc main() { call f(3, 42); }");
  IntegrationResult R = runIntegrationBasedIPCP(*M);
  // f cannot be integrated; the intraprocedural pass learns nothing
  // about k, while the framework finds it.
  IPCPResult Framework = runIPCP(*M);
  EXPECT_LT(R.ConstantRefs, Framework.TotalConstantRefs)
      << "recursion is where the jump-function framework wins outright";
}

} // namespace
