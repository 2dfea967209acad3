//===- tests/CloningTests.cpp - procedure cloning tests -------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Cloning.h"
#include "interp/Interpreter.h"
#include "support/FileIO.h"
#include "workload/Oracle.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Two call sites disagree on `n`, so the meet destroys it; cloning
/// recovers a constant in each copy.
const char *Divergent = R"(
proc kernel(n, w) {
  var i;
  do i = 1, n {
    print i * w + n;
  }
}
proc main() {
  call kernel(4, 2);
  call kernel(8, 2);
}
)";

TEST(Cloning, RecoversDivergentConstants) {
  auto M = lowerOk(Divergent);
  CloningResult R = cloneForConstants(*M);
  EXPECT_EQ(R.ClonesCreated, 1u);
  EXPECT_GT(R.RefsAfter, R.RefsBefore)
      << "each copy of kernel now sees a constant n";
  EXPECT_GT(R.ConstantsAfter, R.ConstantsBefore);
  expectVerifies(*M);
}

TEST(Cloning, ClonedModuleBehavesIdentically) {
  auto M = lowerOk(Divergent);
  ExecutionResult Before = interpret(*M);
  cloneForConstants(*M);
  ExecutionResult After = interpret(*M);
  EXPECT_EQ(Before.Output, After.Output);
  EXPECT_TRUE(After.ok());
}

TEST(Cloning, ResultStaysSound) {
  auto M = lowerOk(Divergent);
  cloneForConstants(*M);
  IPCPResult R = runIPCP(*M);
  OracleReport Report = checkSoundness(*M, R);
  EXPECT_TRUE(Report.Sound) << Report.str();
}

TEST(Cloning, AgreeingSitesNeedNoClones) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { call f(3); call f(3); }");
  CloningResult R = cloneForConstants(*M);
  EXPECT_EQ(R.ClonesCreated, 0u);
  EXPECT_EQ(R.RefsAfter, R.RefsBefore);
}

TEST(Cloning, NonConstantDisagreementIsNotProfitable) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { var x; read x; call f(x); call f(3); }");
  CloningResult R = cloneForConstants(*M);
  // One group is bottom-only; cloning the literal group recovers a = 3.
  EXPECT_LE(R.ClonesCreated, 1u);
  if (R.ClonesCreated) {
    EXPECT_GT(R.RefsAfter, R.RefsBefore);
  }
}

TEST(Cloning, RecursiveProceduresAreSkipped) {
  auto M = lowerOk("proc f(n) { if (n > 0) { call f(n - 1); } print n; }\n"
                   "proc main() { call f(4); call f(9); }");
  CloningResult R = cloneForConstants(*M);
  EXPECT_EQ(R.ClonesCreated, 0u);
}

TEST(Cloning, PerProcedureCapRespected) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { call f(1); call f(2); call f(3); call "
                   "f(4); call f(5); call f(6); }");
  CloningOptions Opts;
  Opts.MaxClonesPerProcedure = 3;
  CloningResult R = cloneForConstants(*M, Opts);
  EXPECT_LE(R.ClonesCreated, 2u) << "original + at most 2 copies";
  expectVerifies(*M);
}

TEST(Cloning, GrowthCapStopsCloning) {
  auto M = lowerOk(Divergent);
  CloningOptions Opts;
  Opts.MaxGrowthFactor = 1.0; // no growth allowed at all
  CloningResult R = cloneForConstants(*M, Opts);
  EXPECT_EQ(R.ClonesCreated, 0u);
  EXPECT_EQ(R.InstructionsAfter, R.InstructionsBefore);
}

TEST(Cloning, MultipleRoundsCascade) {
  // Cloning mid exposes distinct constants for leaf only after mid's
  // copies exist: requires a second round.
  auto M = lowerOk("proc leaf(k) { print k * k; }\n"
                   "proc mid(n) { call leaf(n + 1); }\n"
                   "proc main() { call mid(10); call mid(20); }");
  CloningResult R = cloneForConstants(*M);
  EXPECT_GE(R.ClonesCreated, 2u) << "mid is cloned, then leaf";
  EXPECT_GE(R.RoundsRun, 2u);
  EXPECT_GT(R.RefsAfter, R.RefsBefore);
  ExecutionResult Exec = interpret(*M);
  EXPECT_TRUE(Exec.ok());
}

TEST(Cloning, PlanningIsChargedToTheExperimentGuard) {
  // One analysis of divergent.mf takes 6 evaluations, so planning the
  // first round exceeds 8 and must then decide nothing.
  std::string Source;
  ASSERT_TRUE(readFileToString(
      std::string(IPCP_EXAMPLES_DIR) + "/divergent.mf", Source));
  auto M = lowerOk(Source);
  CloningOptions Opts;
  Opts.Analysis.Limits.MaxPropagationEvals = 8;
  CloningResult R = cloneForConstants(*M, Opts);
  EXPECT_EQ(R.ClonesCreated, 0u);
  EXPECT_EQ(R.Status.TrippedLimit, "prop-evals");
}

TEST(Cloning, PlanningHonorsGatedSSA) {
  // Only gated SSA sees y = 3 and z = 5, so only it tells the sites apart.
  auto M = lowerOk("proc f(x) { print x; }\n"
                   "proc main() { var y, z;\n"
                   "  if (1 > 0) { y = 3; } else { y = 4; }\n"
                   "  if (1 > 0) { z = 5; } else { z = 6; }\n"
                   "  call f(y); call f(z); }");
  CloningOptions Opts;
  Opts.Analysis.UseGatedSSA = true;
  CloningResult R = cloneForConstants(*M, Opts);
  EXPECT_EQ(R.ClonesCreated, 1u);
  EXPECT_EQ(R.RefsAfter, 4u) << "f gets x = 3, f.clone1 gets x = 5";
  EXPECT_EQ(interpret(*M).Output, (std::vector<ConstantValue>{3, 5}));
}

TEST(Cloning, SuiteProgramsRemainSoundAfterCloning) {
  for (const char *Name : {"linpackd", "qcd", "snasa7"}) {
    auto M = lowerOk(findSuiteProgram(Name)->Source);
    CloningResult R = cloneForConstants(*M);
    EXPECT_GE(R.RefsAfter, R.RefsBefore) << Name;
    OracleReport Report = checkSoundness(*M, runIPCP(*M));
    EXPECT_TRUE(Report.Sound) << Name << ": " << Report.str();
    expectVerifies(*M);
  }
}

} // namespace
