//===- tests/RoundTripTests.cpp - cross-cutting round trips ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Cloning.h"
#include "frontend/AstPrinter.h"
#include "ir/IRPrinter.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

//===----------------------------------------------------------------------===//
// Printer round trips on generated programs and the suite.
//===----------------------------------------------------------------------===//

class GeneratedRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedRoundTrip, AstPrintParsePrintIsStable) {
  GeneratorConfig Config;
  Config.Seed = GetParam();
  std::string Source = generateProgram(Config);
  Program First = parseOk(Source);
  std::string Printed = printProgram(First);
  Program Second = parseOk(Printed);
  EXPECT_EQ(Printed, printProgram(Second));
}

TEST_P(GeneratedRoundTrip, ReprintedProgramAnalyzesIdentically) {
  GeneratorConfig Config;
  Config.Seed = GetParam();
  std::string Source = generateProgram(Config);
  Program Ast = parseOk(Source);
  auto M1 = lowerProgram(Ast);
  Program Reparsed = parseOk(printProgram(Ast));
  auto M2 = lowerProgram(Reparsed);
  IPCPResult R1 = runIPCP(*M1);
  IPCPResult R2 = runIPCP(*M2);
  EXPECT_EQ(R1.TotalConstantRefs, R2.TotalConstantRefs);
  EXPECT_EQ(R1.TotalEntryConstants, R2.TotalEntryConstants);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(SuiteRoundTrip, EveryProgramReprintsStably) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    Program First = parseOk(Prog.Source);
    std::string Printed = printProgram(First);
    Program Second = parseOk(Printed);
    EXPECT_EQ(Printed, printProgram(Second)) << Prog.Name;
  }
}

TEST(IRPrinterCoverage, SSAFormPrintsPhisAndCallOuts) {
  auto M = lowerOk("global g;\n"
                   "proc setter(o) { o = o + 5; g = 6; }\n"
                   "proc main() { var x, c; read c; if (c) { x = 1; } else "
                   "{ x = 2; } call setter(x); print x + g; }");
  std::string Before = printModule(*M);
  CallGraph CG(*M);
  ModRefInfo MRI = ModRefInfo::compute(*M, CG);
  // Print every side phi and CallOut, plus the SSA value that stands for
  // each load of x.
  std::string Text;
  unsigned LoadsOfX = 0;
  for (const std::unique_ptr<Procedure> &P : M->procedures()) {
    SSAResult SSA = constructSSA(*P, MRI);
    for (const PhiInst &Phi : SSA.Phis)
      Text += printInstruction(&Phi) + "\n";
    for (const CallOutInst &Out : SSA.CallOuts)
      Text += printInstruction(&Out) + "\n";
    for (const auto &[Load, Def] : promotedLoads(*P, SSA)) {
      Text += printValueRef(Def) + "\n";
      if (Load->getVariable()->getName() == "x") {
        ++LoadsOfX;
        EXPECT_FALSE(isa<LoadInst>(Def)) << "promoted scalars leave no loads";
      }
    }
  }
  EXPECT_NE(Text.find("phi"), std::string::npos);
  EXPECT_NE(Text.find("callout"), std::string::npos);
  EXPECT_NE(Text.find("entry("), std::string::npos);
  EXPECT_GT(LoadsOfX, 0u);
  EXPECT_EQ(printModule(*M), Before) << "the body itself is only read";
}

//===----------------------------------------------------------------------===//
// The oracle itself must catch fabricated wrong answers.
//===----------------------------------------------------------------------===//

TEST(OracleSelfTest, FlagsFabricatedConstants) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { call f(1); call f(2); }");
  IPCPResult R = runIPCP(*M);
  // The honest result has no constant for f.a; forge one.
  for (ProcedureResult &PR : R.Procs)
    if (PR.Name == "f")
      PR.EntryConstants.push_back({"a", 1});
  OracleReport Report = checkSoundness(*M, R);
  EXPECT_FALSE(Report.Sound) << "the oracle must reject a = 1 (a is also 2)";
  ASSERT_FALSE(Report.Violations.empty());
  EXPECT_NE(Report.Violations[0].find("observed"), std::string::npos);
}

TEST(OracleSelfTest, FlagsFabricatedFacts) {
  auto M = lowerOk("proc main() { var x; read x; if (x < 5000) { print x; "
                   "} }");
  IPCPResult R = runIPCP(*M);
  ASSERT_TRUE(checkSoundness(*M, R).Sound);
  ASSERT_TRUE(R.Facts.ConstantLoads.empty());
  ASSERT_TRUE(R.Facts.FoldedBranches.empty());
  // Forge a constant for every load of x and a fixed direction for the
  // branch: the inputs are below 2048, so each load reads something else
  // and the branch always goes true.
  Procedure *Main = getProc(*M, "main");
  for (BasicBlock *BB : Main->blocks())
    for (Instruction *Inst : BB->instructions()) {
      if (isa<LoadInst>(Inst))
        R.Facts.ConstantLoads[Inst->getId()] = 4096;
      if (isa<CondBranchInst>(Inst))
        R.Facts.FoldedBranches[Inst->getId()] = false;
    }
  OracleReport Report = checkSoundness(*M, R);
  EXPECT_FALSE(Report.Sound);
  unsigned Loads = 0, Branches = 0;
  for (const std::string &V : Report.Violations) {
    Loads += V.find("claimed x = 4096 but read") != std::string::npos;
    Branches += V.find("claimed the branch always goes false but it went "
                       "true") != std::string::npos;
  }
  EXPECT_EQ(Loads, 2u) << Report.str();
  EXPECT_EQ(Branches, 1u) << Report.str();

  // Without facts the interpreter checks nothing.
  ExecutionResult Plain = interpret(*M);
  EXPECT_TRUE(Plain.FactViolations.empty());
}

TEST(OracleSelfTest, AcceptsVacuousClaimsForDeadProcedures) {
  auto M = lowerOk("proc dead(x) { print x; }\n"
                   "proc main() { print 0; }");
  IPCPResult R = runIPCP(*M);
  for (ProcedureResult &PR : R.Procs)
    if (PR.Name == "dead")
      PR.EntryConstants.push_back({"x", 123});
  OracleReport Report = checkSoundness(*M, R);
  EXPECT_TRUE(Report.Sound)
      << "claims about never-invoked procedures are vacuously true";
}

TEST(OracleSelfTest, ReportsCheckedWork) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { call f(7); call f(7); }");
  IPCPResult R = runIPCP(*M);
  OracleReport Report = checkSoundness(*M, R);
  EXPECT_TRUE(Report.Sound);
  EXPECT_EQ(Report.DynamicEntries, 3u) << "main + two f entries";
  EXPECT_GE(Report.CheckedPairs, 2u) << "a = 7 checked on each f entry";
}

//===----------------------------------------------------------------------===//
// Known-but-irrelevant constants (Metzger & Stroud discussion).
//===----------------------------------------------------------------------===//

TEST(IrrelevantConstants, CountedButNotSubstituted) {
  // g is constant on entry to f, but f never references it.
  auto M = lowerOk("global g;\n"
                   "proc f(a) { print a; }\n"
                   "proc sibling() { print g; }\n"
                   "proc main() { g = 3; call f(1); call sibling(); }");
  IPCPResult R = runIPCP(*M);
  const ProcedureResult *F = R.findProc("f");
  ASSERT_NE(F, nullptr);
  // f's extended formals include g only if f (transitively) touches it —
  // it does not, so g is not even in CONSTANTS(f). sibling gets g and
  // uses it; main knows g = 0 on entry but never reads it before the
  // store: that is the irrelevant one.
  const ProcedureResult *Main = R.findProc("main");
  EXPECT_GE(Main->IrrelevantConstants, 1u);
  EXPECT_EQ(R.findProc("sibling")->IrrelevantConstants, 0u);
  EXPECT_GT(R.Stats.get("constants_known_irrelevant"), 0u);
}

//===----------------------------------------------------------------------===//
// Determinism of the cloning planner.
//===----------------------------------------------------------------------===//

TEST(CloningDeterminism, SameInputSamePlan) {
  const char *Source = "proc k(n, w) { print n * w; }\n"
                       "proc main() { call k(1, 5); call k(2, 5); call "
                       "k(3, 5); }";
  auto M1 = lowerOk(Source);
  auto M2 = lowerOk(Source);
  CloningResult R1 = cloneForConstants(*M1);
  CloningResult R2 = cloneForConstants(*M2);
  EXPECT_EQ(R1.ClonesCreated, R2.ClonesCreated);
  EXPECT_EQ(R1.RefsAfter, R2.RefsAfter);
  EXPECT_EQ(printModule(*M1), printModule(*M2));
}

//===----------------------------------------------------------------------===//
// Scale smoke: a few hundred procedures stay fast and sound.
//===----------------------------------------------------------------------===//

TEST(Scale, LargeGeneratedProgramAnalyzesQuickly) {
  GeneratorConfig Config;
  Config.Seed = 4242;
  Config.NumProcs = 200;
  Config.NumGlobals = 10;
  auto M = lowerOk(generateProgram(Config));
  EXPECT_GT(M->instructionCount(), 4000u);

  Timer T;
  IPCPResult R = runIPCP(*M);
  EXPECT_LT(T.seconds(), 10.0) << "analysis must stay interactive";
  EXPECT_GT(R.TotalConstantRefs, 0u);

  ExecutionOptions Exec;
  Exec.MaxSteps = 5'000'000;
  OracleReport Report = checkSoundness(*M, R, Exec);
  EXPECT_TRUE(Report.Sound) << Report.str();
}

} // namespace
