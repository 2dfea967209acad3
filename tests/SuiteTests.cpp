//===- tests/SuiteTests.cpp - benchmark suite validation ------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Validates the twelve named benchmark programs and the relations the
// paper reports for their namesakes (see workload/Programs.h and
// EXPERIMENTS.md for the mapping).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/SuiteRunner.h"
#include "workload/Oracle.h"
#include "workload/Study.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

class SuitePrograms : public ::testing::TestWithParam<const char *> {
protected:
  const SuiteProgram &program() {
    const SuiteProgram *P = findSuiteProgram(GetParam());
    EXPECT_NE(P, nullptr);
    return *P;
  }
};

TEST_P(SuitePrograms, CompilesAndVerifies) {
  auto M = loadSuiteModule(program());
  expectVerifies(*M);
}

TEST_P(SuitePrograms, ExecutesCleanly) {
  auto M = loadSuiteModule(program());
  ExecutionResult R = interpret(*M);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_FALSE(R.Output.empty()) << "every program prints something";
}

TEST_P(SuitePrograms, SoundInAllMainConfigurations) {
  auto M = loadSuiteModule(program());
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial}) {
    IPCPOptions Opts;
    Opts.ForwardKind = Kind;
    OracleReport Report = checkSoundness(*M, runIPCP(*M, Opts));
    EXPECT_TRUE(Report.Sound) << Report.str();
  }
  IPCPOptions NoMod;
  NoMod.UseModInformation = false;
  OracleReport Report = checkSoundness(*M, runIPCP(*M, NoMod));
  EXPECT_TRUE(Report.Sound) << Report.str();
}

TEST_P(SuitePrograms, PaperContainmentRelations) {
  const SuiteProgram &Prog = program();
  auto Refs = [&](JumpFunctionKind Kind, bool Ret) {
    IPCPOptions Opts;
    Opts.ForwardKind = Kind;
    Opts.UseReturnJumpFunctions = Ret;
    return runCell(Prog, Opts);
  };
  unsigned Literal = Refs(JumpFunctionKind::Literal, true);
  unsigned Intra = Refs(JumpFunctionKind::IntraproceduralConstant, true);
  unsigned Pass = Refs(JumpFunctionKind::PassThrough, true);
  unsigned Poly = Refs(JumpFunctionKind::Polynomial, true);
  EXPECT_LE(Literal, Intra);
  EXPECT_LE(Intra, Pass);
  EXPECT_LE(Pass, Poly);
  // The paper's headline: pass-through matches polynomial on the suite.
  EXPECT_EQ(Pass, Poly);
  // Return jump functions never hurt.
  EXPECT_GE(Poly, Refs(JumpFunctionKind::Polynomial, false));
}

TEST_P(SuitePrograms, FindsInterproceduralConstants) {
  IPCPResult R = runIPCP(*loadSuiteModule(program()));
  EXPECT_GT(R.TotalEntryConstants, 0u);
  EXPECT_GT(R.TotalConstantRefs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    All, SuitePrograms,
    ::testing::Values("adm", "doduc", "fpppp", "linpackd", "matrix300",
                      "mdg", "ocean", "qcd", "simple", "snasa7", "spec77",
                      "trfd"));

//===----------------------------------------------------------------------===//
// Per-program signature relations from the paper.
//===----------------------------------------------------------------------===//

unsigned refs(const char *Name, IPCPOptions Opts = {}) {
  return runCell(*findSuiteProgram(Name), Opts);
}

unsigned refsNoRet(const char *Name) {
  IPCPOptions Opts;
  Opts.UseReturnJumpFunctions = false;
  return refs(Name, Opts);
}

TEST(SuiteRelations, AdmAllClassesEqual) {
  IPCPOptions Lit;
  Lit.ForwardKind = JumpFunctionKind::Literal;
  EXPECT_EQ(refs("adm", Lit), refs("adm"))
      << "adm's constants are all literal actuals";
}

TEST(SuiteRelations, TrfdAllClassesEqual) {
  IPCPOptions Lit;
  Lit.ForwardKind = JumpFunctionKind::Literal;
  EXPECT_EQ(refs("trfd", Lit), refs("trfd"));
}

TEST(SuiteRelations, LinpackdLiteralFarBehind) {
  IPCPOptions Lit;
  Lit.ForwardKind = JumpFunctionKind::Literal;
  EXPECT_LT(2 * refs("linpackd", Lit), refs("linpackd"))
      << "driver-computed sizes are invisible to the literal class";
}

TEST(SuiteRelations, SnasaLiteralFarBehind) {
  IPCPOptions Lit;
  Lit.ForwardKind = JumpFunctionKind::Literal;
  EXPECT_LT(2 * refs("snasa7", Lit), refs("snasa7"));
}

TEST(SuiteRelations, OceanReturnJumpFunctionsDominant) {
  // Paper: "the return jump functions more than tripled the number of
  // constants" in ocean.
  unsigned With = refs("ocean");
  unsigned Without = refsNoRet("ocean");
  EXPECT_GE(With, 3 * Without + 1);
}

TEST(SuiteRelations, ReturnJumpFunctionsNoEffectInMostPrograms) {
  // Paper: no noticeable difference in ten of thirteen programs.
  unsigned Unaffected = 0;
  for (const char *Name : {"adm", "linpackd", "matrix300", "qcd", "simple",
                           "snasa7", "spec77", "trfd"})
    if (refs(Name) == refsNoRet(Name))
      ++Unaffected;
  EXPECT_GE(Unaffected, 7u);
}

TEST(SuiteRelations, DoducAndMdgGainAFewFromReturnJFs) {
  // Paper: "In doduc and mdg, return jump functions let the analyzer
  // find a few more constants."
  unsigned DoducDelta = refs("doduc") - refsNoRet("doduc");
  unsigned MdgDelta = refs("mdg") - refsNoRet("mdg");
  EXPECT_GE(DoducDelta, 1u);
  EXPECT_LE(DoducDelta, 6u);
  EXPECT_GE(MdgDelta, 1u);
  EXPECT_LE(MdgDelta, 6u);
}

TEST(SuiteRelations, ModInformationMattersBroadly) {
  // Paper Table 3: "In any program where constants were found, using MOD
  // information exposed additional constants. The numbers are
  // particularly striking in ... linpackd, matrix300, ocean, simple, and
  // spec77."
  IPCPOptions NoMod;
  NoMod.UseModInformation = false;
  for (const char *Name :
       {"linpackd", "matrix300", "ocean", "snasa7", "spec77"})
    EXPECT_LT(2 * refs(Name, NoMod), refs(Name)) << Name;
}

TEST(SuiteRelations, CompletePropagationHelpsOceanAndSpec77Only) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    auto M = loadSuiteModule(Prog);
    unsigned Single = runIPCP(*M).TotalConstantRefs;
    unsigned Complete = runCompletePropagation(*M).TotalConstantRefs;
    if (Prog.Name == "ocean" || Prog.Name == "spec77")
      EXPECT_GT(Complete, Single) << Prog.Name;
    else
      EXPECT_EQ(Complete, Single) << Prog.Name;
  }
}

TEST(SuiteRelations, IntraproceduralAlwaysBehindInterprocedural) {
  // Paper: "For programs that contained constants, the interprocedural
  // propagation always detected more constants than strictly
  // intraprocedural propagation."
  IPCPOptions Intra;
  Intra.IntraproceduralOnly = true;
  for (const SuiteProgram &Prog : benchmarkSuite())
    EXPECT_LT(runCell(Prog, Intra), runCell(Prog, IPCPOptions()))
        << Prog.Name;
}

//===----------------------------------------------------------------------===//
// Table plumbing.
//===----------------------------------------------------------------------===//

TEST(SuiteTables, Table1HasTwelveRowsWithSaneNumbers) {
  SuiteRunner Runner(4);
  std::vector<Table1Row> Rows = computeTable1(benchmarkSuite(), &Runner);
  ASSERT_EQ(Rows.size(), 12u);
  for (const Table1Row &Row : Rows) {
    EXPECT_GT(Row.Lines, 20u) << Row.Name;
    EXPECT_GE(Row.Procs, 3u) << Row.Name;
    EXPECT_GT(Row.CallSites, 2u) << Row.Name;
    EXPECT_GT(Row.MeanLinesPerProc, 0u) << Row.Name;
    EXPECT_GT(Row.MedianLinesPerProc, 0u) << Row.Name;
  }
}

TEST(SuiteTables, Table2MatchesDirectCells) {
  // Spot-check one row against runCell.
  std::vector<SuiteProgram> One = {*findSuiteProgram("ocean")};
  std::vector<Table2Row> Rows = computeTable2(One);
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].Polynomial, refs("ocean"));
  EXPECT_EQ(Rows[0].PolynomialNoRet, refsNoRet("ocean"));
  EXPECT_EQ(Rows[0].Polynomial, Rows[0].PassThrough);
}

TEST(SuiteTables, FormattingContainsAllPrograms) {
  std::vector<SuiteProgram> Two = {*findSuiteProgram("adm"),
                                   *findSuiteProgram("trfd")};
  std::string T1 = formatTable1(computeTable1(Two));
  std::string T2 = formatTable2(computeTable2(Two));
  std::string T3 = formatTable3(computeTable3(Two));
  for (const std::string &Text : {T1, T2, T3}) {
    EXPECT_NE(Text.find("adm"), std::string::npos);
    EXPECT_NE(Text.find("trfd"), std::string::npos);
  }
}

TEST(SuiteTables, ParallelTablesMatchSequential) {
  // The table computations route per-program work through a SuiteRunner;
  // the worker count must never change a row.
  SuiteRunner Parallel(4);
  std::vector<Table2Row> Seq = computeTable2(benchmarkSuite());
  std::vector<Table2Row> Par = computeTable2(benchmarkSuite(), &Parallel);
  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I < Seq.size(); ++I) {
    EXPECT_EQ(Seq[I].Name, Par[I].Name);
    EXPECT_EQ(Seq[I].Literal, Par[I].Literal);
    EXPECT_EQ(Seq[I].Intraprocedural, Par[I].Intraprocedural);
    EXPECT_EQ(Seq[I].PassThrough, Par[I].PassThrough);
    EXPECT_EQ(Seq[I].Polynomial, Par[I].Polynomial);
    EXPECT_EQ(Seq[I].PolynomialNoRet, Par[I].PolynomialNoRet);
  }
}

TEST(SuiteTables, LineCounterSkipsBlanksAndComments) {
  EXPECT_EQ(countCodeLines("// comment\n\n  \nproc main() { }\n"), 1u);
  EXPECT_EQ(countCodeLines("a\n// b\nc\n"), 2u);
  EXPECT_EQ(countCodeLines(""), 0u);
}

} // namespace
