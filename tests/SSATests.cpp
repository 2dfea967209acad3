//===- tests/SSATests.cpp - SSA construction tests ------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/ModRef.h"
#include "analysis/SSAConstruction.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Lowers, computes MOD/REF, and builds every procedure's SSA side
/// tables; returns the module plus per-procedure results. The module
/// itself must come out unchanged and still pre-SSA.
struct SSAFixture {
  std::unique_ptr<Module> M;
  std::unordered_map<Procedure *, SSAResult> Results;

  explicit SSAFixture(const std::string &Source, bool WorstCaseMod = false) {
    M = lowerOk(Source);
    std::string Before = printModule(*M);
    CallGraph CG(*M);
    ModRefInfo MRI = WorstCaseMod ? ModRefInfo::worstCase(*M)
                                  : ModRefInfo::compute(*M, CG);
    for (const std::unique_ptr<Procedure> &P : M->procedures()) {
      const SSAResult &R =
          Results.emplace(P.get(), constructSSA(*P, MRI)).first->second;
      expectVerifiesSSA(*P, R);
    }
    EXPECT_EQ(printModule(*M), Before);
    expectVerifies(*M);
  }

  Procedure *proc(const std::string &Name) { return getProc(*M, Name); }
  SSAResult &result(const std::string &Name) {
    return Results.at(proc(Name));
  }

  /// The SSA value standing for \p V in procedure \p Name.
  Value *resolved(const std::string &Name, Value *V) {
    return result(Name).resolve(V);
  }
};

TEST(SSA, StraightLineLeavesNoLoadsOrStores) {
  SSAFixture F("proc main() { var x, y; x = 1; y = x + 2; print y; }");
  Procedure *Main = F.proc("main");
  const SSAResult &R = F.result("main");
  // Every load and store is a promoted access: each load has a
  // replacement and SCCP visits none of them.
  unsigned Accesses = 0;
  for (BasicBlock *BB : Main->blocks())
    for (Instruction *Inst : BB->instructions())
      if (isa<LoadInst, StoreInst>(Inst)) {
        ++Accesses;
        EXPECT_TRUE(R.isPromotedAccess(Inst));
      }
  EXPECT_EQ(Accesses, 6u) << "two zeroing stores, then x, load x, y, load y";
  EXPECT_EQ(promotedLoads(*Main, R).size(), 2u);
  EXPECT_EQ(R.Phis.size(), 0u) << "no joins, no phis";
}

TEST(SSA, DiamondInsertsPhiAtJoin) {
  SSAFixture F(
      "proc main() { var x; if (x == 0) { x = 1; } else { x = 2; } print x; "
      "}");
  const SSAResult &R = F.result("main");
  ASSERT_EQ(R.Phis.size(), 1u);
  const PhiInst *Phi = &R.Phis.front();
  EXPECT_EQ(R.phisOf(Phi->getParent()).size(), 1u);
  EXPECT_EQ(Phi->getNumIncoming(), 2u);
  EXPECT_EQ(Phi->getVariable()->getName(), "x");
  // Both incoming values are the stored constants.
  for (unsigned I = 0; I != 2; ++I) {
    auto *C = dyn_cast<ConstantInt>(Phi->getIncomingValue(I));
    ASSERT_NE(C, nullptr);
    EXPECT_TRUE(C->getValue() == 1 || C->getValue() == 2);
  }
}

TEST(SSA, LoopCreatesHeaderPhi) {
  SSAFixture F("proc main() { var i; while (i < 4) { i = i + 1; } print i; }");
  EXPECT_GE(F.result("main").Phis.size(), 1u);
}

TEST(SSA, FormalsStartAtEntryValues) {
  SSAFixture F("proc f(a) { print a + 1; }\nproc main() { call f(3); }");
  Procedure *Proc = F.proc("f");
  auto *Add = firstInst<BinaryInst>(*Proc);
  ASSERT_NE(Add, nullptr);
  auto *Entry = dyn_cast<EntryValue>(F.resolved("f", Add->getLHS()));
  ASSERT_NE(Entry, nullptr);
  EXPECT_EQ(Entry->getVariable()->getName(), "a");
}

TEST(SSA, ReferencedGlobalsArePromoted) {
  SSAFixture F("global g;\nproc main() { print g; g = 2; print g; }");
  SSAResult &R = F.result("main");
  bool GlobalPromoted = false;
  for (Variable *Var : R.PromotedVars)
    if (Var->isGlobal())
      GlobalPromoted = true;
  EXPECT_TRUE(GlobalPromoted);
  auto Loads = promotedLoads(*F.proc("main"), R);
  ASSERT_EQ(Loads.size(), 2u);
  EXPECT_TRUE(isa<EntryValue>(Loads[0].second))
      << "first print reads the entry value";
  auto *C = dyn_cast<ConstantInt>(Loads[1].second);
  ASSERT_NE(C, nullptr) << "second print reads the stored constant";
  EXPECT_EQ(C->getValue(), 2);
}

TEST(SSA, LoadMapRecordsEveryScalarReference) {
  SSAFixture F("proc main() { var x, y; x = 1; y = x; print x + y; }");
  EXPECT_EQ(promotedLoads(*F.proc("main"), F.result("main")).size(), 3u);
}

TEST(SSA, ExitValuesCaptureFinalState) {
  SSAFixture F("proc f(a, b) { a = b + 1; }\nproc main() { var x; call f(x, "
               "2); }");
  SSAResult &R = F.result("f");
  Procedure *Proc = F.proc("f");
  Variable *A = Proc->formals()[0];
  Variable *B = Proc->formals()[1];
  ASSERT_NE(R.exitValue(A), nullptr);
  ASSERT_NE(R.exitValue(B), nullptr);
  EXPECT_TRUE(isa<BinaryInst>(R.exitValue(A)));
  EXPECT_TRUE(isa<EntryValue>(R.exitValue(B)))
      << "unmodified formal exits with its entry value";
}

TEST(SSA, CallCreatesCallOutsForKills) {
  SSAFixture F("global g;\n"
               "proc setter(o) { o = 5; g = 6; }\n"
               "proc main() { var x; call setter(x); print x + g; }");
  Procedure *Main = F.proc("main");
  SSAResult &R = F.result("main");
  EXPECT_EQ(R.CallOuts.size(), 2u) << "x and g";
  EXPECT_EQ(countInsts<CallOutInst>(*Main), 0u) << "no block holds them";
  // The prints' loads resolve to the CallOuts.
  unsigned CallOutLoads = 0;
  for (const auto &[Load, Def] : promotedLoads(*Main, R))
    if (isa<CallOutInst>(Def))
      ++CallOutLoads;
  EXPECT_EQ(CallOutLoads, 2u);
}

TEST(SSA, NoCallOutsWhenCalleeIsPure) {
  SSAFixture F("proc pure(a) { print a; }\n"
               "proc main() { var x; x = 1; call pure(x); print x; }");
  SSAResult &R = F.result("main");
  EXPECT_EQ(R.CallOuts.size(), 0u);
  // x's final print still sees the constant 1 directly.
  bool SawConstant = false;
  for (const auto &[Load, Def] : promotedLoads(*F.proc("main"), R))
    if (auto *C = dyn_cast<ConstantInt>(Def))
      SawConstant |= C->getValue() == 1;
  EXPECT_TRUE(SawConstant);
}

TEST(SSA, WorstCaseModeKillsAtEveryCall) {
  SSAFixture F("global g;\n"
               "proc pure(a) { print a; }\n"
               "proc main() { var x; x = 1; call pure(x); print x + g; }",
               /*WorstCaseMod=*/true);
  EXPECT_EQ(F.result("main").CallOuts.size(), 2u)
      << "without MOD information the call kills x and g";
}

TEST(SSA, CallInValuesSnapshotPreCallState) {
  SSAFixture F("global g;\n"
               "proc setter() { g = 5; }\n"
               "proc main() { g = 1; call setter(); call setter(); }");
  SSAResult &R = F.result("main");
  Procedure *Main = F.proc("main");
  std::vector<CallInst *> Calls = Main->callSites();
  ASSERT_EQ(Calls.size(), 2u);
  Variable *G = F.M->findGlobal("g");
  // Before the first call g is the stored 1; before the second it is the
  // first call's CallOut.
  auto *C = dyn_cast_or_null<ConstantInt>(R.callIn(Calls[0], G));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getValue(), 1);
  EXPECT_TRUE(isa_and_nonnull<CallOutInst>(R.callIn(Calls[1], G)));
  // A row holds the promoted globals only.
  EXPECT_EQ(R.callInRow(Calls[0]).size(), 1u);
}

TEST(SSA, NestedLoopsAndBranchesVerify) {
  SSAFixture F(
      "global acc;\n"
      "proc main() {\n"
      "  var i, j, x;\n"
      "  do i = 1, 3 {\n"
      "    do j = 1, 3 {\n"
      "      if (i == j) { x = x + 1; } else { x = x - 1; }\n"
      "    }\n"
      "    while (x > 2) { x = x - 2; }\n"
      "    acc = acc + x;\n"
      "  }\n"
      "  print acc;\n"
      "}\n");
  // The fixture already verifies SSA form; additionally, every phi must
  // have as many incoming values as predecessors.
  const SSAResult &R = F.result("main");
  EXPECT_FALSE(R.Phis.empty());
  for (const PhiInst &Phi : R.Phis)
    EXPECT_EQ(Phi.getNumIncoming(), Phi.getParent()->predecessors().size());
}

TEST(SSA, InfiniteLoopStillVerifies) {
  // `while (1)` never terminates dynamically, but its false edge keeps
  // the exit block statically reachable, so SSA (and exit values) still
  // exist — they are simply never consulted at run time.
  SSAFixture F("proc main() { var x; while (1) { x = x + 1; } }");
  Procedure *Main = F.proc("main");
  EXPECT_NE(Main->getExitBlock(), nullptr);
  EXPECT_FALSE(F.result("main").ExitValues.empty());
}

TEST(SSA, EntryValuesAreCanonical) {
  SSAFixture F("proc f(a) { print a + a; }\nproc main() { call f(1); }");
  Procedure *Proc = F.proc("f");
  auto *Add = firstInst<BinaryInst>(*Proc);
  ASSERT_NE(Add, nullptr);
  EXPECT_NE(Add->getLHS(), Add->getRHS()) << "two loads of a";
  EXPECT_EQ(F.resolved("f", Add->getLHS()), F.resolved("f", Add->getRHS()))
      << "one EntryValue object per (procedure, variable)";
}

} // namespace
