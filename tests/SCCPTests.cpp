//===- tests/SCCPTests.cpp - sparse conditional constant prop tests -------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/ModRef.h"
#include "analysis/SCCP.h"
#include "analysis/SSAConstruction.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Builds every procedure's SSA side tables and runs SCCP over one.
struct SCCPFixture {
  std::unique_ptr<Module> M;
  std::unordered_map<Procedure *, SSAResult> SSA;

  explicit SCCPFixture(const std::string &Source) {
    M = lowerOk(Source);
    CallGraph CG(*M);
    ModRefInfo MRI = ModRefInfo::compute(*M, CG);
    for (const std::unique_ptr<Procedure> &P : M->procedures())
      SSA.emplace(P.get(), constructSSA(*P, MRI));
  }

  SCCPResult run(const std::string &Name, SCCPOptions Opts = {}) {
    Procedure *P = getProc(*M, Name);
    return runSCCP(*P, SSA.at(P), Opts);
  }

  /// \p Name's promoted loads in stream order, with their SSA values.
  std::vector<std::pair<const LoadInst *, Value *>>
  loads(const std::string &Name) {
    Procedure *P = getProc(*M, Name);
    return promotedLoads(*P, SSA.at(P));
  }

  /// Lattice value of the SSA value behind the last source-level load.
  LatticeValue lastLoadValue(const std::string &Name, const SCCPResult &R) {
    auto Loads = loads(Name);
    EXPECT_FALSE(Loads.empty());
    return Loads.empty() ? LatticeValue::top()
                         : R.valueOf(Loads.back().second);
  }
};

TEST(SCCP, FoldsStraightLineArithmetic) {
  SCCPFixture F("proc main() { var x, y; x = 6; y = x * 7; print y; }");
  SCCPResult R = F.run("main");
  // print's load of y (the last load).
  LatticeValue V = F.lastLoadValue("main", R);
  ASSERT_TRUE(V.isConstant());
  EXPECT_EQ(V.getConstant(), 42);
}

TEST(SCCP, MergesAgreeingBranches) {
  SCCPFixture F("proc main() { var x, c; read c; if (c) { x = 5; } else { "
                "x = 5; } print x; }");
  SCCPResult R = F.run("main");
  LatticeValue V = F.lastLoadValue("main", R);
  ASSERT_TRUE(V.isConstant()) << "both arms store 5";
  EXPECT_EQ(V.getConstant(), 5);
}

TEST(SCCP, ConflictingBranchesAreBottom) {
  SCCPFixture F("proc main() { var x, c; read c; if (c) { x = 5; } else { "
                "x = 6; } print x; }");
  SCCPResult R = F.run("main");
  EXPECT_TRUE(F.lastLoadValue("main", R).isBottom());
}

TEST(SCCP, ConstantConditionKeepsDeadEdgeUnexecutable) {
  SCCPFixture F("proc main() { var x; x = 1; if (x == 1) { print 10; } else "
                "{ print 20; } }");
  SCCPResult R = F.run("main");
  Procedure *Main = getProc(*F.M, "main");
  unsigned ExecutablePrints = 0;
  for (BasicBlock *BB : Main->blocks())
    for (Instruction *Inst : BB->instructions())
      if (isa<PrintInst>(Inst) && R.isExecutable(BB))
        ++ExecutablePrints;
  EXPECT_EQ(ExecutablePrints, 1u) << "the else arm is statically dead";
}

TEST(SCCP, DeadBranchDoesNotPolluteMerge) {
  // Classic SCCP superiority over ordinary constant propagation: the
  // x = 2 in the dead arm must not lower the merge.
  SCCPFixture F("proc main() { var x, f; f = 0; x = 1; if (f) { x = 2; } "
                "print x; }");
  SCCPResult R = F.run("main");
  LatticeValue V = F.lastLoadValue("main", R);
  ASSERT_TRUE(V.isConstant());
  EXPECT_EQ(V.getConstant(), 1);
}

TEST(SCCP, LoopInvariantStaysConstantThroughPhis) {
  SCCPFixture F("proc main() { var i, k; k = 3; do i = 1, 4 { print k; } }");
  SCCPResult R = F.run("main");
  // The print inside the loop loads k.
  bool FoundK = false;
  for (const auto &[Load, Def] : F.loads("main")) {
    LatticeValue V = R.valueOf(Def);
    if (V.isConstant() && V.getConstant() == 3)
      FoundK = true;
  }
  EXPECT_TRUE(FoundK);
}

TEST(SCCP, LoopCounterIsBottom) {
  SCCPFixture F("proc main() { var i, s; do i = 1, 4 { s = s + i; } print "
                "s; }");
  SCCPResult R = F.run("main");
  EXPECT_TRUE(F.lastLoadValue("main", R).isBottom());
}

TEST(SCCP, ReadIsBottom) {
  SCCPFixture F("proc main() { var x; read x; print x; }");
  SCCPResult R = F.run("main");
  EXPECT_TRUE(F.lastLoadValue("main", R).isBottom());
}

TEST(SCCP, ArrayLoadIsBottom) {
  SCCPFixture F("proc main() { var a[3]; a[0] = 7; print a[0]; }");
  SCCPResult R = F.run("main");
  Procedure *Main = getProc(*F.M, "main");
  auto *ALoad = firstInst<ArrayLoadInst>(*Main);
  ASSERT_NE(ALoad, nullptr);
  EXPECT_TRUE(R.valueOf(ALoad).isBottom())
      << "arrays are opaque, exactly as in the paper";
}

TEST(SCCP, DivisionByZeroDeclines) {
  SCCPFixture F("proc main() { var x, y; x = 0; y = 5 / x; print y; }");
  SCCPResult R = F.run("main");
  EXPECT_TRUE(F.lastLoadValue("main", R).isBottom());
}

TEST(SCCP, EntrySeedsInjectInterproceduralConstants) {
  SCCPFixture F("proc f(a) { print a * 2; }\nproc main() { call f(3); }");
  Procedure *Proc = getProc(*F.M, "f");
  // Unseeded: the formal is bottom.
  SCCPResult Unseeded = F.run("f");
  auto *Mul = firstInst<BinaryInst>(*Proc);
  ASSERT_NE(Mul, nullptr);
  EXPECT_TRUE(Unseeded.valueOf(Mul).isBottom());
  // Seeded with CONSTANTS(f) = {a = 3}: the body folds.
  SCCPOptions Opts;
  Opts.EntrySeeds[Proc->formals()[0]] = LatticeValue::constant(3);
  SCCPResult Seeded = F.run("f", Opts);
  LatticeValue V = Seeded.valueOf(Mul);
  ASSERT_TRUE(V.isConstant());
  EXPECT_EQ(V.getConstant(), 6);
}

TEST(SCCP, CallOutDefaultsToBottom) {
  SCCPFixture F("proc setter(o) { o = 9; }\n"
                "proc main() { var x; call setter(x); print x; }");
  SCCPResult R = F.run("main");
  EXPECT_TRUE(F.lastLoadValue("main", R).isBottom());
}

TEST(SCCP, CallOutHookSuppliesReturnValues) {
  SCCPFixture F("proc setter(o) { o = 9; }\n"
                "proc main() { var x; call setter(x); print x; }");
  SCCPOptions Opts;
  Opts.BindCallOut = [](const CallOutInst *) {
    CallOutBinding B;
    B.Evaluate = [](std::span<const LatticeValue>) {
      return LatticeValue::constant(9);
    };
    return B;
  };
  SCCPResult R = F.run("main", Opts);
  LatticeValue V = F.lastLoadValue("main", R);
  ASSERT_TRUE(V.isConstant());
  EXPECT_EQ(V.getConstant(), 9);
}

TEST(SCCP, CallOutIsReevaluatedWhenAnInputChanges) {
  // The solver pops the call's CallOut before it evaluates k + 1, so the
  // CallOut first sees a top input; only its registered input brings it
  // back once k + 1 folds.
  SCCPFixture F("proc setter(o, v) { o = v; }\n"
                "proc main() { var x, k; k = 4; call setter(x, k + 1); "
                "print x; }");
  auto *Call = firstInst<CallInst>(*getProc(*F.M, "main"));
  ASSERT_NE(Call, nullptr);
  SCCPOptions Opts;
  Opts.BindCallOut = [Call](const CallOutInst *Out) {
    EXPECT_EQ(Out->getCall(), Call);
    CallOutBinding B;
    B.Inputs = {Call->getActualValue(1)};
    B.Evaluate = [](std::span<const LatticeValue> Values) {
      return Values[0];
    };
    return B;
  };
  SCCPResult R = F.run("main", Opts);
  LatticeValue V = F.lastLoadValue("main", R);
  ASSERT_TRUE(V.isConstant());
  EXPECT_EQ(V.getConstant(), 5);
}

TEST(SCCP, UnreachableCodeStaysTop) {
  SCCPFixture F("proc main() { var x; x = 1; if (x == 2) { x = x + 40; "
                "print x; } }");
  SCCPResult R = F.run("main");
  Procedure *Main = getProc(*F.M, "main");
  for (BasicBlock *BB : Main->blocks())
    for (Instruction *Inst : BB->instructions())
      if (isa<PrintInst>(Inst)) {
        EXPECT_FALSE(R.isExecutable(BB));
      }
}

TEST(SCCP, ConstantCountStatistic) {
  SCCPFixture F("proc main() { var x, y; x = 2; y = x + 3; print y; }");
  SCCPResult R = F.run("main");
  EXPECT_GE(R.constantValueCount(), 1u);
}

} // namespace
