//===- tests/ModRefTests.cpp - MOD/REF summary tests ----------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/ModRef.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

ModRefInfo computeOn(Module &M) {
  CallGraph CG(M);
  return ModRefInfo::compute(M, CG);
}

TEST(ModRef, DirectFormalModification) {
  auto M = lowerOk("proc f(a, b) { a = 1; print b; }\nproc main() { }");
  ModRefInfo MRI = computeOn(*M);
  Procedure *F = getProc(*M, "f");
  EXPECT_TRUE(MRI.formalMayBeModified(F, 0));
  EXPECT_FALSE(MRI.formalMayBeModified(F, 1));
}

TEST(ModRef, ReadModifiesItsTarget) {
  auto M = lowerOk("proc f(a) { read a; }\nproc main() { }");
  ModRefInfo MRI = computeOn(*M);
  EXPECT_TRUE(MRI.formalMayBeModified(getProc(*M, "f"), 0));
}

TEST(ModRef, DirectGlobalModAndRef) {
  auto M = lowerOk("global g, h;\n"
                   "proc f() { g = h + 1; }\nproc main() { }");
  ModRefInfo MRI = computeOn(*M);
  Procedure *F = getProc(*M, "f");
  Variable *G = M->findGlobal("g");
  Variable *H = M->findGlobal("h");
  EXPECT_TRUE(MRI.modifiedGlobals(F).count(G));
  EXPECT_FALSE(MRI.modifiedGlobals(F).count(H));
  EXPECT_TRUE(MRI.extendedGlobals(F).count(G));
  EXPECT_TRUE(MRI.extendedGlobals(F).count(H));
}

TEST(ModRef, BindingThroughByRefActual) {
  auto M = lowerOk("proc sink(x) { x = 9; }\n"
                   "proc mid(y) { call sink(y); }\n"
                   "proc main() { var v; call mid(v); }");
  ModRefInfo MRI = computeOn(*M);
  EXPECT_TRUE(MRI.formalMayBeModified(getProc(*M, "mid"), 0))
      << "modification flows up through the binding";
}

TEST(ModRef, ExpressionActualDoesNotBind) {
  auto M = lowerOk("proc sink(x) { x = 9; }\n"
                   "proc mid(y) { call sink(y + 0); }\n"
                   "proc main() { var v; call mid(v); }");
  ModRefInfo MRI = computeOn(*M);
  EXPECT_FALSE(MRI.formalMayBeModified(getProc(*M, "mid"), 0))
      << "a hidden temporary absorbs the modification";
}

TEST(ModRef, GlobalEffectsPropagateTransitively) {
  auto M = lowerOk("global g;\n"
                   "proc leaf() { g = 1; }\n"
                   "proc mid() { call leaf(); }\n"
                   "proc top() { call mid(); }\n"
                   "proc main() { call top(); }");
  ModRefInfo MRI = computeOn(*M);
  Variable *G = M->findGlobal("g");
  EXPECT_TRUE(MRI.modifiedGlobals(getProc(*M, "top")).count(G));
  EXPECT_TRUE(MRI.extendedGlobals(getProc(*M, "main")).count(G));
}

TEST(ModRef, GlobalRefsPropagateWithoutMod) {
  auto M = lowerOk("global g;\n"
                   "proc leaf() { print g; }\n"
                   "proc top() { call leaf(); }\n"
                   "proc main() { call top(); }");
  ModRefInfo MRI = computeOn(*M);
  Variable *G = M->findGlobal("g");
  EXPECT_FALSE(MRI.modifiedGlobals(getProc(*M, "top")).count(G));
  EXPECT_TRUE(MRI.extendedGlobals(getProc(*M, "top")).count(G))
      << "referenced globals become extended formals of callers";
}

TEST(ModRef, RecursionReachesFixpoint) {
  auto M = lowerOk("global g;\n"
                   "proc a(n) { if (n > 0) { call b(n - 1); } }\n"
                   "proc b(n) { g = n; if (n > 0) { call a(n - 1); } }\n"
                   "proc main() { call a(3); }");
  ModRefInfo MRI = computeOn(*M);
  Variable *G = M->findGlobal("g");
  EXPECT_TRUE(MRI.modifiedGlobals(getProc(*M, "a")).count(G));
  EXPECT_TRUE(MRI.modifiedGlobals(getProc(*M, "b")).count(G));
}

TEST(ModRef, LeafEffectsReachRecursiveComponentAndItsCaller) {
  // Module order lists callers first; the worklist still starts from the
  // leaf. a and b form one component entered at a; b calls the leaf.
  auto M = lowerOk("global g, h;\n"
                   "proc main() { var v; call top(v); }\n"
                   "proc top(t) { call a(t); }\n"
                   "proc a(x) { if (x > 0) { call b(x); } }\n"
                   "proc b(y) { call leaf(y); if (y > 0) { call a(y); } }\n"
                   "proc leaf(r) { r = 1; g = 2; print h; }");
  Procedure *Top = getProc(*M, "top");
  Procedure *A = getProc(*M, "a");
  Procedure *B = getProc(*M, "b");
  Procedure *Leaf = getProc(*M, "leaf");
  CallGraph CG(*M);
  ASSERT_EQ(CG.sccIndex(A), CG.sccIndex(B));
  ASSERT_LT(CG.sccIndex(Leaf), CG.sccIndex(A));
  ASSERT_LT(CG.sccIndex(A), CG.sccIndex(Top));

  ModRefInfo MRI = ModRefInfo::compute(*M, CG);
  using Vars = std::vector<Variable *>;
  auto AsVars = [](const VariableSet &S) { return Vars(S.begin(), S.end()); };
  Variable *G = M->findGlobal("g");
  Variable *H = M->findGlobal("h");
  for (Procedure *P : {Leaf, B, A, Top}) {
    EXPECT_TRUE(MRI.formalMayBeModified(P, 0)) << P->getName();
    EXPECT_EQ(AsVars(MRI.modifiedGlobals(P)), Vars{G}) << P->getName();
    EXPECT_EQ(AsVars(MRI.extendedGlobals(P)), (Vars{G, H})) << P->getName();
  }
  Procedure *Main = getProc(*M, "main");
  EXPECT_EQ(AsVars(MRI.modifiedGlobals(Main)), Vars{G});
  EXPECT_EQ(AsVars(MRI.extendedGlobals(Main)), (Vars{G, H}));
}

TEST(ModRef, CallKillsCombineBindingsAndGlobals) {
  auto M = lowerOk("global g;\n"
                   "proc f(a, b) { a = 1; g = 2; print b; }\n"
                   "proc main() { var x, y; call f(x, y); }");
  ModRefInfo MRI = computeOn(*M);
  Procedure *Main = getProc(*M, "main");
  CallGraph CG(*M);
  const CallInst *Call = CG.callSitesIn(Main).front();
  std::vector<Variable *> Kills = MRI.callKills(Call);
  ASSERT_EQ(Kills.size(), 2u);
  // ID order: x was created before g? Globals are created first, so g
  // precedes x.
  EXPECT_TRUE((Kills[0]->getName() == "g" && Kills[1]->getName() == "x") ||
              (Kills[0]->getName() == "x" && Kills[1]->getName() == "g"));
}

TEST(ModRef, CallKillsIgnoreUnmodifiedBindings) {
  auto M = lowerOk("proc f(a) { print a; }\n"
                   "proc main() { var x; call f(x); }");
  ModRefInfo MRI = computeOn(*M);
  CallGraph CG(*M);
  const CallInst *Call = CG.callSitesIn(getProc(*M, "main")).front();
  EXPECT_TRUE(MRI.callKills(Call).empty());
}

TEST(ModRef, WorstCaseKillsEverything) {
  auto M = lowerOk("global g, h;\n"
                   "proc f(a) { print a; }\n"
                   "proc main() { var x; call f(x); }");
  ModRefInfo MRI = ModRefInfo::worstCase(*M);
  EXPECT_TRUE(MRI.isWorstCase());
  Procedure *F = getProc(*M, "f");
  EXPECT_TRUE(MRI.formalMayBeModified(F, 0));
  EXPECT_EQ(MRI.modifiedGlobals(F).size(), 2u);
  CallGraph CG(*M);
  const CallInst *Call = CG.callSitesIn(getProc(*M, "main")).front();
  EXPECT_EQ(MRI.callKills(Call).size(), 3u) << "x, g, and h";
}

TEST(ModRef, WorstCaseIgnoresArrayGlobals) {
  auto M = lowerOk("global g, arr[4];\nproc main() { }");
  ModRefInfo MRI = ModRefInfo::worstCase(*M);
  EXPECT_EQ(MRI.extendedGlobals(getProc(*M, "main")).size(), 1u)
      << "arrays carry no scalar constants";
}

TEST(ModRef, DuplicateKillReportedOnce) {
  auto M = lowerOk("proc f(a, b) { a = 1; b = 2; }\n"
                   "proc main() { var x; call f(x, x); }");
  ModRefInfo MRI = computeOn(*M);
  CallGraph CG(*M);
  const CallInst *Call = CG.callSitesIn(getProc(*M, "main")).front();
  EXPECT_EQ(MRI.callKills(Call).size(), 1u);
}

} // namespace
