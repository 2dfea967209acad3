//===- tests/ReturnJumpFunctionTests.cpp - return JF tests ----------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Pipeline.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Builds SSA and the return-jump-function table for a program.
struct RJFFixture {
  std::unique_ptr<Module> M;
  ModuleAnalysis A;

  explicit RJFFixture(const std::string &Source)
      : M(lowerOk(Source)), A(*M, {}) {
    buildJumpFunctions(A, {});
  }

  const JumpFunction *find(const std::string &Proc,
                           const std::string &Var) {
    Procedure *P = getProc(*M, Proc);
    Variable *V = P->findVariable(Var);
    if (!V)
      V = M->findGlobal(Var);
    EXPECT_NE(V, nullptr);
    return A.Tables.RJFs->find(P, V);
  }
};

TEST(ReturnJF, ConstantOutParameter) {
  RJFFixture F("proc setsize(n) { n = 32; }\n"
               "proc main() { var x; call setsize(x); print x; }");
  const JumpFunction *JF = F.find("setsize", "n");
  ASSERT_NE(JF, nullptr);
  ASSERT_TRUE(JF->isConstant());
  EXPECT_EQ(JF->expr()->getConst(), 32);
}

TEST(ReturnJF, UnmodifiedFormalHasNoEntry) {
  RJFFixture F("proc f(a, b) { a = 1; print b; }\n"
               "proc main() { var x, y; call f(x, y); }");
  EXPECT_NE(F.find("f", "a"), nullptr);
  EXPECT_EQ(F.find("f", "b"), nullptr)
      << "MOD says b is untouched: no return jump function needed";
}

TEST(ReturnJF, PolynomialOfEntryValues) {
  RJFFixture F("proc inc(a, b) { a = b * 2 + 1; }\n"
               "proc main() { var x; call inc(x, 5); print x; }");
  const JumpFunction *JF = F.find("inc", "a");
  ASSERT_NE(JF, nullptr);
  ASSERT_FALSE(JF->isBottom());
  EXPECT_EQ(JF->str(), "((b * 2) + 1)");
  ASSERT_EQ(JF->support().size(), 1u);
  EXPECT_EQ(JF->support()[0]->getName(), "b");
}

TEST(ReturnJF, GlobalAssignment) {
  RJFFixture F("global g;\n"
               "proc init() { g = 99; }\n"
               "proc main() { call init(); print g; }");
  const JumpFunction *JF = F.find("init", "g");
  ASSERT_NE(JF, nullptr);
  ASSERT_TRUE(JF->isConstant());
  EXPECT_EQ(JF->expr()->getConst(), 99);
}

TEST(ReturnJF, ConditionalModificationIsBottom) {
  RJFFixture F("proc f(a, c) { if (c) { a = 1; } }\n"
               "proc main() { var x, y; call f(x, y); }");
  const JumpFunction *JF = F.find("f", "a");
  ASSERT_NE(JF, nullptr);
  EXPECT_TRUE(JF->isBottom())
      << "a is entry(a) or 1 depending on the branch";
}

TEST(ReturnJF, AgreeingBranchesStayConstant) {
  RJFFixture F("proc f(a, c) { if (c) { a = 4; } else { a = 4; } }\n"
               "proc main() { var x, y; call f(x, y); }");
  const JumpFunction *JF = F.find("f", "a");
  ASSERT_NE(JF, nullptr);
  ASSERT_TRUE(JF->isConstant());
  EXPECT_EQ(JF->expr()->getConst(), 4);
}

TEST(ReturnJF, ComposesThroughInnerCalls) {
  // outer's result flows through inner's return jump function: the first
  // evaluation of a return jump function, during return-jump-function
  // generation of the caller (paper Section 3.2).
  RJFFixture F("proc inner(x) { x = 7; }\n"
               "proc outer(y) { call inner(y); y = y + 1; }\n"
               "proc main() { var v; call outer(v); print v; }");
  const JumpFunction *JF = F.find("outer", "y");
  ASSERT_NE(JF, nullptr);
  ASSERT_TRUE(JF->isConstant());
  EXPECT_EQ(JF->expr()->getConst(), 8);
}

TEST(ReturnJF, SymbolicCompositionOverCallerFormals) {
  // inner doubles; outer passes its own formal: outer's return jump
  // function is symbolic over outer's entry values.
  RJFFixture F("proc dbl(x, s) { x = s * 2; }\n"
               "proc outer(y, t) { call dbl(y, t); }\n"
               "proc main() { var v; call outer(v, 3); print v; }");
  const JumpFunction *JF = F.find("outer", "y");
  ASSERT_NE(JF, nullptr);
  ASSERT_FALSE(JF->isBottom());
  EXPECT_EQ(JF->str(), "(t * 2)");
}

TEST(ReturnJF, RecursionIsConservative) {
  // The recursive call passes n by reference, so n's exit value flows
  // through the not-yet-built recursive return jump function: bottom.
  RJFFixture F("proc f(n) { n = n - 1; if (n > 0) { call f(n); } }\n"
               "proc main() { var x; x = 3; call f(x); }");
  const JumpFunction *JF = F.find("f", "n");
  ASSERT_NE(JF, nullptr);
  EXPECT_TRUE(JF->isBottom())
      << "single bottom-up pass sees bottom for the recursive callee";
}

TEST(ReturnJF, RecursionThroughTemporaryStaysPrecise) {
  // Here the recursive call's actual is an expression (hidden
  // temporary), so it cannot modify n; the exit value n + 1 is a plain
  // polynomial despite the recursion.
  RJFFixture F("proc f(n) { if (n > 0) { call f(n - 1); } n = n + 1; }\n"
               "proc main() { var x; call f(x); }");
  const JumpFunction *JF = F.find("f", "n");
  ASSERT_NE(JF, nullptr);
  ASSERT_FALSE(JF->isBottom());
  EXPECT_EQ(JF->str(), "(n + 1)");
}

TEST(ReturnJF, MutualRecursionIsConservativeButPresent) {
  RJFFixture F("global g;\n"
               "proc a(n) { g = 1; if (n > 0) { call b(n - 1); } }\n"
               "proc b(n) { g = 2; if (n > 0) { call a(n - 1); } }\n"
               "proc main() { call a(3); print g; }");
  const JumpFunction *JF = F.find("a", "g");
  ASSERT_NE(JF, nullptr);
  EXPECT_TRUE(JF->isBottom());
}

TEST(ReturnJF, ReadMakesBottom) {
  RJFFixture F("proc f(a) { read a; }\n"
               "proc main() { var x; call f(x); }");
  const JumpFunction *JF = F.find("f", "a");
  ASSERT_NE(JF, nullptr);
  EXPECT_TRUE(JF->isBottom());
}

TEST(ReturnJF, LoopVaryingExitIsBottom) {
  RJFFixture F("proc f(a) { var i; do i = 1, 3 { a = a + 1; } }\n"
               "proc main() { var x; call f(x); }");
  const JumpFunction *JF = F.find("f", "a");
  ASSERT_NE(JF, nullptr);
  EXPECT_TRUE(JF->isBottom());
}

TEST(ReturnJF, IdentityForStoreOfOwnEntry) {
  RJFFixture F("proc f(a, b) { a = b; a = b; }\n"
               "proc main() { var x, y; call f(x, y); }");
  const JumpFunction *JF = F.find("f", "a");
  ASSERT_NE(JF, nullptr);
  EXPECT_TRUE(JF->isPassThrough());
  EXPECT_EQ(JF->str(), "b");
}

TEST(ReturnJF, CountsReflectKnowledge) {
  RJFFixture F("global g;\n"
               "proc known() { g = 3; }\n"
               "proc unknown(a) { read a; }\n"
               "proc main() { var x; call known(); call unknown(x); }");
  // Entries: known's g, unknown's a, and main's transitive g (main calls
  // known, so MOD(main) includes g). Known: both g entries — main's exit
  // value of g composes through known's constant return jump function.
  EXPECT_EQ(F.A.Tables.RJFs->entryCount(), 3u);
  EXPECT_EQ(F.A.Tables.RJFs->knownCount(), 2u);
}

} // namespace
