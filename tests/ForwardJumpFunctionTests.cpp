//===- tests/ForwardJumpFunctionTests.cpp - forward JF class tests --------===//
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

/// One program exercising every flavor of actual parameter:
///   call q(5,            -- literal
///          k,            -- intraprocedural constant (k = 10)
///          a,            -- pass-through of caller formal a
///          a * 2 + 1,    -- polynomial of caller formal a
///          r)            -- read: unknowable
/// plus a global that is constant at the site and one that is passed
/// through.
const char *Program = R"(
global gc, gp;
proc q(l, i, p, y, u) {
  print l + i + p + y + u + gc + gp;
}
proc caller(a) {
  var k, r;
  k = 10;
  read r;
  gc = 77;
  call q(5, k, a, a * 2 + 1, r);
}
proc main() {
  call caller(4);
}
)";

struct FJFFixture {
  std::unique_ptr<Module> M;
  ModuleAnalysis A;

  explicit FJFFixture(const std::string &Source)
      : M(lowerOk(Source)), A(*M, {}) {
    buildJumpFunctions(A, {});
  }

  /// Jump functions at the unique call site inside \p Caller.
  const CallSiteJumpFunctions &site(ForwardJumpFunctions &FJFs,
                                    const std::string &Caller) {
    const std::vector<CallInst *> &Sites =
        A.CG.callSitesIn(getProc(*M, Caller));
    EXPECT_EQ(Sites.size(), 1u);
    return FJFs.at(Sites.front());
  }

  /// One more class over the same SSA and context: equal expressions stay
  /// equal pointers across classes.
  ForwardJumpFunctions build(JumpFunctionKind Kind, bool WithRJFs = true) {
    ForwardJumpFunctions FJFs;
    for (Procedure *P : A.CG.procedures())
      FJFs.buildProcedure(P, A.CG, A.MRI, A.Tables.SSA.at(P),
                          WithRJFs ? A.Tables.RJFs.get() : nullptr,
                          A.Tables.Ctx, Kind, /*UseGatedSSA=*/false);
    return FJFs;
  }
};

TEST(ForwardJF, LiteralClassSeesOnlyLiterals) {
  FJFFixture F(Program);
  ForwardJumpFunctions FJFs = F.build(JumpFunctionKind::Literal);
  const CallSiteJumpFunctions &JFs = F.site(FJFs, "caller");
  ASSERT_EQ(JFs.Formals.size(), 5u);
  ASSERT_TRUE(JFs.Formals[0].isConstant());
  EXPECT_EQ(JFs.Formals[0].expr()->getConst(), 5);
  EXPECT_TRUE(JFs.Formals[1].isBottom()) << "computed constant invisible";
  EXPECT_TRUE(JFs.Formals[2].isBottom());
  EXPECT_TRUE(JFs.Formals[3].isBottom());
  EXPECT_TRUE(JFs.Formals[4].isBottom());
  for (const auto &[G, JF] : JFs.Globals)
    EXPECT_TRUE(JF.isBottom())
        << "the literal class misses implicitly passed globals";
}

TEST(ForwardJF, IntraproceduralConstantClass) {
  FJFFixture F(Program);
  ForwardJumpFunctions FJFs =
      F.build(JumpFunctionKind::IntraproceduralConstant);
  const CallSiteJumpFunctions &JFs = F.site(FJFs, "caller");
  EXPECT_TRUE(JFs.Formals[0].isConstant());
  ASSERT_TRUE(JFs.Formals[1].isConstant()) << "gcp(k, s) = 10";
  EXPECT_EQ(JFs.Formals[1].expr()->getConst(), 10);
  EXPECT_TRUE(JFs.Formals[2].isBottom()) << "pass-through not allowed yet";
  EXPECT_TRUE(JFs.Formals[3].isBottom());
  EXPECT_TRUE(JFs.Formals[4].isBottom());
  // gc = 77 at the site is a constant global; gp is only pass-through.
  bool SawGc = false, SawGp = false;
  for (const auto &[G, JF] : JFs.Globals) {
    if (G->getName() == "gc") {
      SawGc = true;
      ASSERT_TRUE(JF.isConstant());
      EXPECT_EQ(JF.expr()->getConst(), 77);
    }
    if (G->getName() == "gp") {
      SawGp = true;
      EXPECT_TRUE(JF.isBottom());
    }
  }
  EXPECT_TRUE(SawGc);
  EXPECT_TRUE(SawGp);
}

TEST(ForwardJF, PassThroughClass) {
  FJFFixture F(Program);
  ForwardJumpFunctions FJFs = F.build(JumpFunctionKind::PassThrough);
  const CallSiteJumpFunctions &JFs = F.site(FJFs, "caller");
  EXPECT_TRUE(JFs.Formals[0].isConstant());
  EXPECT_TRUE(JFs.Formals[1].isConstant());
  ASSERT_TRUE(JFs.Formals[2].isPassThrough());
  EXPECT_EQ(JFs.Formals[2].expr()->getFormal()->getName(), "a");
  EXPECT_TRUE(JFs.Formals[3].isBottom()) << "polynomials not allowed yet";
  EXPECT_TRUE(JFs.Formals[4].isBottom());
  for (const auto &[G, JF] : JFs.Globals)
    if (G->getName() == "gp") {
      ASSERT_TRUE(JF.isPassThrough());
      EXPECT_EQ(JF.expr()->getFormal()->getName(), "gp");
    }
}

TEST(ForwardJF, PolynomialClass) {
  FJFFixture F(Program);
  ForwardJumpFunctions FJFs = F.build(JumpFunctionKind::Polynomial);
  const CallSiteJumpFunctions &JFs = F.site(FJFs, "caller");
  ASSERT_FALSE(JFs.Formals[3].isBottom());
  EXPECT_EQ(JFs.Formals[3].str(), "((a * 2) + 1)");
  ASSERT_EQ(JFs.Formals[3].support().size(), 1u);
  EXPECT_EQ(JFs.Formals[3].support()[0]->getName(), "a");
  EXPECT_TRUE(JFs.Formals[4].isBottom()) << "read is unknowable everywhere";
}

TEST(ForwardJF, ClassesAreMonotonicallyMorePrecise) {
  // Every non-bottom jump function of a weaker class appears identically
  // in the stronger class (paper Section 3.1: the constant sets nest).
  FJFFixture F(Program);
  JumpFunctionKind Kinds[] = {
      JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
      JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial};
  for (unsigned K = 0; K + 1 != 4; ++K) {
    ForwardJumpFunctions Weak = F.build(Kinds[K]);
    ForwardJumpFunctions Strong = F.build(Kinds[K + 1]);
    const CallSiteJumpFunctions &WeakJFs = F.site(Weak, "caller");
    const CallSiteJumpFunctions &StrongJFs = F.site(Strong, "caller");
    for (unsigned I = 0; I != WeakJFs.Formals.size(); ++I)
      if (!WeakJFs.Formals[I].isBottom()) {
        EXPECT_EQ(WeakJFs.Formals[I].expr(), StrongJFs.Formals[I].expr());
      }
  }
}

TEST(ForwardJF, ReturnJumpFunctionConstantFeedsGcp) {
  // Paper Section 3.2: the second evaluation, during forward jump
  // function generation, accepts constants only.
  FJFFixture F("proc setv(o) { o = 6; }\n"
               "proc use(x) { print x; }\n"
               "proc main() { var v; call setv(v); call use(v); }");
  ForwardJumpFunctions FJFs =
      F.build(JumpFunctionKind::IntraproceduralConstant);
  // The use(v) site: v's value is the CallOut of setv, whose return jump
  // function is the constant 6.
  const std::vector<CallInst *> &Sites =
      F.A.CG.callSitesIn(getProc(*F.M, "main"));
  ASSERT_EQ(Sites.size(), 2u);
  const CallSiteJumpFunctions &UseSite = FJFs.at(Sites[1]);
  ASSERT_TRUE(UseSite.Formals[0].isConstant());
  EXPECT_EQ(UseSite.Formals[0].expr()->getConst(), 6);
}

TEST(ForwardJF, NonConstantReturnJumpFunctionIsBottomInForwardPhase) {
  // dbl's return jump function is symbolic (s * 2); at use's site it
  // cannot be evaluated to a constant from intraprocedural information
  // (s was the caller's formal), so it is bottom — the exact limitation
  // stated in Section 3.2.
  FJFFixture F("proc dbl(x, s) { x = s * 2; }\n"
               "proc caller(t) { var v; call dbl(v, t); call use(v); }\n"
               "proc use(x) { print x; }\n"
               "proc main() { call caller(3); }");
  ForwardJumpFunctions FJFs = F.build(JumpFunctionKind::Polynomial);
  const std::vector<CallInst *> &Sites =
      F.A.CG.callSitesIn(getProc(*F.M, "caller"));
  ASSERT_EQ(Sites.size(), 2u);
  const CallSiteJumpFunctions &UseSite = FJFs.at(Sites[1]);
  EXPECT_TRUE(UseSite.Formals[0].isBottom());
}

TEST(ForwardJF, ConstantArgMakesReturnJumpFunctionEvaluable) {
  FJFFixture F("proc dbl(x, s) { x = s * 2; }\n"
               "proc caller() { var v; call dbl(v, 21); call use(v); }\n"
               "proc use(x) { print x; }\n"
               "proc main() { call caller(); }");
  ForwardJumpFunctions FJFs = F.build(JumpFunctionKind::Polynomial);
  const std::vector<CallInst *> &Sites =
      F.A.CG.callSitesIn(getProc(*F.M, "caller"));
  const CallSiteJumpFunctions &UseSite = FJFs.at(Sites[1]);
  ASSERT_TRUE(UseSite.Formals[0].isConstant());
  EXPECT_EQ(UseSite.Formals[0].expr()->getConst(), 42);
}

TEST(ForwardJF, WithoutReturnJumpFunctionsCallOutsAreBottom) {
  FJFFixture F("proc setv(o) { o = 6; }\n"
               "proc use(x) { print x; }\n"
               "proc main() { var v; call setv(v); call use(v); }");
  ForwardJumpFunctions FJFs =
      F.build(JumpFunctionKind::Polynomial, /*WithRJFs=*/false);
  const std::vector<CallInst *> &Sites =
      F.A.CG.callSitesIn(getProc(*F.M, "main"));
  const CallSiteJumpFunctions &UseSite = FJFs.at(Sites[1]);
  EXPECT_TRUE(UseSite.Formals[0].isBottom());
}

TEST(ForwardJF, StatsClassifyFunctions) {
  FJFFixture F(Program);
  ForwardJumpFunctions FJFs = F.build(JumpFunctionKind::Polynomial);
  ForwardJumpFunctions::Stats S = FJFs.stats();
  EXPECT_GE(S.Constant, 2u);
  EXPECT_GE(S.PassThrough, 2u);
  EXPECT_GE(S.Polynomial, 1u);
  EXPECT_GE(S.Bottom, 1u);
  EXPECT_EQ(S.total(),
            S.Bottom + S.Constant + S.PassThrough + S.Polynomial);
}

} // namespace
