//===- tests/EdgeCaseTests.cpp - assorted boundary behavior ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/SCCP.h"
#include "analysis/SSAConstruction.h"
#include "core/BindingGraph.h"
#include "core/Pipeline.h"
#include "frontend/Lexer.h"
#include "interp/Interpreter.h"
#include "support/ConstantMath.h"
#include "workload/Study.h"

#include <gtest/gtest.h>

#include <limits>

using namespace ipcp;
using namespace ipcp::test;

namespace {

//===----------------------------------------------------------------------===//
// Frontend boundary behavior.
//===----------------------------------------------------------------------===//

TEST(LexerEdge, CarriageReturnsAreWhitespace) {
  DiagnosticsEngine Diags;
  Lexer Lex("a\r\nb", Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(ParserEdge, DoLoopRequiresBlock) {
  std::string Errs =
      parseErrors("proc main() { var i; do i = 1, 3 print i; }");
  EXPECT_NE(Errs.find("'{'"), std::string::npos);
}

TEST(ParserEdge, DeeplyNestedExpressionsParse) {
  std::string Expr = "1";
  for (int I = 0; I != 200; ++I)
    Expr = "(" + Expr + " + 1)";
  parseOk("proc main() { print " + Expr + "; }");
}

TEST(ParserEdge, DeeplyNestedBlocksParse) {
  std::string Body = "print 1;";
  for (int I = 0; I != 100; ++I)
    Body = "{ " + Body + " }";
  parseOk("proc main() { " + Body + " }");
}

TEST(SemaEdge, GlobalArrayAndScalarNamespacesShared) {
  EXPECT_NE(parseErrors("global a; global a[3];\nproc main() { }")
                .find("redefinition"),
            std::string::npos);
}

TEST(ParserEdge, EmptyCallArgumentListIsFine) {
  Program Prog = parseOk("proc f() { }\nproc main() { call f(); }");
  EXPECT_EQ(Prog.Procs.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Interpreter boundary behavior.
//===----------------------------------------------------------------------===//

TEST(InterpreterEdge, GlobalArraysZeroInitializedAndShared) {
  auto M = lowerOk("global buf[4];\n"
                   "proc fill(v) { buf[0] = v; buf[3] = v * 2; }\n"
                   "proc main() { print buf[3]; call fill(21); "
                   "print buf[0] + buf[3]; }");
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{0, 63}));
}

TEST(InterpreterEdge, NegativeDoStepWithoutLiteralUsesAscendingTest) {
  // A non-literal negative step makes the header test `i <= hi`, which
  // is immediately false for lo > hi: zero iterations (documented
  // behavior of the lowering).
  auto M = lowerOk("proc main() { var i, s; s = 0 - 2; do i = 5, 1, s { "
                   "print i; } print 99; }");
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{99}));
}

TEST(InterpreterEdge, PrintInsideRecursionOrdersDepthFirst) {
  auto M = lowerOk("proc f(n) { if (n <= 0) { return; } print n; "
                   "call f(n - 1); print 0 - n; }\n"
                   "proc main() { call f(2); }");
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{2, 1, -1, -2}));
}

TEST(InterpreterEdge, ShadowedGlobalUntouchedByLocalWrites) {
  auto M = lowerOk("global g;\n"
                   "proc peek() { print g; }\n"
                   "proc main() { var g; g = 7; call peek(); print g; }");
  ExecutionResult R = interpret(*M);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{0, 7}));
}

//===----------------------------------------------------------------------===//
// SCCP executable-edge queries.
//===----------------------------------------------------------------------===//

TEST(SCCPEdge, EdgeQueriesMatchBlockReachability) {
  auto M = lowerOk("proc main() { var x; x = 0; if (x) { print 1; } else "
                   "{ print 2; } }");
  CallGraph CG(*M);
  ModRefInfo MRI = ModRefInfo::compute(*M, CG);
  Procedure *Main = getProc(*M, "main");
  SSAResult SSA = constructSSA(*Main, MRI);
  SCCPResult R = runSCCP(*Main, SSA);
  unsigned ExecutableEdges = 0, Edges = 0;
  for (BasicBlock *BB : Main->blocks())
    for (BasicBlock *Succ : BB->successors()) {
      ++Edges;
      if (R.isExecutableEdge(BB, Succ)) {
        ++ExecutableEdges;
        EXPECT_TRUE(R.isExecutable(BB));
        EXPECT_TRUE(R.isExecutable(Succ));
      }
    }
  EXPECT_LT(ExecutableEdges, Edges) << "the dead arm's edge is not taken";
}

//===----------------------------------------------------------------------===//
// Pipeline/statistics consistency.
//===----------------------------------------------------------------------===//

TEST(StudyEdge, RunCellMatchesDirectAnalysis) {
  const SuiteProgram *Prog = findSuiteProgram("trfd");
  ASSERT_NE(Prog, nullptr);
  auto M = loadSuiteModule(*Prog);
  EXPECT_EQ(runCell(*Prog, IPCPOptions()), runIPCP(*M).TotalConstantRefs);
}

TEST(PipelineEdge, BindingGraphOptionMatchesOnEveryClass) {
  auto M = lowerOk("global g;\n"
                   "proc f(a, b) { g = a; print b + g; }\n"
                   "proc main() { g = 1; call f(2, 3); call f(2, 4); }");
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial}) {
    IPCPOptions Opts;
    Opts.ForwardKind = Kind;
    ModuleAnalysis A(*M, Opts);
    buildJumpFunctions(A, Opts);
    ConstantsMap Worklist = propagateConstants(A.CG, A.MRI, A.Tables.FJFs);
    EXPECT_GT(Worklist.totalEntries(), 0u) << jumpFunctionKindName(Kind);
    EXPECT_TRUE(Worklist.equals(
        propagateConstantsBindingGraph(A.CG, A.MRI, A.Tables.FJFs)))
        << jumpFunctionKindName(Kind);
  }
}

TEST(PipelineEdge, MaxExprNodesIsRespected) {
  // A long polynomial chain: with a tiny cap the jump function declines
  // (bottom), with a large one it propagates.
  std::string Chain = "x";
  for (int I = 0; I != 40; ++I)
    Chain = "(" + Chain + " * x + 1)";
  auto M = lowerOk("proc use(v) { print v; }\n"
                   "proc mid(x) { call use(" + Chain + "); }\n"
                   "proc main() { call mid(1); }");
  IPCPOptions Small;
  Small.MaxExprNodes = 4;
  IPCPOptions Large;
  Large.MaxExprNodes = 4096;
  unsigned SmallRefs = runIPCP(*M, Small).TotalConstantRefs;
  unsigned LargeRefs = runIPCP(*M, Large).TotalConstantRefs;
  EXPECT_GT(LargeRefs, SmallRefs);
}

//===----------------------------------------------------------------------===//
// Overflow agreement: ConstantMath, SCCP folding, jump-function
// composition, and the interpreter must all decline/trap on the same
// boundary cases, never silently wrap.
//===----------------------------------------------------------------------===//

constexpr int64_t I64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t I64Max = std::numeric_limits<int64_t>::max();

TEST(ConstantMathEdge, DivisionBoundariesDecline) {
  EXPECT_EQ(checkedDiv(I64Min, -1), std::nullopt);
  EXPECT_EQ(checkedRem(I64Min, -1), std::nullopt);
  EXPECT_EQ(checkedDiv(42, 0), std::nullopt);
  EXPECT_EQ(checkedRem(42, 0), std::nullopt);
  EXPECT_EQ(checkedNeg(I64Min), std::nullopt);
  // Just inside the boundary both succeed.
  EXPECT_EQ(checkedDiv(I64Min, 1), I64Min);
  EXPECT_EQ(checkedRem(I64Min, -2), std::optional<int64_t>(0));
  EXPECT_EQ(checkedDiv(I64Max, -1), std::optional<int64_t>(-I64Max));
}

TEST(ConstantMathEdge, AdditionAndMultiplicationBoundaries) {
  EXPECT_EQ(checkedAdd(I64Max, 1), std::nullopt);
  EXPECT_EQ(checkedAdd(I64Max, 0), I64Max);
  EXPECT_EQ(checkedSub(I64Min, 1), std::nullopt);
  EXPECT_EQ(checkedSub(I64Min, 0), I64Min);
  EXPECT_EQ(checkedMul(int64_t(1) << 62, 2), std::nullopt);
  EXPECT_EQ(checkedMul(I64Min, -1), std::nullopt);
}

TEST(OverflowAgreement, AdditionOverflowNeitherFoldedNorExecuted) {
  // a is a known constant, but a + a overflows: SCCP must leave b
  // unfolded (only the two loads of a count as constant refs) and the
  // interpreter must trap rather than wrap.
  auto M = lowerOk("proc main() { var a; var b;\n"
                   "  a = 4611686018427387904;\n"
                   "  b = a + a;\n"
                   "  print b; }");
  IPCPResult R = runIPCP(*M);
  EXPECT_TRUE(R.Status.ok());
  EXPECT_EQ(R.TotalConstantRefs, 2u);

  ExecutionResult Exec = interpret(*M);
  EXPECT_EQ(Exec.TheStatus, ExecutionResult::Status::Trap);
  EXPECT_TRUE(Exec.Output.empty());
}

TEST(OverflowAgreement, Int64MinDivMinusOneTrapsAndIsNotFolded) {
  // INT64_MIN is only expressible as an arithmetic result; the analysis
  // folds m itself but must decline m / -1 (the one 2's-complement
  // division that overflows).
  auto M = lowerOk("proc use(v) { print v; }\n"
                   "proc main() { var m;\n"
                   "  m = 0 - 9223372036854775807 - 1;\n"
                   "  call use(m / (0 - 1)); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_TRUE(R.Status.ok());
  const ProcedureResult *Use = R.findProc("use");
  ASSERT_NE(Use, nullptr);
  for (const auto &[Name, Value] : Use->EntryConstants)
    EXPECT_NE(Name, "v") << "declined division must not reach CONSTANTS(use)";

  ExecutionResult Exec = interpret(*M);
  EXPECT_EQ(Exec.TheStatus, ExecutionResult::Status::Trap);
}

TEST(OverflowAgreement, RemainderByZeroTrapsAndIsNotFolded) {
  auto M = lowerOk("proc use(v) { print v; }\n"
                   "proc main() { var x;\n"
                   "  x = 5;\n"
                   "  call use(x % (x - x)); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_TRUE(R.Status.ok());
  const ProcedureResult *Use = R.findProc("use");
  ASSERT_NE(Use, nullptr);
  for (const auto &[Name, Value] : Use->EntryConstants)
    EXPECT_NE(Name, "v") << "x % 0 must not fold to a constant";

  ExecutionResult Exec = interpret(*M);
  EXPECT_EQ(Exec.TheStatus, ExecutionResult::Status::Trap);
  EXPECT_FALSE(Exec.TrapMessage.empty());
}

TEST(OverflowAgreement, JumpFunctionCompositionDeclinesOverflow) {
  // mid's formal v is the constant 2^62; composing leaf's jump function
  // w = v + v overflows, so CONSTANTS(mid) keeps v while CONSTANTS(leaf)
  // must not claim w.
  auto M = lowerOk("proc leaf(w) { print w; }\n"
                   "proc mid(v) { call leaf(v + v); }\n"
                   "proc main() { call mid(4611686018427387904); }");
  IPCPResult R = runIPCP(*M);
  EXPECT_TRUE(R.Status.ok());

  const ProcedureResult *Mid = R.findProc("mid");
  ASSERT_NE(Mid, nullptr);
  bool MidHasV = false;
  for (const auto &[Name, Value] : Mid->EntryConstants)
    if (Name == "v") {
      MidHasV = true;
      EXPECT_EQ(Value, int64_t(1) << 62);
    }
  EXPECT_TRUE(MidHasV);

  const ProcedureResult *Leaf = R.findProc("leaf");
  ASSERT_NE(Leaf, nullptr);
  for (const auto &[Name, Value] : Leaf->EntryConstants)
    EXPECT_NE(Name, "w") << "overflowing composition must go to bottom";

  // The binding-graph formulation must agree on the same composition.
  ModuleAnalysis A(*M, IPCPOptions());
  buildJumpFunctions(A, IPCPOptions());
  ConstantsMap BG = propagateConstantsBindingGraph(A.CG, A.MRI, A.Tables.FJFs);
  EXPECT_TRUE(BG.equals(propagateConstants(A.CG, A.MRI, A.Tables.FJFs)));
  Procedure *MidProc = getProc(*M, "mid");
  Procedure *LeafProc = getProc(*M, "leaf");
  ASSERT_TRUE(BG.valueOf(MidProc, MidProc->formals()[0]).isConstant());
  EXPECT_EQ(BG.valueOf(MidProc, MidProc->formals()[0]).getConstant(),
            int64_t(1) << 62);
  EXPECT_TRUE(BG.valueOf(LeafProc, LeafProc->formals()[0]).isBottom());
}

TEST(PipelineEdge, IrrelevantPlusCountedConsistent) {
  auto M = lowerOk("global g, h;\n"
                   "proc f() { print g; }\n"
                   "proc main() { g = 1; h = 2; call f(); }");
  IPCPResult R = runIPCP(*M);
  // f knows g (used) and... h is not an extended formal of f (f never
  // touches it), so CONSTANTS(f) = {g} with zero irrelevant entries.
  const ProcedureResult *F = R.findProc("f");
  EXPECT_EQ(F->EntryConstants.size(), 1u);
  EXPECT_EQ(F->IrrelevantConstants, 0u);
}

} // namespace
