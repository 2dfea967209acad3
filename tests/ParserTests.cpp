//===- tests/ParserTests.cpp - MiniFort parser tests ----------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "frontend/AstPrinter.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// The procedure named \p Name in \p Prog; null if absent.
const ProcDecl *findProc(const Program &Prog, std::string_view Name) {
  for (const ProcDecl &P : Prog.Procs)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

/// Parses a single-procedure program and returns its body statements.
const BlockStmt *mainBody(const Program &Prog) {
  const ProcDecl *Main = findProc(Prog, "main");
  EXPECT_NE(Main, nullptr);
  return Main->Body;
}

TEST(Parser, EmptyMain) {
  Program Prog = parseOk("proc main() { }");
  EXPECT_EQ(Prog.Procs.size(), 1u);
  EXPECT_TRUE(mainBody(Prog)->getStmts().empty());
}

TEST(Parser, GlobalDeclarations) {
  Program Prog = parseOk("global a, b; global m[10];\nproc main() { }");
  ASSERT_EQ(Prog.Globals.size(), 2u);
  EXPECT_EQ(Prog.Globals[0].Items.size(), 2u);
  EXPECT_EQ(Prog.Globals[0].Items[0].Name, "a");
  EXPECT_FALSE(Prog.Globals[0].Items[0].isArray());
  EXPECT_EQ(Prog.Globals[1].Items[0].ArraySize, 10);
}

TEST(Parser, Parameters) {
  Program Prog = parseOk("proc f(x, y, z) { }\nproc main() { }");
  const ProcDecl *F = findProc(Prog, "f");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->Params.size(), 3u);
  EXPECT_EQ(F->Params[1].Name, "y");
}

TEST(Parser, PrecedenceMulOverAdd) {
  Program Prog = parseOk("proc main() { var x; x = 1 + 2 * 3; }");
  const auto *Assign =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_EQ(printExpr(Assign->getValue()), "(1 + (2 * 3))");
}

TEST(Parser, PrecedenceComparisonLowest) {
  Program Prog = parseOk("proc main() { var x; x = 1 + 2 < 3 * 4; }");
  const auto *Assign =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_EQ(printExpr(Assign->getValue()), "((1 + 2) < (3 * 4))");
}

TEST(Parser, LeftAssociativity) {
  Program Prog = parseOk("proc main() { var x; x = 10 - 3 - 2; }");
  const auto *Assign =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_EQ(printExpr(Assign->getValue()), "((10 - 3) - 2)");
}

TEST(Parser, NegativeLiteralFoldsIntoConstant) {
  Program Prog = parseOk("proc main() { var x; x = -5; }");
  const auto *Assign =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[1]);
  const auto *Lit = dyn_cast<IntLiteralExpr>(Assign->getValue());
  ASSERT_NE(Lit, nullptr) << "-5 should be a single literal";
  EXPECT_EQ(Lit->getValue(), -5);
}

TEST(Parser, UnaryOnExpressionStaysUnary) {
  Program Prog = parseOk("proc main() { var x; x = -(x + 1); x = !x; }");
  const auto *Neg =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_TRUE(isa<UnaryExpr>(Neg->getValue()));
  const auto *Not =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[2]);
  EXPECT_EQ(cast<UnaryExpr>(Not->getValue())->getOp(), UnaryOp::Not);
}

TEST(Parser, IfElseChain) {
  Program Prog = parseOk(
      "proc main() { var x; if (x < 1) { x = 1; } else if (x < 2) { x = 2; } "
      "else { x = 3; } }");
  const auto *If = cast<IfStmt>(mainBody(Prog)->getStmts()[1]);
  ASSERT_NE(If->getElse(), nullptr);
  EXPECT_TRUE(isa<IfStmt>(If->getElse()));
}

TEST(Parser, WhileLoop) {
  Program Prog = parseOk("proc main() { var x; while (x < 10) { x = x + 1; } }");
  const auto *While = cast<WhileStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_TRUE(isa<BinaryExpr>(While->getCond()));
}

TEST(Parser, DoLoopWithAndWithoutStep) {
  Program Prog = parseOk(
      "proc main() { var i; do i = 1, 10 { } do i = 10, 1, -2 { } }");
  const auto *Do1 = cast<DoLoopStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_EQ(Do1->getIndVar(), "i");
  EXPECT_EQ(Do1->getStep(), nullptr);
  const auto *Do2 = cast<DoLoopStmt>(mainBody(Prog)->getStmts()[2]);
  ASSERT_NE(Do2->getStep(), nullptr);
  EXPECT_EQ(cast<IntLiteralExpr>(Do2->getStep())->getValue(), -2);
}

TEST(Parser, CallStatement) {
  Program Prog = parseOk(
      "proc f(a, b) { }\nproc main() { var x; call f(3, x + 1); }");
  const auto *Call = cast<CallStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_EQ(Call->getCallee(), "f");
  ASSERT_EQ(Call->getArgs().size(), 2u);
  EXPECT_TRUE(isa<IntLiteralExpr>(Call->getArgs()[0]));
  EXPECT_TRUE(isa<BinaryExpr>(Call->getArgs()[1]));
}

TEST(Parser, ArrayAccess) {
  Program Prog = parseOk(
      "proc main() { var a[5], i; a[i + 1] = a[0] * 2; read a[2]; }");
  const auto *Assign =
      cast<AssignStmt>(mainBody(Prog)->getStmts()[1]);
  EXPECT_TRUE(isa<ArrayRefExpr>(Assign->getTarget()));
  const auto *Read = cast<ReadStmt>(mainBody(Prog)->getStmts()[2]);
  EXPECT_TRUE(isa<ArrayRefExpr>(Read->getTarget()));
}

TEST(Parser, PrintReadReturn) {
  Program Prog = parseOk(
      "proc main() { var x; read x; print x * 2; return; }");
  const auto &Stmts = mainBody(Prog)->getStmts();
  EXPECT_TRUE(isa<ReadStmt>(Stmts[1]));
  EXPECT_TRUE(isa<PrintStmt>(Stmts[2]));
  EXPECT_TRUE(isa<ReturnStmt>(Stmts[3]));
}

TEST(Parser, NestedBlocks) {
  Program Prog = parseOk("proc main() { { { print 1; } } }");
  const auto *Outer = cast<BlockStmt>(mainBody(Prog)->getStmts()[0]);
  EXPECT_TRUE(isa<BlockStmt>(Outer->getStmts()[0]));
}

//===----------------------------------------------------------------------===//
// Error reporting and recovery
//===----------------------------------------------------------------------===//

TEST(ParserErrors, MissingSemicolon) {
  std::string Errs = parseErrors("proc main() { var x; x = 1 }");
  EXPECT_NE(Errs.find("expected ';'"), std::string::npos);
}

TEST(ParserErrors, MissingRParen) {
  std::string Errs = parseErrors("proc main() { if (1 { } }");
  EXPECT_NE(Errs.find("expected ')'"), std::string::npos);
}

TEST(ParserErrors, TopLevelGarbage) {
  std::string Errs = parseErrors("42 proc main() { }");
  EXPECT_NE(Errs.find("expected 'global' or 'proc'"), std::string::npos);
}

TEST(ParserErrors, RecoversToReportMultipleErrors) {
  DiagnosticsEngine Diags;
  Parser P("proc main() { x = ; y = ; }", Diags);
  P.parseProgram();
  EXPECT_GE(Diags.errorCount(), 2u) << Diags.str();
}

TEST(ParserErrors, BadArrayExtent) {
  EXPECT_NE(parseErrors("proc main() { var a[0]; }").find("positive"),
            std::string::npos);
  EXPECT_NE(parseErrors("global g[x];\nproc main() { }")
                .find("expected integer literal"),
            std::string::npos);
}

TEST(ParserErrors, ArrayParameterRejected) {
  std::string Errs = parseErrors("proc f(a[5]) { }\nproc main() { }");
  EXPECT_NE(Errs.find("not allowed"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Printer round-trip: printing then re-parsing is a fixpoint.
//===----------------------------------------------------------------------===//

class PrinterRoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(PrinterRoundTrip, PrintParsePrintIsStable) {
  Program First = parseOk(GetParam());
  std::string Printed = printProgram(First);
  Program Second = parseOk(Printed);
  EXPECT_EQ(Printed, printProgram(Second));
}

INSTANTIATE_TEST_SUITE_P(
    Snippets, PrinterRoundTrip,
    ::testing::Values(
        "proc main() { var x; x = 1 + 2 * 3; print x; }",
        "global g, h[4];\nproc main() { var i; do i = 1, 3 { g = g + i; } }",
        "proc f(a) { if (a > 0) { a = a - 1; } else { a = 0; } }\n"
        "proc main() { call f(5); }",
        "proc main() { var a[3], i; while (i < 3) { a[i] = -i; i = i + 1; } "
        "read a[0]; return; }",
        "proc main() { var i, s; do i = 10, 0, -2 { s = s + i; } print s; }"));

} // namespace
