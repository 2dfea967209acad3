//===- tests/InterpreterTests.cpp - reference interpreter tests -----------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "interp/Interpreter.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

ExecutionResult run(const std::string &Source, ExecutionOptions Opts = {}) {
  auto M = lowerOk(Source);
  return interpret(*M, Opts);
}

TEST(Interpreter, ArithmeticAndPrint) {
  ExecutionResult R = run("proc main() { print 2 + 3 * 4; print 10 / 3; "
                          "print -7 % 3; print 10 - 4 - 3; }");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output,
            (std::vector<ConstantValue>{14, 3, -1, 3}));
}

TEST(Interpreter, ComparisonsAndNot) {
  ExecutionResult R = run(
      "proc main() { print 1 < 2; print 2 <= 1; print 3 == 3; print !5; "
      "print !0; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{1, 0, 1, 0, 1}));
}

TEST(Interpreter, LocalsAndGlobalsZeroInitialized) {
  ExecutionResult R = run("global g;\nproc main() { var x; print x; print "
                          "g; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{0, 0}));
}

TEST(Interpreter, ControlFlow) {
  ExecutionResult R = run(
      "proc main() { var i, s; do i = 1, 5 { if (i % 2 == 0) { s = s + i; } "
      "} while (s < 10) { s = s + 10; } print s; }");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{16}));
}

TEST(Interpreter, DoLoopNegativeStep) {
  ExecutionResult R =
      run("proc main() { var i; do i = 5, 1, -2 { print i; } }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{5, 3, 1}));
}

TEST(Interpreter, DoLoopZeroTrip) {
  ExecutionResult R =
      run("proc main() { var i; do i = 3, 2 { print i; } print 99; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{99}));
}

TEST(Interpreter, DoLoopBoundsEvaluatedOnce) {
  // Fortran semantics: modifying the bound inside the loop does not
  // change the trip count.
  ExecutionResult R = run("global n;\nproc main() { var i; n = 3; do i = 1, "
                          "n { n = 100; print i; } }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{1, 2, 3}));
}

TEST(Interpreter, ByReferenceVariableActual) {
  ExecutionResult R = run("proc bump(x) { x = x + 1; }\n"
                          "proc main() { var v; v = 4; call bump(v); print "
                          "v; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{5}));
}

TEST(Interpreter, ExpressionActualUpdatesDiscarded) {
  ExecutionResult R = run("proc bump(x) { x = x + 1; }\n"
                          "proc main() { var v; v = 4; call bump(v + 0); "
                          "print v; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{4}));
}

TEST(Interpreter, LiteralActualUpdatesDiscarded) {
  ExecutionResult R = run("proc clobber(x) { x = 9; }\n"
                          "proc main() { call clobber(7); print 7; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{7}));
}

TEST(Interpreter, GlobalSharedAcrossProcedures) {
  ExecutionResult R = run("global g;\n"
                          "proc inc() { g = g + 10; }\n"
                          "proc main() { call inc(); call inc(); print g; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{20}));
}

TEST(Interpreter, AliasedByRefActualsShareOneCell) {
  // The analysis assumes Fortran's no-alias rule, but the interpreter
  // implements real aliasing: the second formal's store wins.
  ExecutionResult R = run("proc two(a, b) { a = 1; b = 2; }\n"
                          "proc main() { var v; call two(v, v); print v; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{2}));
}

TEST(Interpreter, Arrays) {
  ExecutionResult R = run(
      "proc main() { var a[4], i; do i = 0, 3 { a[i] = i * i; } print a[0] "
      "+ a[1] + a[2] + a[3]; }");
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{14}));
}

TEST(Interpreter, ArrayOutOfBoundsTraps) {
  ExecutionResult R = run("proc main() { var a[3]; a[3] = 1; }");
  EXPECT_EQ(R.TheStatus, ExecutionResult::Status::Trap);
  EXPECT_NE(R.TrapMessage.find("out of bounds"), std::string::npos);

  ExecutionResult R2 = run("proc main() { var a[3]; print a[0 - 1]; }");
  EXPECT_EQ(R2.TheStatus, ExecutionResult::Status::Trap);
}

TEST(Interpreter, DivisionByZeroTraps) {
  ExecutionResult R = run("proc main() { var x; print 5 / x; }");
  EXPECT_EQ(R.TheStatus, ExecutionResult::Status::Trap);
  EXPECT_NE(R.TrapMessage.find("arithmetic fault"), std::string::npos);
}

TEST(Interpreter, OverflowTraps) {
  ExecutionResult R = run("proc main() { var x, i; x = 2; do i = 1, 64 { x "
                          "= x * 2; } print x; }");
  EXPECT_EQ(R.TheStatus, ExecutionResult::Status::Trap);
}

TEST(Interpreter, ReadConsumesProvidedInputs) {
  ExecutionOptions Opts;
  Opts.Inputs = {11, 22};
  ExecutionResult R = run(
      "proc main() { var a, b; read a; read b; print a + b; }", Opts);
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{33}));
}

TEST(Interpreter, ReadFallsBackToDeterministicStream) {
  ExecutionOptions Opts;
  Opts.InputSeed = 7;
  ExecutionResult R1 = run("proc main() { var a; read a; print a; }", Opts);
  ExecutionResult R2 = run("proc main() { var a; read a; print a; }", Opts);
  ASSERT_EQ(R1.Output.size(), 1u);
  EXPECT_EQ(R1.Output, R2.Output) << "same seed, same stream";
  ExecutionOptions Other;
  Other.InputSeed = 8;
  ExecutionResult R3 = run("proc main() { var a; read a; print a; }", Other);
  EXPECT_NE(R1.Output, R3.Output) << "different seed, different stream";
}

TEST(Interpreter, FuelExhaustion) {
  ExecutionOptions Opts;
  Opts.MaxSteps = 100;
  ExecutionResult R = run(
      "proc main() { var x; while (1) { x = x + 0; } }", Opts);
  EXPECT_EQ(R.TheStatus, ExecutionResult::Status::OutOfFuel);
  EXPECT_LE(R.Steps, 101u);
}

TEST(Interpreter, CallDepthGuard) {
  ExecutionOptions Opts;
  Opts.MaxCallDepth = 10;
  ExecutionResult R = run("proc f() { call f(); }\nproc main() { call f(); }",
                          Opts);
  EXPECT_EQ(R.TheStatus, ExecutionResult::Status::OutOfFuel);
}

TEST(Interpreter, DeepRecursionStopsAtTheDepthBound) {
  // Calls run on the interpreter's own stack, so 5000 nested MiniFort
  // calls reach MaxCallDepth in every build instead of overflowing the
  // native stack first.
  ExecutionResult R = run("proc f(n) { if (n > 0) { call f(n - 1); } }\n"
                          "proc main() { call f(5000); print 1; }");
  EXPECT_EQ(R.TheStatus, ExecutionResult::Status::OutOfFuel);
  EXPECT_EQ(R.TrapMessage, "call depth limit exceeded in 'f'");
}

TEST(Interpreter, Recursion) {
  ExecutionResult R = run("proc fib(n, out) {\n"
                          "  var a, b;\n"
                          "  if (n < 2) { out = n; return; }\n"
                          "  call fib(n - 1, a);\n"
                          "  call fib(n - 2, b);\n"
                          "  out = a + b;\n"
                          "}\n"
                          "proc main() { var r; call fib(10, r); print r; }");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, (std::vector<ConstantValue>{55}));
}

TEST(Interpreter, EntrySnapshotsRecordFormalsAndGlobals) {
  // Keep the module alive: snapshots reference its procedures/variables.
  auto M = lowerOk("global g;\n"
                   "proc f(a) { g = g + a; }\n"
                   "proc main() { g = 5; call f(2); call f(3); }");
  ExecutionResult R = interpret(*M);
  ASSERT_EQ(R.Entries.size(), 3u) << "main, f, f";
  const EntrySnapshot &First = R.Entries[1];
  EXPECT_EQ(First.Proc->getName(), "f");
  // Find a and g by name.
  ConstantValue AVal = -999, GVal = -999;
  for (const auto &[Var, Val] : First.Values) {
    if (Var->getName() == "a")
      AVal = Val;
    if (Var->getName() == "g")
      GVal = Val;
  }
  EXPECT_EQ(AVal, 2);
  EXPECT_EQ(GVal, 5);
  // Second call to f sees the updated global.
  for (const auto &[Var, Val] : R.Entries[2].Values)
    if (Var->getName() == "g") {
      EXPECT_EQ(Val, 7);
    }
}

TEST(Interpreter, SnapshotsCanBeDisabled) {
  ExecutionOptions Opts;
  Opts.RecordEntrySnapshots = false;
  ExecutionResult R = run("proc main() { print 1; }", Opts);
  EXPECT_TRUE(R.Entries.empty());
}

TEST(Interpreter, StepsAreCounted) {
  ExecutionResult R = run("proc main() { print 1; print 2; }");
  EXPECT_GE(R.Steps, 3u) << "two prints and a return at least";
}

} // namespace
