//===- tests/TransformTests.cpp - transform pipeline invariants -----------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The transform pipeline's contract (docs/TRANSFORMS.md), enforced
// mechanically:
//
//  1. behavior preservation: original and optimized modules interpret
//     to the same output and termination status — over the example
//     corpus, the 12-program suite, and ~100 generated programs;
//  2. the optimized module verifies in pre-SSA form and never takes
//     more interpreter steps than the original;
//  3. idempotence: optimizing an already-optimized module is a no-op;
//  4. the copyprop pass forwards across calls exactly when MOD
//     information proves the call harmless;
//  5. the opt_* counters agree with the OptimizationResult fields;
//  6. a resource-budget trip degrades the run but stays sound.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "support/FileIO.h"
#include "transform/Transform.h"
#include "workload/Generator.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Optimizes \p M in place and checks the full behavioral contract
/// against the pre-recorded \p Before execution.
OptimizationResult expectOptimizedEquivalent(Module &M,
                                             const ExecutionResult &Before,
                                             const ExecutionOptions &Exec,
                                             const std::string &Label,
                                             const IPCPOptions &Opts = {}) {
  OptimizationResult Result = optimizeModule(M, Opts);
  expectVerifies(M);

  ExecutionResult After = interpret(M, Exec);
  if (Before.ok()) {
    EXPECT_EQ(After.TheStatus, Before.TheStatus) << Label;
    EXPECT_EQ(After.Output, Before.Output)
        << Label << ": optimization must not change observable behavior";
    EXPECT_LE(After.Steps, Before.Steps)
        << Label << ": optimization must never execute more instructions";
  } else {
    // A trapping or out-of-fuel run may produce fewer outputs once dead
    // (including trapping-dead) code is gone; the prefix must agree.
    size_t Common = std::min(Before.Output.size(), After.Output.size());
    for (size_t I = 0; I != Common; ++I)
      EXPECT_EQ(After.Output[I], Before.Output[I]) << Label << " output " << I;
  }
  return Result;
}

ExecutionOptions testExecOptions(uint64_t Seed) {
  ExecutionOptions Exec;
  Exec.MaxSteps = 2'000'000;
  Exec.InputSeed = Seed;
  Exec.RecordEntrySnapshots = false;
  return Exec;
}

//===----------------------------------------------------------------------===//
// Differential equivalence: examples, suite, generated corpus
//===----------------------------------------------------------------------===//

TEST(TransformDifferential, ExamplePrograms) {
  unsigned Checked = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(IPCP_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".mf")
      continue;
    std::string Source, Error;
    ASSERT_TRUE(readFileToString(Entry.path().string(), Source, &Error))
        << Error;
    DiagnosticsEngine Diags;
    std::optional<Program> Prog = parseAndCheck(Source, Diags);
    if (!Prog)
      continue; // e.g. bad_syntax.mf — frontend rejection is its own test
    std::unique_ptr<Module> M = lowerProgram(*Prog);
    ExecutionOptions Exec = testExecOptions(7);
    ExecutionResult Before = interpret(*M, Exec);
    expectOptimizedEquivalent(*M, Before, Exec,
                              Entry.path().filename().string());
    ++Checked;
  }
  EXPECT_GE(Checked, 3u) << "examples/programs/ lost its corpus";
}

TEST(TransformDifferential, SuitePrograms) {
  unsigned TotalSubstitutions = 0, TotalBranches = 0, TotalCopies = 0;
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    ExecutionOptions Exec = testExecOptions(11);
    ExecutionResult Before = interpret(*M, Exec);
    OptimizationResult R =
        expectOptimizedEquivalent(*M, Before, Exec, Prog.Name);
    TotalSubstitutions += R.Substitutions;
    TotalBranches += R.BranchesResolved;
    TotalCopies += R.CopiesPropagated;
  }
  // The pipeline must keep doing real work on the paper's suite: the
  // bench acceptance floor (bench/bench_optimize.cpp), enforced here
  // too so a silent pipeline regression fails the fast tests.
  EXPECT_GE(TotalSubstitutions, 10u);
  EXPECT_GE(TotalBranches, 1u);
  EXPECT_GE(TotalCopies, 1u);
}

// ~100 generated programs across the generator's shape axes (the same
// sweep the incremental differential layer uses).
TEST(TransformDifferential, GeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumProcs = 3 + unsigned(Seed % 5);
    Config.StmtsPerProc = 6;
    Config.AllowRecursion = Seed % 4 == 0;
    Config.UseArrays = Seed % 3 != 0;
    Config.UseWhileLoops = Seed % 2 == 0;
    std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
    ExecutionOptions Exec = testExecOptions(Seed);
    ExecutionResult Before = interpret(*M, Exec);
    expectOptimizedEquivalent(*M, Before, Exec,
                              "seed " + std::to_string(Seed));
  }
}

// Every analysis configuration must produce a sound rewrite, not just
// the default one: sweep the paper's ablation axes on a few seeds.
TEST(TransformDifferential, EveryConfiguration) {
  for (uint64_t Seed : {3u, 7u, 12u}) {
    for (JumpFunctionKind Kind :
         {JumpFunctionKind::Literal, JumpFunctionKind::Polynomial})
      for (bool Mod : {false, true}) {
        GeneratorConfig Config;
        Config.Seed = Seed;
        Config.NumProcs = 5;
        std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
        ExecutionOptions Exec = testExecOptions(Seed);
        ExecutionResult Before = interpret(*M, Exec);
        IPCPOptions Opts;
        Opts.ForwardKind = Kind;
        Opts.UseModInformation = Mod;
        expectOptimizedEquivalent(*M, Before, Exec,
                                  "seed " + std::to_string(Seed) + " kind " +
                                      jumpFunctionKindName(Kind) + " mod " +
                                      std::to_string(Mod),
                                  Opts);
      }
  }
}

//===----------------------------------------------------------------------===//
// Idempotence: the pipeline reaches a fixpoint
//===----------------------------------------------------------------------===//

TEST(TransformPipeline, IdempotentOnSuite) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    optimizeModule(*M);
    std::string Once = printModule(*M);
    OptimizationResult Again = optimizeModule(*M);
    EXPECT_FALSE(Again.changedAnything())
        << Prog.Name << ": optimizing an optimized module must be a no-op";
    EXPECT_EQ(printModule(*M), Once) << Prog.Name;
  }
}

//===----------------------------------------------------------------------===//
// Pass behavior
//===----------------------------------------------------------------------===//

// Only MOD information lets a stored global survive a call to a
// procedure that provably writes something else (docs/TRANSFORMS.md).
TEST(TransformPipeline, CopyPropagationUsesModInformation) {
  const char *Source = R"(
    global g, h;
    proc bump() { g = g + 1; }
    proc main() {
      var i, y, acc;
      acc = 0;
      do i = 1, 10 {
        h = i * i;
        call bump();
        y = h + g;
        acc = acc + y;
      }
      print acc;
    }
  )";

  auto forwarded = [&](bool UseMod) {
    std::unique_ptr<Module> M = lowerOk(Source);
    CallGraph CG(*M);
    ModRefInfo MRI =
        UseMod ? ModRefInfo::compute(*M, CG) : ModRefInfo::worstCase(*M);
    unsigned N = propagateCopies(*M, MRI);
    expectVerifies(*M);
    return N;
  };

  // With MOD: the reload of h forwards across the call (bump writes
  // only g) and the reload of y forwards within the block. Without:
  // the call kills every global, leaving only the y forward.
  EXPECT_EQ(forwarded(true), 2u);
  EXPECT_EQ(forwarded(false), 1u);
}

TEST(TransformPipeline, PassSelectionIsHonored) {
  const char *Source = R"(
    proc main() {
      var n, x;
      n = 21;
      x = n + n;
      print x;
    }
  )";

  std::unique_ptr<Module> M = lowerOk(Source);
  TransformPassConfig OnlyCopyprop;
  OnlyCopyprop.ConstantSubstitution = false;
  OptimizationResult R = optimizeModule(*M, {}, OnlyCopyprop);
  EXPECT_EQ(R.Rounds, 0u);
  EXPECT_EQ(R.Substitutions, 0u);
  EXPECT_GT(R.CopiesPropagated, 0u);

  std::unique_ptr<Module> M2 = lowerOk(Source);
  TransformPassConfig OnlyConstants;
  OnlyConstants.CopyPropagation = false;
  OptimizationResult R2 = optimizeModule(*M2, {}, OnlyConstants);
  EXPECT_GT(R2.Substitutions, 0u);
  EXPECT_EQ(R2.CopiesPropagated, 0u);
}

TEST(TransformPipeline, ParsePassSpec) {
  TransformPassConfig Config;
  std::string Error;
  EXPECT_TRUE(parsePassSpec("constants", Config, &Error));
  EXPECT_TRUE(Config.ConstantSubstitution);
  EXPECT_FALSE(Config.CopyPropagation);

  EXPECT_TRUE(parsePassSpec("copyprop,constants", Config, &Error));
  EXPECT_TRUE(Config.ConstantSubstitution);
  EXPECT_TRUE(Config.CopyPropagation);

  EXPECT_FALSE(parsePassSpec("constants,typo", Config, &Error));
  EXPECT_NE(Error.find("unknown optimization pass 'typo'"),
            std::string::npos);
  EXPECT_FALSE(parsePassSpec("", Config, &Error));
}

TEST(TransformPipeline, CountersMatchResultFields) {
  std::unique_ptr<Module> M = loadSuiteModule(*findSuiteProgram("simple"));
  OptimizationResult R = optimizeModule(*M);
  EXPECT_EQ(R.Stats.get("opt_rounds"), R.Rounds);
  EXPECT_EQ(R.Stats.get("opt_substitutions"), R.Substitutions);
  EXPECT_EQ(R.Stats.get("opt_folds"), R.Folds);
  EXPECT_EQ(R.Stats.get("opt_branches_resolved"), R.BranchesResolved);
  EXPECT_EQ(R.Stats.get("opt_blocks_removed"), R.BlocksRemoved);
  EXPECT_EQ(R.Stats.get("opt_insts_removed"), R.InstsRemoved);
  EXPECT_EQ(R.Stats.get("opt_copies_propagated"), R.CopiesPropagated);
  EXPECT_EQ(R.InstructionsBefore - R.InstsRemoved, R.InstructionsAfter);
  ASSERT_EQ(R.PassTimings.size(), 2u);
  EXPECT_EQ(R.PassTimings[0].Pass, "constants");
  EXPECT_EQ(R.PassTimings[1].Pass, "copyprop");
}

//===----------------------------------------------------------------------===//
// Degradation: a tripped budget cuts the pipeline short, soundly
//===----------------------------------------------------------------------===//

TEST(TransformPipeline, DegradedRunStaysSound) {
  std::unique_ptr<Module> M = loadSuiteModule(*findSuiteProgram("simple"));
  ExecutionOptions Exec = testExecOptions(5);
  ExecutionResult Before = interpret(*M, Exec);

  IPCPOptions Opts;
  Opts.Limits.MaxPropagationEvals = 1; // trips inside the first round
  OptimizationResult R = optimizeModule(*M, Opts);
  EXPECT_TRUE(R.Status.Degraded);
  expectVerifies(*M);

  ExecutionResult After = interpret(*M, Exec);
  ASSERT_TRUE(Before.ok());
  EXPECT_EQ(After.TheStatus, Before.TheStatus);
  EXPECT_EQ(After.Output, Before.Output)
      << "facts applied before the trip must still be sound";
}

} // namespace
