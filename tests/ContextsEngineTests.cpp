//===- tests/ContextsEngineTests.cpp - value-contexts engine tests --------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The contract of --engine=contexts (docs/CONTEXTS.md), checked four ways:
//
//  1. precision: strictly more constants than the 1986 engine on the
//     checked-in correlated-formals example, and never fewer — per
//     procedure, as a set — on any suite program under any jump
//     function class;
//  2. soundness: facts produced per context drive --optimize without
//     changing observable behavior (interpreter differential);
//  3. determinism: repeat runs, job sweeps, and the context_study block
//     are byte-identical;
//  4. degradation: a MaxContexts budget of 1 and unbounded recursion
//     both terminate, stay sound, and report the trip.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Report.h"
#include "core/SuiteRunner.h"
#include "core/ValueContexts.h"
#include "interp/Interpreter.h"
#include "support/FileIO.h"
#include "transform/Transform.h"
#include "workload/Programs.h"
#include "workload/SuiteReport.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

using namespace ipcp;
using namespace ipcp::test;

namespace {

IPCPResult analyze(const std::string &Source, IPCPOptions Opts = {}) {
  auto M = lowerOk(Source);
  return runIPCP(*M, Opts);
}

IPCPOptions contextsOptions() {
  IPCPOptions Opts;
  Opts.Engine = PropagationEngine::Contexts;
  return Opts;
}

/// CONSTANTS(p) of every procedure as comparable (proc, var, value)
/// triples.
std::set<std::tuple<std::string, std::string, ConstantValue>>
allConstants(const IPCPResult &R) {
  std::set<std::tuple<std::string, std::string, ConstantValue>> Out;
  for (const ProcedureResult &PR : R.Procs)
    for (const auto &[Name, Value] : PR.EntryConstants)
      Out.insert({PR.Name, Name, Value});
  return Out;
}

/// The swapped-pair program: both calls reach blend with {1,2}, so the
/// x + y it forwards is 3 on every path. Merging callers first loses
/// that; tabulating contexts keeps it.
const char *SwapSource = "global out;\n"
                         "proc scale(s) { out = out + s * 7; print s; }\n"
                         "proc blend(x, y) { call scale(x + y); }\n"
                         "proc main() {\n"
                         "  out = 0;\n"
                         "  call blend(1, 2);\n"
                         "  call blend(2, 1);\n"
                         "  print out;\n"
                         "}\n";

TEST(ContextsEngine, StrictWinOnCorrelatedFormals) {
  IPCPResult Jump = analyze(SwapSource);
  IPCPResult Ctx = analyze(SwapSource, contextsOptions());

  // The 1986 engine meets (1,2) with (2,1) into (bottom, bottom) and
  // proves nothing about scale.
  const ProcedureResult *JumpScale = Jump.findProc("scale");
  ASSERT_NE(JumpScale, nullptr);
  EXPECT_TRUE(JumpScale->EntryConstants.empty());

  // The contexts engine evaluates x + y in each context and meets the
  // *results*: 3 both times.
  const ProcedureResult *CtxScale = Ctx.findProc("scale");
  ASSERT_NE(CtxScale, nullptr);
  ASSERT_EQ(CtxScale->EntryConstants.size(), 1u);
  EXPECT_EQ(CtxScale->EntryConstants[0].first, "s");
  EXPECT_EQ(CtxScale->EntryConstants[0].second, 3);

  EXPECT_GT(Ctx.TotalEntryConstants, Jump.TotalEntryConstants);
  EXPECT_GT(Ctx.TotalConstantRefs, Jump.TotalConstantRefs);

  // The study block quantifies exactly that delta.
  ASSERT_TRUE(Ctx.ContextStudy.Enabled);
  EXPECT_GT(Ctx.ContextStudy.ValConstants,
            Ctx.ContextStudy.BaselineValConstants);
  EXPECT_FALSE(Ctx.ContextStudy.BudgetTripped);
  EXPECT_FALSE(Jump.ContextStudy.Enabled);
}

TEST(ContextsEngine, CheckedInExampleMatchesInlineSource) {
  // The acceptance example is a file users can run; keep it in lockstep
  // with the inline copy this test reasons about.
  std::string FromDisk, Error;
  ASSERT_TRUE(readFileToString(std::string(IPCP_EXAMPLES_DIR) +
                                   "/context_swap.mf",
                               FromDisk, &Error))
      << Error;
  IPCPResult Ctx = analyze(FromDisk, contextsOptions());
  IPCPResult Jump = analyze(FromDisk);
  EXPECT_GT(Ctx.TotalEntryConstants, Jump.TotalEntryConstants)
      << "examples/programs/context_swap.mf must stay a strict win";
  const ProcedureResult *Scale = Ctx.findProc("scale");
  ASSERT_NE(Scale, nullptr);
  ASSERT_EQ(Scale->EntryConstants.size(), 1u);
  EXPECT_EQ(Scale->EntryConstants[0].second, 3);
}

TEST(ContextsEngine, NeverFewerConstantsOnSuite) {
  const JumpFunctionKind Kinds[] = {
      JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
      JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial};
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    for (JumpFunctionKind Kind : Kinds) {
      IPCPOptions JumpOpts;
      JumpOpts.ForwardKind = Kind;
      IPCPOptions CtxOpts = contextsOptions();
      CtxOpts.ForwardKind = Kind;
      IPCPResult Jump = runIPCP(*M, JumpOpts);
      IPCPResult Ctx = runIPCP(*M, CtxOpts);

      auto JumpSet = allConstants(Jump);
      auto CtxSet = allConstants(Ctx);
      for (const auto &Fact : JumpSet)
        EXPECT_TRUE(CtxSet.count(Fact))
            << Prog.Name << " jf=" << jumpFunctionKindName(Kind) << ": lost "
            << std::get<0>(Fact) << "." << std::get<1>(Fact) << "="
            << std::get<2>(Fact);
      // Refs carry no general >= bound — extra constants can kill a
      // branch and un-count the refs inside it (docs/CONTEXTS.md) —
      // but identical CONSTANTS sets mean identical record-stage seeds,
      // so the refs must then match exactly.
      if (CtxSet == JumpSet) {
        EXPECT_EQ(Ctx.TotalConstantRefs, Jump.TotalConstantRefs)
            << Prog.Name << " jf=" << jumpFunctionKindName(Kind);
      }
      ASSERT_TRUE(Ctx.ContextStudy.Enabled) << Prog.Name;
      EXPECT_GE(Ctx.ContextStudy.ValConstants,
                Ctx.ContextStudy.BaselineValConstants)
          << Prog.Name;
    }
  }
}

TEST(ContextsEngine, OptimizeDifferentialOnSwapProgram) {
  auto M = lowerOk(SwapSource);
  ExecutionOptions Exec;
  Exec.RecordEntrySnapshots = false;
  ExecutionResult Before = interpret(*M, Exec);
  ASSERT_TRUE(Before.ok());

  optimizeModule(*M, contextsOptions());
  expectVerifies(*M);
  ExecutionResult After = interpret(*M, Exec);
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After.Output, Before.Output)
      << "context facts drove a behavior-changing rewrite";
  EXPECT_LE(After.Steps, Before.Steps);
}

TEST(ContextsEngine, OptimizeDifferentialOnSuite) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    ExecutionOptions Exec;
    Exec.MaxSteps = 2'000'000;
    Exec.InputSeed = 23;
    Exec.RecordEntrySnapshots = false;
    ExecutionResult Before = interpret(*M, Exec);
    optimizeModule(*M, contextsOptions());
    expectVerifies(*M);
    ExecutionResult After = interpret(*M, Exec);
    if (Before.ok()) {
      EXPECT_EQ(After.TheStatus, Before.TheStatus) << Prog.Name;
      EXPECT_EQ(After.Output, Before.Output) << Prog.Name;
    }
  }
}

TEST(ContextsEngine, RepeatRunsByteIdentical) {
  auto RunOnce = [] {
    IPCPResult R = analyze(SwapSource, contextsOptions());
    JsonValue Doc = resultToJson(R);
    scrubReportTimings(Doc);
    return Doc.dump(2);
  };
  std::string First = RunOnce();
  std::string Second = RunOnce();
  EXPECT_EQ(First, Second);
}

TEST(ContextsEngine, SuiteReportByteIdenticalAcrossJobCounts) {
  auto ReportAt = [](unsigned Jobs) {
    SuiteRunner Runner(Jobs);
    SuiteStudyResult Study =
        runSuiteStudy(Runner, /*BuildReports=*/true, /*Store=*/nullptr,
                      PropagationEngine::Contexts);
    EXPECT_EQ(Study.Failures, 0);
    JsonValue Doc = buildSuiteReport(Study);
    scrubReportTimings(Doc);
    return Doc.dump(2);
  };
  std::string Sequential = ReportAt(1);
  std::string Parallel = ReportAt(4);
  EXPECT_EQ(Sequential, Parallel);
  EXPECT_NE(Sequential.find("\"engine\": \"contexts\""), std::string::npos);
  EXPECT_NE(Sequential.find("\"context_study\""), std::string::npos);
}

TEST(ContextsEngine, BudgetDegradesToBaselineSoundly) {
  IPCPOptions Tight = contextsOptions();
  Tight.MaxContexts = 1;
  IPCPResult Ctx = analyze(SwapSource, Tight);
  IPCPResult Jump = analyze(SwapSource);

  ASSERT_TRUE(Ctx.ContextStudy.Enabled);
  EXPECT_TRUE(Ctx.ContextStudy.BudgetTripped);
  EXPECT_EQ(Ctx.Stats.get("ctx_budget_trips"), 1u);
  EXPECT_GT(Ctx.ContextStudy.SummaryContexts, 0u);

  // Under the budget the engine still refines against the baseline, so
  // the jump engine's facts all survive.
  auto JumpSet = allConstants(Jump);
  auto CtxSet = allConstants(Ctx);
  for (const auto &Fact : JumpSet)
    EXPECT_TRUE(CtxSet.count(Fact));
  if (CtxSet == JumpSet) {
    EXPECT_EQ(Ctx.TotalConstantRefs, Jump.TotalConstantRefs);
  }
}

TEST(ContextsEngine, UnboundedRecursionTerminates) {
  // f(n) calls f(n + 1): the exact-vector space is infinite; the budget
  // must flip the tail into one summary context and converge (depth-2
  // lattice bounds the re-queues).
  const char *Source = "proc f(n) {\n"
                       "  if (n < 3) { call f(n + 1); }\n"
                       "  print n;\n"
                       "}\n"
                       "proc main() { call f(0); }\n";
  // The ungated analysis cannot see that n < 3 bounds the chain, so the
  // exact-vector population is unbounded at *any* budget; the trip into
  // the summary context is what terminates — at 2 and at the default
  // 4096 alike.
  IPCPOptions Opts = contextsOptions();
  Opts.MaxContexts = 2;
  IPCPResult R = analyze(Source, Opts);
  ASSERT_TRUE(R.ContextStudy.Enabled);
  EXPECT_TRUE(R.ContextStudy.BudgetTripped);

  IPCPResult Wide = analyze(Source, contextsOptions());
  ASSERT_TRUE(Wide.ContextStudy.Enabled);
  EXPECT_TRUE(Wide.ContextStudy.BudgetTripped);

  // Both budgets keep every baseline fact (the refinement guarantee).
  IPCPResult Jump = analyze(Source);
  auto JumpSet = allConstants(Jump);
  for (const auto &Fact : JumpSet) {
    EXPECT_TRUE(allConstants(R).count(Fact));
    EXPECT_TRUE(allConstants(Wide).count(Fact));
  }
}

TEST(ContextsEngine, ReportCarriesContextStudy) {
  auto M = lowerOk(SwapSource);
  IPCPOptions Opts = contextsOptions();
  IPCPResult R = runIPCP(*M, Opts);

  AnalysisReport Rep;
  Rep.SourceName = "swap";
  Rep.M = M.get();
  Rep.Opts = &Opts;
  Rep.Single = &R;
  JsonValue Doc = buildAnalysisReport(Rep);

  const JsonValue *Options = Doc.find("options");
  ASSERT_NE(Options, nullptr);
  ASSERT_NE(Options->find("engine"), nullptr);
  EXPECT_EQ(Options->find("engine")->asString(), "contexts");
  ASSERT_NE(Options->find("max_contexts"), nullptr);

  const JsonValue *Result = Doc.find("result");
  ASSERT_NE(Result, nullptr);
  const JsonValue *Study = Result->find("context_study");
  ASSERT_NE(Study, nullptr);
  for (const char *Key :
       {"contexts", "summary_contexts", "evaluations", "reused", "merges",
        "entry_bytes", "budget_tripped", "baseline_val_constants",
        "val_constants", "val_constants_delta"})
    EXPECT_NE(Study->find(Key), nullptr) << Key;
  EXPECT_GE(Study->find("val_constants_delta")->asInt(), 0);

  // The jump engine must not emit the block.
  IPCPOptions JumpOpts;
  IPCPResult JR = runIPCP(*M, JumpOpts);
  Rep.Opts = &JumpOpts;
  Rep.Single = &JR;
  JsonValue JumpDoc = buildAnalysisReport(Rep);
  EXPECT_EQ(JumpDoc.find("result")->find("context_study"), nullptr);
}

TEST(ContextsEngine, GuardTripKeepsRunTotal) {
  IPCPOptions Opts = contextsOptions();
  Opts.Limits.MaxPropagationEvals = 1;
  IPCPResult R = analyze(SwapSource, Opts);
  EXPECT_TRUE(R.Status.Degraded);
  // Degraded but total: whatever survived is a sound subset.
  for (const auto &[Proc, Var, Value] : allConstants(R)) {
    (void)Proc;
    (void)Var;
    (void)Value;
  }
}

} // namespace
