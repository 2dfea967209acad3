//===- bench/bench_contexts.cpp - engine precision/cost study -------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The published study behind docs/CONTEXTS.md: the value-contexts engine
// (--engine=contexts) against the 1986 caller-merge framework, measured
// three ways —
//
//  - precision and cost over the paper's twelve suite programs, per
//    forward jump function class (constants found, constant refs,
//    contexts tabulated, evaluations, peak entry-vector bytes);
//  - the same over seeded generated programs, whose denser call graphs
//    exercise memoization and budget behavior;
//  - a synthetic correlated-formals family (swap fans of growing width)
//    where the precision gap is structural: every fan width gives the
//    contexts engine a win the merged engine cannot see.
//
// Timed sections compare wall-clock per solve. The headline numbers are
// published as BENCH_contexts.json (see BenchReport.h) and the contexts
// engine must never find fewer entry constants — constants_delta is
// asserted non-negative at emission time. refs_delta is reported but
// not bounded: extra constants can kill a branch and un-count the refs
// inside it (docs/CONTEXTS.md).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/Pipeline.h"
#include "workload/Generator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

using namespace ipcp;

namespace {

/// A swap fan of the given width: every blend_i receives the same value
/// pair in swapped orders, so the sum it forwards is invariant — but
/// only visible per context.
std::string swapFanProgram(unsigned Width) {
  std::string Src = "proc scale(s) { print s; }\n";
  for (unsigned I = 0; I != Width; ++I)
    Src += "proc blend" + std::to_string(I) +
           "(x, y) { call scale(x + y); }\n";
  Src += "proc main() {\n";
  for (unsigned I = 0; I != Width; ++I) {
    std::string N = std::to_string(I);
    Src += "  call blend" + N + "(" + std::to_string(I + 1) + ", " +
           std::to_string(Width - I) + ");\n";
    Src += "  call blend" + N + "(" + std::to_string(Width - I) + ", " +
           std::to_string(I + 1) + ");\n";
  }
  Src += "}\n";
  return Src;
}

struct CellResult {
  unsigned Constants = 0;
  unsigned Refs = 0;
  uint64_t Evaluations = 0;
  uint64_t Contexts = 0;
  uint64_t EntryBytes = 0;
  bool BudgetTripped = false;
};

CellResult runEngine(const Module &M, JumpFunctionKind Kind,
                     PropagationEngine Engine) {
  IPCPOptions Opts;
  Opts.ForwardKind = Kind;
  Opts.Engine = Engine;
  IPCPResult R = runIPCP(M, Opts);
  CellResult Out;
  Out.Constants = R.TotalEntryConstants;
  Out.Refs = R.TotalConstantRefs;
  Out.Evaluations = R.Stats.get(Counter::prop_evaluations);
  if (R.ContextStudy.Enabled) {
    Out.Contexts = R.ContextStudy.Contexts;
    Out.EntryBytes = R.ContextStudy.EntryBytes;
    Out.BudgetTripped = R.ContextStudy.BudgetTripped;
  }
  return Out;
}

/// One program × one JF class under both engines, printed and returned
/// as a study row. Exits nonzero if the contexts engine found fewer
/// entry constants — the acceptance bound the study publishes. Refs
/// carry no such bound: extra constants can prove a branch dead and
/// stop its refs from counting (docs/CONTEXTS.md "What about refs?"),
/// so refs_delta may legitimately be negative when constants_delta is
/// positive.
JsonValue studyRow(const std::string &Name, const Module &M,
                   JumpFunctionKind Kind) {
  CellResult Jump = runEngine(M, Kind, PropagationEngine::Jump);
  CellResult Ctx = runEngine(M, Kind, PropagationEngine::Contexts);
  if (Ctx.Constants < Jump.Constants ||
      (Ctx.Constants == Jump.Constants && Ctx.Refs != Jump.Refs)) {
    std::fprintf(stderr,
                 "FAIL: contexts engine lost precision on %s (jf=%s): "
                 "constants %u vs %u, refs %u vs %u\n",
                 Name.c_str(), jumpFunctionKindName(Kind), Ctx.Constants,
                 Jump.Constants, Ctx.Refs, Jump.Refs);
    std::exit(1);
  }
  std::printf("  %-16s %-10s  %5u -> %5u  %5u -> %5u  %7llu  %8llu  %6llu%s\n",
              Name.c_str(), jumpFunctionKindName(Kind), Jump.Constants,
              Ctx.Constants, Jump.Refs, Ctx.Refs,
              (unsigned long long)Ctx.Contexts,
              (unsigned long long)Ctx.Evaluations,
              (unsigned long long)Ctx.EntryBytes,
              Ctx.BudgetTripped ? "  (budget tripped)" : "");
  JsonValue Row = JsonValue::object();
  Row.set("program", Name);
  Row.set("forward_jf", jumpFunctionKindName(Kind));
  Row.set("jump_constants", Jump.Constants);
  Row.set("contexts_constants", Ctx.Constants);
  Row.set("constants_delta", int64_t(Ctx.Constants) - int64_t(Jump.Constants));
  Row.set("jump_refs", Jump.Refs);
  Row.set("contexts_refs", Ctx.Refs);
  Row.set("refs_delta", int64_t(Ctx.Refs) - int64_t(Jump.Refs));
  Row.set("jump_evaluations", Jump.Evaluations);
  Row.set("contexts_evaluations", Ctx.Evaluations);
  Row.set("contexts_tabulated", Ctx.Contexts);
  Row.set("entry_bytes", Ctx.EntryBytes);
  Row.set("budget_tripped", Ctx.BudgetTripped);
  return Row;
}

JsonValue suiteStudy() {
  std::printf("Engine study over the paper suite (constants and refs as "
              "jump -> contexts):\n");
  std::printf("  program          jf          constants       refs        "
              "  contexts    evals   bytes\n");
  JsonValue Rows = JsonValue::array();
  const JumpFunctionKind Kinds[] = {
      JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
      JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial};
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    for (JumpFunctionKind Kind : Kinds)
      Rows.push(studyRow(Prog.Name, *M, Kind));
  }
  std::printf("\n");
  return Rows;
}

JsonValue generatedStudy() {
  std::printf("Engine study over generated programs (polynomial JFs):\n");
  std::printf("  program          jf          constants       refs        "
              "  contexts    evals   bytes\n");
  JsonValue Rows = JsonValue::array();
  for (uint64_t Seed : {101u, 202u, 303u, 404u}) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumProcs = 12;
    Config.NumGlobals = 4;
    Config.StmtsPerProc = 10;
    std::unique_ptr<Module> M = benchModule(generateProgram(Config));
    Rows.push(studyRow("gen" + std::to_string(Seed), *M,
                       JumpFunctionKind::Polynomial));
  }
  std::printf("\n");
  return Rows;
}

JsonValue swapFanStudy() {
  std::printf("Correlated-formals family (structural precision gap):\n");
  std::printf("  program          jf          constants       refs        "
              "  contexts    evals   bytes\n");
  JsonValue Rows = JsonValue::array();
  // Width 1 would be degenerate — (1,1) swapped is itself — so the
  // family starts where the correlation is real.
  for (unsigned Width : {2u, 4u, 16u, 64u}) {
    std::unique_ptr<Module> M = benchModule(swapFanProgram(Width));
    JsonValue Row = studyRow("swapfan" + std::to_string(Width), *M,
                             JumpFunctionKind::Polynomial);
    if (Row.find("constants_delta")->asInt() <= 0) {
      std::fprintf(stderr,
                   "FAIL: swap fan width %u shows no contexts win\n", Width);
      std::exit(1);
    }
    Rows.push(std::move(Row));
  }
  std::printf("\n");
  return Rows;
}

void BM_EngineOnSuite(benchmark::State &State) {
  const SuiteProgram &Prog = benchmarkSuite()[size_t(State.range(0))];
  std::unique_ptr<Module> M = loadSuiteModule(Prog);
  bool Contexts = State.range(1);
  IPCPOptions Opts;
  if (Contexts)
    Opts.Engine = PropagationEngine::Contexts;
  State.SetLabel(Prog.Name + (Contexts ? "/contexts" : "/jump"));
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M, Opts);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
}
BENCHMARK(BM_EngineOnSuite)
    ->ArgsProduct({{0, 3, 6, 11}, {0, 1}})
    ->ArgNames({"program", "contexts"});

void BM_EngineOnSwapFan(benchmark::State &State) {
  std::unique_ptr<Module> M = benchModule(swapFanProgram(State.range(0)));
  bool Contexts = State.range(1);
  IPCPOptions Opts;
  if (Contexts)
    Opts.Engine = PropagationEngine::Contexts;
  for (auto _ : State) {
    IPCPResult R = runIPCP(*M, Opts);
    benchmark::DoNotOptimize(R.TotalConstantRefs);
  }
}
BENCHMARK(BM_EngineOnSwapFan)
    ->ArgsProduct({{4, 16, 64}, {0, 1}})
    ->ArgNames({"width", "contexts"});

} // namespace

int main(int argc, char **argv) {
  JsonValue Doc = JsonValue::object();
  Doc.set("suite", suiteStudy());
  Doc.set("generated", generatedStudy());
  Doc.set("swap_fans", swapFanStudy());
  benchReport("contexts", std::move(Doc));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
