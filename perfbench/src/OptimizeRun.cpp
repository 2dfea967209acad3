//===- perfbench/src/OptimizeRun.cpp - Workload optimize-run ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The paper's payoff: constants found become fewer executed steps. The
// inputs are the 12-program suite plus seeded small generated programs
// (3-7 procedures, the shapes the transform tests use; generated
// programs of hundreds of procedures exhaust the interpreter's fuel).
// Each unit clones the lowered program, runs optimizeModule on the
// clone, and interprets the original and the optimized module. Batch
// loop on one thread, cycling through the programs until the time is
// up. The only workload that runs transform and interp.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/AstLower.h"
#include "ir/Module.h"
#include "transform/Transform.h"
#include "workload/Generator.h"
#include "workload/Programs.h"

#include <memory>

using namespace ipcp;

namespace perfbench {

namespace {

constexpr unsigned GeneratedPrograms = 500;
/// Interpreter fuel per run of a generated program. Draws whose original
/// run does not finish within it (or traps) are redrawn: their optimized
/// run would be cut at the same fuel, so they measure nothing, and the
/// few long-running draws would otherwise set the tail on their own.
constexpr uint64_t GeneratedMaxSteps = 20'000;
/// Fuel for a suite program, every one of which must finish.
constexpr uint64_t SuiteMaxSteps = 2'000'000;
/// Generated programs the optimizer miscompiles are redrawn too, up to
/// this share of the draws: about 1 in 800 generated programs changes
/// behavior under the constants pass, a defect this workload would
/// otherwise report on most seeds. Above the share the run fails.
constexpr double MaxMiscompiledShare = 0.01;

struct Input {
  std::string Name;
  std::unique_ptr<Module> M;
  ExecutionOptions Exec;
};

/// The transform contract: same output and status, never more steps.
/// Returns what broke it, or "".
std::string contractBreach(const ExecutionResult &Before,
                           const ExecutionResult &After) {
  if (After.TheStatus != Before.TheStatus || After.Output != Before.Output)
    return "optimized program behaves differently";
  if (After.Steps > Before.Steps)
    return "optimized program takes more steps";
  return "";
}

} // namespace

RunResult runOptimizeRun(const RunOptions &O) {
  RunResult R;
  std::vector<Input> Inputs;
  unsigned Miscompiled = 0;
  R.Metrics["setup_s"] = medianSetup(5, [&] {
    Inputs.clear();
    Miscompiled = 0;
    // Adds the program when its original run finishes and its optimized
    // run keeps the contract; otherwise says why not.
    auto Add = [&](std::string Name, const std::string &Source,
                   uint64_t InputSeed, uint64_t MaxSteps) -> std::string {
      DiagnosticsEngine Diags;
      std::optional<Program> Ast = parseAndCheck(Source, Diags);
      if (!Ast)
        return "does not parse";
      Input In{std::move(Name), lowerProgram(*Ast), {}};
      In.Exec.MaxSteps = MaxSteps;
      In.Exec.InputSeed = InputSeed;
      In.Exec.RecordEntrySnapshots = false;
      ExecutionResult Before = interpret(*In.M, In.Exec);
      if (!Before.ok())
        return "does not run to completion";
      std::unique_ptr<Module> Opt = In.M->clone();
      optimizeModule(*Opt);
      std::string Breach = contractBreach(Before, interpret(*Opt, In.Exec));
      if (Breach.empty())
        Inputs.push_back(std::move(In));
      return Breach;
    };
    for (const SuiteProgram &Prog : benchmarkSuite())
      if (std::string Why =
              Add(Prog.Name, Prog.Source, deriveSeed(O.Seed, Inputs.size()),
                  SuiteMaxSteps);
          !Why.empty())
        R.fail("suite program " + Prog.Name + ": " + Why);
    for (uint64_t Draw = 0; Inputs.size() != benchmarkSuite().size() +
                                                 GeneratedPrograms &&
                            Draw != 100 * GeneratedPrograms;
         ++Draw) {
      uint64_t Seed = deriveSeed(O.Seed, 1000 + Draw);
      GeneratorConfig Config;
      Config.Seed = Seed;
      Config.NumProcs = 3 + unsigned(Seed % 5);
      Config.StmtsPerProc = 6;
      Config.AllowRecursion = Seed % 4 == 0;
      Config.UseArrays = Seed % 3 != 0;
      Config.UseWhileLoops = Seed % 2 == 0;
      std::string Why =
          Add("gen-" + std::to_string(Draw), generateProgram(Config), Seed,
              GeneratedMaxSteps);
      Miscompiled += Why.rfind("optimized", 0) == 0;
    }
  });
  if (Miscompiled > MaxMiscompiledShare * GeneratedPrograms)
    R.fail(std::to_string(Miscompiled) + " of the drawn programs change "
           "behavior when optimized");
  R.note(std::to_string(Miscompiled) +
         " drawn program(s) redrawn because the optimizer changed their "
         "behavior");

  struct Counts {
    uint64_t StepsBefore = 0, StepsAfter = 0, Substitutions = 0,
             ConstantRefs = 0, Insts = 0, Evaluations = 0, SccpRuns = 0;
  };
  std::vector<Counts> PerInput(Inputs.size());
  DeterminismCheck Determinism;
  std::vector<UnitTrace> Units;
  std::map<std::string, std::vector<double>> UntracedMs, TracedMs;

  auto RunUnit = [&](Input &In, Counts &C, UnitTrace *T) {
    double T0 = now();
    std::unique_ptr<Module> Opt = In.M->clone();
    double T1 = now();
    OptimizationResult OR = optimizeModule(*Opt);
    double T2 = now();
    ExecutionResult Before = interpret(*In.M, In.Exec);
    ExecutionResult After = interpret(*Opt, In.Exec);
    double T3 = now();

    if (OR.Status.Degraded)
      R.fail(In.Name + ": optimization degraded");
    if (std::string Breach = contractBreach(Before, After); !Breach.empty())
      R.fail(In.Name + ": " + Breach);
    C.StepsBefore = Before.Steps;
    C.StepsAfter = After.Steps;
    C.Substitutions = OR.Substitutions;
    C.ConstantRefs = OR.Stats.get("constant_refs");
    C.Insts = OR.InstructionsBefore;
    C.Evaluations = OR.Stats.get("prop_evaluations");
    C.SccpRuns = OR.Stats.get("sccp_runs");
    Determinism.check(In.Name, "interp.steps", C.StepsBefore + C.StepsAfter);
    Determinism.check(In.Name, "transform.substitutions", C.Substitutions);
    Determinism.check(In.Name, "constant_refs", C.ConstantRefs);
    Determinism.check(In.Name, "core.propagate.evaluations", C.Evaluations);

    if (T) {
      T->EndToEndMs = (T3 - T0) * 1e3;
      T->SelfMs["ir.clone"] = (T1 - T0) * 1e3;
      // optimizeModule's analysis rounds report their stage times; the
      // rest of the call is the rewrite itself.
      JsonValue Counters = OR.Stats.toJson();
      addStageSpans(Counters, -1, *T);
      double AnalysisMs = double(requireCounter(Counters, "time_total_us")) / 1e3;
      T->SelfMs["transform.optimize"] = (T2 - T1) * 1e3 - AnalysisMs;
      T->SelfMs["interp.run"] = (T3 - T2) * 1e3;
    }
    return T3 - T0;
  };

  // A traced run traces every other pass; the passes between measure
  // the tracing overhead.
  double Start = now();
  for (size_t Next = 0; now() - Start < O.Seconds; ++Next) {
    size_t I = Next % Inputs.size();
    bool Traced = O.Trace && Next / Inputs.size() % 2 == 1;
    UnitTrace T;
    double Sec = RunUnit(Inputs[I], PerInput[I], Traced ? &T : nullptr);
    ++R.Attempted;
    (Traced ? TracedMs : UntracedMs)[Inputs[I].Name].push_back(Sec * 1e3);
    if (Traced)
      Units.push_back(std::move(T));
  }

  Counts Sum;
  unsigned Covered = 0;
  for (const Counts &C : PerInput) {
    if (!C.StepsBefore)
      continue; // not reached in this run
    ++Covered;
    Sum.StepsBefore += C.StepsBefore;
    Sum.StepsAfter += C.StepsAfter;
    Sum.Substitutions += C.Substitutions;
    Sum.ConstantRefs += C.ConstantRefs;
    Sum.Insts += C.Insts;
    Sum.Evaluations += C.Evaluations;
    Sum.SccpRuns += C.SccpRuns;
  }
  if (Covered != Inputs.size())
    R.fail("only " + std::to_string(Covered) + " of " +
           std::to_string(Inputs.size()) + " programs ran; raise --seconds");
  double SavedFrac =
      Sum.StepsBefore ? 1.0 - double(Sum.StepsAfter) / double(Sum.StepsBefore)
                      : 0;
  R.note(std::to_string(Inputs.size()) + " programs: " +
         std::to_string(Sum.StepsBefore) + " -> " +
         std::to_string(Sum.StepsAfter) + " interpreted steps (" +
         std::to_string(SavedFrac * 100) + "% saved), " +
         std::to_string(Sum.Substitutions) + " substitutions");

  if (!O.Trace) {
    std::vector<double> PerProgram = quietPerInput(UntracedMs);
    double SumMs = 0;
    for (double Ms : PerProgram)
      SumMs += Ms;
    R.Metrics["throughput"] = double(PerProgram.size()) * 1e3 / SumMs;
    R.Metrics["latency_p50_ms"] = median(PerProgram);
    R.Metrics["latency_tail_ms"] = percentile(PerProgram, 0.98);
    R.Metrics["constant_refs"] = double(Sum.ConstantRefs);
    R.note("throughput in programs/s; latency per program: p50 and p98 "
           "over the " +
           std::to_string(Inputs.size()) +
           " programs, each the quietest of its " +
           std::to_string(UntracedMs.begin()->second.size()) + " passes");
    return R;
  }

  addSpanMetrics(Units, R);
  addOverheadMetrics(UntracedMs, TracedMs, R);
  R.Metrics["ir.insts"] = double(Sum.Insts);
  R.Metrics["core.propagate.evaluations"] = double(Sum.Evaluations);
  R.Metrics["analysis.sccp.runs"] = double(Sum.SccpRuns);
  R.Metrics["transform.substitutions"] = double(Sum.Substitutions);
  R.Metrics["interp.steps"] = double(Sum.StepsBefore + Sum.StepsAfter);
  R.Metrics["transform.steps_saved_frac"] = SavedFrac;
  return R;
}

} // namespace perfbench
