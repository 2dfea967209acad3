//===- tools/ipcp_fuzz.cpp - Pipeline fuzzing harness ---------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Exercises the whole pipeline — lexer, parser, sema, lowering, verifier,
// analysis, propagation, interpreter — on generated and mutated inputs
// under tight resource budgets, asserting totality: no crash, no hang, no
// verifier violation, no unsound constant, and degradation reported
// exactly when a budget tripped. The same campaign also feeds generated
// and mutated service-request lines through the ipcp_serverd dispatcher
// (docs/SERVICE.md), asserting the wire contract: every input is answered
// with a status-bearing body, and every error names a code and a message.
//
// Two entry points share one harness:
//
//  * Deterministic mode (the default `main`): seeded random programs from
//    workload/Generator, each also re-run through a byte-level mutator.
//    Same --seed, same behavior — this is what CI runs (see the fuzz_smoke
//    tests and docs/ROBUSTNESS.md).
//
//      ipcp_fuzz [--runs=N] [--seed=S] [--no-mutate] [--optimize]
//                [--contexts] [--crash-file=PATH]
//
//    With --optimize every parsed input additionally runs through the
//    transform pipeline (docs/TRANSFORMS.md) and the harness asserts
//    the behavioral contract: the optimized module verifies, its
//    interpretation agrees with the original (prefix-agreement when the
//    original trapped or ran out of fuel), and it never executes more
//    steps. Sanitizer CI jobs run this mode.
//
//    With --contexts every analyzable input is additionally solved by
//    the value-contexts engine (docs/CONTEXTS.md) at the default and a
//    starvation MaxContexts budget, asserting it never loses a fact the
//    1986 engine proved, stays dynamically sound, and reports its
//    budget trips (the fuzz_contexts_smoke test).
//
//    Before each input runs, it is written to PATH (default
//    ipcp_fuzz_crash.mf) so a crash leaves its reproducer on disk; the
//    file is removed when the whole campaign passes.
//
//  * libFuzzer mode: compile with -DIPCP_FUZZ_LIBFUZZER and
//    -fsanitize=fuzzer to get LLVMFuzzerTestOneInput over raw bytes
//    (coverage-guided, when the toolchain provides libFuzzer).
//
// Chaos mode (docs/ROBUSTNESS.md) replaces the campaign with a
// fault-injected replay of a generated service workload through the
// full service dispatcher, asserting the robustness contract end to end:
//
//      ipcp_fuzz --chaos=N [--seed=S] [--chaos-dir=DIR]
//
//    * every request line is answered under a seeded store/cache fault
//      plan, and the plan injects (faults actually fire);
//    * an identical-plan rerun is byte-identical, and so is the same
//      replay on four worker threads (store faults live on the reader
//      thread);
//    * the engine failure boundary converts injected analysis faults
//      into `internal` error envelopes marked retryable, again
//      byte-deterministically;
//    * the content store the faulted run tore up scrubs clean, and a
//      second scrub finds nothing left to repair;
//    * a warm run over the recovered store normalizes to the same
//      reports as a fault-free cold run.
//
//===----------------------------------------------------------------------===//

#include "core/BindingGraph.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/ServiceDispatcher.h"
#include "core/ServiceEngine.h"
#include "core/SummaryCache.h"
#include "interp/Interpreter.h"
#include "ir/Instructions.h"
#include "ir/Verifier.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "transform/Transform.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

/// Budgets tight enough that adversarial inputs trip them quickly, loose
/// enough that ordinary generated programs complete un-degraded.
/// --optimize: every parsed input also runs the transform pipeline and
/// the harness asserts its behavioral contract (set once in main;
/// docs/TRANSFORMS.md).
bool OptimizeInvariants = false;

/// --contexts: every analyzable input is additionally solved by the
/// value-contexts engine at the default budget and again at a
/// starvation budget (MaxContexts=2), asserting its contract
/// (docs/CONTEXTS.md): never a crash, never a constant the 1986 engine
/// found but the contexts engine lost, sound constants under the
/// dynamic oracle, and a flagged degradation whenever the budget trips.
bool ContextsInvariants = false;

ResourceLimits fuzzLimits() {
  ResourceLimits Limits;
  Limits.MaxParseDepth = 96;
  Limits.MaxTokens = 200'000;
  Limits.MaxAstNodes = 100'000;
  Limits.MaxIRInstructions = 200'000;
  Limits.MaxPropagationEvals = 2'000'000;
  return Limits;
}

/// One pipeline pass over \p Source. \p CheckOracle additionally executes
/// the program and validates every reported constant against the recorded
/// dynamic entries (only meaningful for generator output: mutated bytes
/// rarely parse, and when they do the oracle still holds, but the run
/// budget is better spent elsewhere). Returns false — after printing the
/// failure — when an invariant broke; crashes and hangs are the
/// sanitizers' and the timeout's to catch.
bool runOne(const std::string &Source, bool CheckOracle,
            std::string *Failure) {
  AnalysisRequest Req;
  Req.Opts.Limits = fuzzLimits();
  const IPCPOptions &Opts = Req.Opts;
  RequestRun Run(Req);
  if (!Run.compile(Source))
    return true; // rejected cleanly (syntax/sema error or frontend trip)

  Module *M = Run.M.get();
  std::vector<std::string> Violations = verifyModule(*M);
  if (!Violations.empty()) {
    *Failure = "verifier violation after lowering: " + Violations.front();
    return false;
  }

  IPCPResult R = runIPCP(*M, Opts, &Run.Guard);
  if (R.Status.Degraded != Run.Guard.tripped()) {
    *Failure = "degradation flag disagrees with the guard latch";
    return false;
  }
  if (R.Status.Degraded)
    return true; // partial results; nothing further to cross-check

  // The binding-multigraph formulation must reach the call-graph
  // worklist's fixpoint, VAL entry for VAL entry, on the same jump
  // functions.
  {
    ModuleAnalysis A(*M, Opts);
    buildJumpFunctions(A, Opts);
    ResourceGuard Guard(Opts.Limits);
    ConstantsMap Worklist = propagateConstants(A.CG, A.MRI, A.Tables.FJFs);
    ConstantsMap Binding = propagateConstantsBindingGraph(
        A.CG, A.MRI, A.Tables.FJFs, nullptr, &Guard);
    if (!Guard.tripped() && !Worklist.equals(Binding)) {
      *Failure = "call-graph and binding-graph propagators disagree";
      return false;
    }
  }

  // Value-contexts invariants (--contexts; docs/CONTEXTS.md): the
  // tabulating engine refines the 1986 baseline, so its CONSTANTS sets
  // must contain the jump engine's per procedure — at the default
  // budget and under a two-context starvation budget alike — and a
  // tripped budget must be reported, never crash.
  if (ContextsInvariants) {
    const unsigned Budgets[] = {0 /* default */, 2};
    for (unsigned Budget : Budgets) {
      IPCPOptions CtxOpts = Opts;
      CtxOpts.Engine = PropagationEngine::Contexts;
      if (Budget)
        CtxOpts.MaxContexts = Budget;
      IPCPResult Ctx = runIPCP(*M, CtxOpts);
      if (!Ctx.ContextStudy.Enabled) {
        *Failure = "contexts engine ran without filling its study block";
        return false;
      }
      if (Ctx.Status.Degraded)
        continue; // guard trip: baseline (or empty) fallback is sound
      for (const ProcedureResult &PR : R.Procs) {
        const ProcedureResult *CP = Ctx.findProc(PR.Name);
        if (!CP) {
          *Failure = "contexts engine lost procedure " + PR.Name;
          return false;
        }
        for (const auto &Fact : PR.EntryConstants)
          if (std::find(CP->EntryConstants.begin(), CP->EntryConstants.end(),
                        Fact) == CP->EntryConstants.end()) {
            *Failure = "contexts engine (budget " + std::to_string(Budget) +
                       ") lost " + PR.Name + "." + Fact.first;
            return false;
          }
      }
      // Refs are deliberately NOT required to be >=: extra entry
      // constants can prove a branch dead, and refs inside the dead
      // block stop counting (docs/CONTEXTS.md "What about refs?"). But
      // when the engines proved the *same* constants, the record stage
      // sees identical seeds and the refs must match exactly.
      if (Ctx.TotalEntryConstants == R.TotalEntryConstants &&
          Ctx.TotalConstantRefs != R.TotalConstantRefs) {
        *Failure = "identical CONSTANTS sets but different constant refs "
                   "between the engines";
        return false;
      }
      if (Ctx.ContextStudy.ValConstants <
          Ctx.ContextStudy.BaselineValConstants) {
        *Failure = "context study reports a negative precision delta";
        return false;
      }
      if (Ctx.ContextStudy.Merges > 0 && !Ctx.ContextStudy.BudgetTripped) {
        *Failure = "summary merges happened but the budget trip was not "
                   "reported";
        return false;
      }
      if (CheckOracle) {
        ExecutionOptions Exec;
        Exec.MaxSteps = 2'000'000;
        OracleReport Oracle = checkSoundness(*M, Ctx, Exec);
        if (!Oracle.Sound) {
          *Failure = "contexts oracle violation: " + Oracle.Violations.front();
          return false;
        }
      }
    }
  }

  CompletePropagationResult CP = runCompletePropagation(*M, Opts);
  if (CP.TotalConstantRefs < R.TotalConstantRefs) {
    *Failure = "complete propagation found fewer constant refs than one "
               "analysis round";
    return false;
  }

  // Incremental-cache invariants (docs/INCREMENTAL.md): a warm rerun
  // through an in-memory summary cache must normalize to the same report
  // as its cold populating run, a corrupted serialization must degrade
  // to a cold run — never crash, never change results — and an edit
  // analyzed against the stale cache must match a cold run of the edit.
  {
    SummaryCache Cache;
    IPCPResult Cold = runIPCP(*M, Opts, nullptr, &Cache);
    IPCPResult Warm = runIPCP(*M, Opts, nullptr, &Cache);
    JsonValue ColdDoc = resultToJson(Cold);
    JsonValue WarmDoc = resultToJson(Warm);
    normalizeReportForDiff(ColdDoc);
    normalizeReportForDiff(WarmDoc);
    if (!Cold.Status.Degraded && !Warm.Status.Degraded &&
        ColdDoc != WarmDoc) {
      *Failure = "warm cache run disagrees with its cold populating run";
      return false;
    }
    if (Cache.committed()) {
      std::string Text = Cache.serialize(Opts);
      std::string Bad = Text;
      if (!Bad.empty())
        Bad[Bad.size() / 2] ^= 0x20;
      SummaryCache Corrupt;
      Corrupt.loadFromString(Bad, Opts); // may reject; must not crash
      IPCPResult After = runIPCP(*M, Opts, nullptr, &Corrupt);
      JsonValue AfterDoc = resultToJson(After);
      normalizeReportForDiff(AfterDoc);
      if (!After.Status.Degraded && AfterDoc != ColdDoc) {
        *Failure = "corrupted cache changed analysis results";
        return false;
      }
    }
    // The stale step: a clone with a `print` prepended to one procedure,
    // analyzed against the warm cache, must normalize to the clone's cold
    // report and commit exactly what a fresh cache commits cold.
    if (Cache.committed() && !M->procedures().empty()) {
      std::unique_ptr<Module> Edited = M->clone();
      Procedure *P =
          Edited->procedures()[Source.size() % Edited->procedures().size()]
              .get();
      P->getEntryBlock()->insertAtTop(P->create<PrintInst>(
          Edited->nextInstId(), SourceLoc(), Edited->getConstant(9)));
      IPCPResult Stale = runIPCP(*Edited, Opts, nullptr, &Cache);
      SummaryCache Fresh;
      IPCPResult EditedCold = runIPCP(*Edited, Opts, nullptr, &Fresh);
      JsonValue StaleDoc = resultToJson(Stale);
      JsonValue EditedDoc = resultToJson(EditedCold);
      normalizeReportForDiff(StaleDoc);
      normalizeReportForDiff(EditedDoc);
      if (!Stale.Status.Degraded && !EditedCold.Status.Degraded) {
        if (StaleDoc != EditedDoc) {
          *Failure = "stale cache run disagrees with a cold run of the edit";
          return false;
        }
        if (Cache.serialize(Opts) != Fresh.serialize(Opts)) {
          *Failure = "a warm run committed other summaries than a cold run";
          return false;
        }
      }
    }
  }

  if (CheckOracle) {
    ExecutionOptions Exec;
    Exec.MaxSteps = 2'000'000;
    OracleReport Oracle = checkSoundness(*M, R, Exec);
    if (!Oracle.Sound) {
      *Failure = "oracle violation: " + Oracle.Violations.front();
      return false;
    }
  } else {
    ExecutionOptions Exec;
    Exec.MaxSteps = 500'000;
    Exec.RecordEntrySnapshots = false;
    interpret(*M, Exec); // traps/out-of-fuel are fine; crashes are not
  }

  // Transform-pipeline invariants (--optimize; docs/TRANSFORMS.md).
  // Last on purpose: optimizeModule rewrites M in place, so every
  // analysis cross-check above must see the original module. The
  // contract holds even when a budget tripped mid-rewrite — a degraded
  // pipeline may stop early, never emit an unsound rewrite.
  if (OptimizeInvariants) {
    ExecutionOptions Exec;
    Exec.MaxSteps = 500'000;
    Exec.RecordEntrySnapshots = false;
    ExecutionResult Before = interpret(*M, Exec);
    optimizeModule(*M, Opts);
    std::vector<std::string> OptViolations =
        verifyModule(*M);
    if (!OptViolations.empty()) {
      *Failure =
          "verifier violation after optimization: " + OptViolations.front();
      return false;
    }
    ExecutionResult After = interpret(*M, Exec);
    if (Before.ok()) {
      if (After.TheStatus != Before.TheStatus) {
        *Failure = "optimization changed execution status";
        return false;
      }
      if (After.Output != Before.Output) {
        *Failure = "optimization changed observable output";
        return false;
      }
      if (After.Steps > Before.Steps) {
        *Failure = "optimized module executed more steps than the original";
        return false;
      }
    } else {
      // A trapping or out-of-fuel run may produce fewer outputs once
      // dead (including trapping-dead) code is gone; the prefix must
      // agree.
      size_t Common = std::min(Before.Output.size(), After.Output.size());
      for (size_t I = 0; I != Common; ++I)
        if (After.Output[I] != Before.Output[I]) {
          *Failure = "optimization changed the agreed output prefix";
          return false;
        }
    }
  }
  return true;
}

/// One long-lived service shared by every service-request input, so the
/// campaign also exercises warm sessions, LRU eviction, and stat
/// accounting — not just the request codec. One job: the daemon's
/// dispatcher in its serial configuration.
ServiceDispatcher &fuzzService() {
  static ServiceDispatcher Svc([] {
    ServiceDispatcher::Config Conf;
    Conf.Jobs = 1;
    Conf.Engine.DefaultLimits = fuzzLimits();
    // Per cache bucket, of which there are ServiceEngine::CacheBuckets:
    // one resident session per bucket makes eviction happen during the
    // campaign.
    Conf.Engine.MaxSessions = 1;
    Conf.Engine.ScrubTimings = true;
    Conf.Engine.SuiteResolver = [](const std::string &Name, std::string &Out) {
      const SuiteProgram *Prog = findSuiteProgram(Name);
      if (!Prog)
        return false;
      Out = Prog->Source;
      return true;
    };
    return Conf;
  }());
  return Svc;
}

/// Whether \p Body — a response, or one item of a batch's "responses" —
/// carries a "status" string and, when that status is "error" or "busy",
/// an "error" object whose code and message are non-empty strings.
bool wellFormedBody(const JsonValue &Body, std::string *Failure) {
  const JsonValue *Status = Body.find("status");
  if (!Body.isObject() || !Status || !Status->isString()) {
    *Failure = "service response lacks a status string";
    return false;
  }
  if (Status->asString() != "error" && Status->asString() != "busy")
    return true;
  const JsonValue *Error = Body.find("error");
  for (const char *Key : {"code", "message"}) {
    const JsonValue *Field = Error ? Error->find(Key) : nullptr;
    if (!Field || !Field->isString() || Field->asString().empty()) {
      *Failure = "service error without a code or message";
      return false;
    }
  }
  return true;
}

/// One service-protocol pass over \p Line (docs/SERVICE.md): every
/// non-blank line gets exactly one response, a JSON object whose body
/// and batch items are well formed (wellFormedBody) — so a parse
/// rejection, like an engine's analysis error, must name a code and a
/// message. Crashes and hangs are, as ever, someone else's to catch;
/// this asserts the wire contract.
bool runServiceLine(const std::string &Line, std::string *Failure) {
  ServiceDispatcher &Svc = fuzzService();
  std::unique_ptr<ServiceDispatcher::Stream> St = Svc.openStream();
  Svc.submitLine(*St, Line);
  Svc.finishStream(*St);
  std::vector<std::string> Responses;
  for (std::string Response; St->popResponse(Response);)
    Responses.push_back(std::move(Response));
  bool Blank = Line.find_first_not_of(" \t\r") == std::string::npos;
  if (Responses.size() != (Blank ? 0u : 1u)) {
    *Failure = "service answered a line with " +
               std::to_string(Responses.size()) + " responses";
    return false;
  }
  if (Blank)
    return true;
  std::optional<JsonValue> Body = JsonValue::parse(Responses[0]);
  if (!Body) {
    *Failure = "service response is not JSON";
    return false;
  }
  if (!wellFormedBody(*Body, Failure))
    return false;
  if (const JsonValue *Items = Body->find("responses"))
    for (size_t I = 0; I != Items->size(); ++I)
      if (!wellFormedBody(Items->at(I), Failure))
        return false;
  return true;
}

/// Deterministic byte-level mutation: truncations, flips, splices, and
/// nesting bombs, all drawn from \p Rng.
std::string mutate(const std::string &Source, std::mt19937_64 &Rng) {
  std::string Out = Source;
  switch (Rng() % 6) {
  case 0: // truncate
    if (!Out.empty())
      Out.resize(Rng() % Out.size());
    break;
  case 1: { // flip bytes
    for (unsigned I = 0, E = 1 + Rng() % 8; I != E && !Out.empty(); ++I)
      Out[Rng() % Out.size()] = char(Rng() % 256);
    break;
  }
  case 2: { // splice a chunk elsewhere
    if (Out.size() > 8) {
      size_t From = Rng() % (Out.size() / 2);
      size_t Len = 1 + Rng() % (Out.size() / 4);
      size_t To = Rng() % Out.size();
      Out.insert(To, Out.substr(From, Len));
    }
    break;
  }
  case 3: { // nesting bomb: deep parens inside an expression
    size_t Depth = 1 + Rng() % 256;
    std::string Bomb = "proc nest() { x = ";
    Bomb.append(Depth, '(');
    Bomb += "1";
    Bomb.append(Depth, ')');
    Bomb += "; }\n";
    Out += Bomb;
    break;
  }
  case 4: { // block bomb: deep statement nesting
    size_t Depth = 1 + Rng() % 256;
    std::string Bomb = "proc blocks() { ";
    for (size_t I = 0; I != Depth; ++I)
      Bomb += "if (1) { ";
    Bomb += "x = 1; ";
    for (size_t I = 0; I != Depth; ++I)
      Bomb += "} ";
    Bomb += "}\n";
    Out += Bomb;
    break;
  }
  default: { // arithmetic edge cases
    Out += "proc edges(a) { a = a / (a - a); a = -9223372036854775807 - 1; "
           "a = a * a; print a % (a - a); }\n";
    break;
  }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Chaos mode
//===----------------------------------------------------------------------===//

/// One chaos replay: \p Lines through a fresh ServiceDispatcher with
/// \p Jobs workers over a fresh store at \p CacheDir, under \p Plan.
/// Returns the response lines in order and the number of faults the
/// replay injected (the delta of the global totals, which includes the
/// shutdown flush).
std::vector<std::string> chaosReplay(const std::vector<std::string> &Lines,
                                     unsigned Jobs, const std::string &CacheDir,
                                     const std::string &Plan,
                                     uint64_t *InjectedOut) {
  std::string Error;
  if (!faultInjector().installPlan(Plan, &Error)) {
    std::fprintf(stderr, "chaos: bad fault plan '%s': %s\n", Plan.c_str(),
                 Error.c_str());
    std::exit(1);
  }
  uint64_t Before = faultInjector().totals().Injected;

  ServiceDispatcher::Config Conf;
  Conf.Jobs = Jobs;
  Conf.Engine.ScrubTimings = true;
  Conf.Engine.MaxSessions = 2; // small, so eviction drives store traffic
  Conf.Engine.Store = std::make_shared<ContentStore>(CacheDir);
  Conf.Engine.SuiteResolver = [](const std::string &Name, std::string &Out) {
    const SuiteProgram *Prog = findSuiteProgram(Name);
    if (!Prog)
      return false;
    Out = Prog->Source;
    return true;
  };

  std::vector<std::string> Responses;
  {
    ServiceDispatcher Svc(Conf);
    std::unique_ptr<ServiceDispatcher::Stream> St = Svc.openStream();
    std::thread Consumer([&] {
      std::string Response;
      while (St->popResponse(Response))
        Responses.push_back(Response);
    });
    for (const std::string &Line : Lines)
      if (Svc.submitLine(*St, Line))
        break;
    Svc.finishStream(*St);
    Consumer.join();
    if (std::getenv("IPCP_CHAOS_VERBOSE")) {
      std::unique_ptr<ServiceDispatcher::Stream> St2 = Svc.openStream();
      Svc.submitLine(*St2, "{\"op\":\"stats\"}");
      Svc.finishStream(*St2);
      std::string StatsLine;
      while (St2->popResponse(StatsLine))
        std::printf("chaos service stats: %s", StatsLine.c_str());
    }
    // Persist dirty sessions so the store carries real state into the
    // scrub and warm phases (and so shutdown-path writes see faults
    // too — after capture, where their ordering cannot perturb the
    // compared bytes).
    Svc.shutdownFlush();
  }

  if (InjectedOut)
    *InjectedOut = faultInjector().totals().Injected - Before;
  if (!Plan.empty() && std::getenv("IPCP_CHAOS_VERBOSE"))
    std::printf("chaos replay stats: %s\n",
                faultInjector().statsJson().dump(2).c_str());
  faultInjector().clear();
  return Responses;
}

/// Every line answered, every answer status-bearing.
bool chaosResponsesTotal(const std::vector<std::string> &Lines,
                         const std::vector<std::string> &Responses,
                         const char *Phase) {
  if (Responses.size() != Lines.size()) {
    std::fprintf(stderr, "chaos %s: FAILED - %zu responses for %zu lines\n",
                 Phase, Responses.size(), Lines.size());
    return false;
  }
  for (const std::string &R : Responses)
    if (R.find("\"status\":\"") == std::string::npos) {
      std::fprintf(stderr, "chaos %s: FAILED - response without status: %s",
                   Phase, R.c_str());
      return false;
    }
  return true;
}

/// Parses each response line and strips warm-volatile content so a warm
/// replay can be compared against a cold one.
bool chaosNormalize(const std::vector<std::string> &Responses,
                    std::vector<std::string> &Out, const char *Phase) {
  Out.clear();
  for (const std::string &R : Responses) {
    std::string Error;
    std::optional<JsonValue> Doc = JsonValue::parse(R, &Error);
    if (!Doc) {
      std::fprintf(stderr, "chaos %s: FAILED - unparseable response: %s\n",
                   Phase, Error.c_str());
      return false;
    }
    normalizeReportForDiff(*Doc);
    Out.push_back(Doc->dump());
  }
  return true;
}

int runChaos(uint64_t Requests, uint64_t Seed, const std::string &Dir) {
  std::filesystem::remove_all(Dir);

  ServiceLogConfig LogConf;
  LogConf.Session = "chaos";
  LogConf.SessionCount = 4;
  LogConf.Seed = Seed;
  LogConf.Requests = unsigned(Requests);
  LogConf.RepeatChance = 70;
  LogConf.BatchChance = 10;
  LogConf.EndWithStats = false;
  LogConf.EndWithShutdown = false;
  std::vector<std::string> Lines = generateServiceLog(LogConf);

  // Seeded store plan. The periods are derived from the seed so
  // different campaigns stress different interleavings, but any one
  // seed is fully replayable.
  char Plan[128];
  std::snprintf(Plan, sizeof Plan,
                "store.commit.*:period=%u;store.read.*:period=%u;"
                "store.write.*:period=%u",
                unsigned(3 + Seed % 5), unsigned(5 + (Seed / 5) % 5),
                unsigned(2 + (Seed / 25) % 4));
  std::printf("ipcp_fuzz chaos: %zu lines, plan '%s'\n", Lines.size(), Plan);

  // Faulted cold run, then the same plan again, then the same plan on
  // four worker threads: all three must produce identical bytes.
  uint64_t InjA = 0, InjB = 0, InjC = 0;
  std::vector<std::string> A =
      chaosReplay(Lines, 1, Dir + "/a", Plan, &InjA);
  if (!chaosResponsesTotal(Lines, A, "replay"))
    return 1;
  if (InjA == 0) {
    std::fprintf(stderr, "chaos replay: FAILED - plan injected nothing\n");
    return 1;
  }
  std::vector<std::string> B =
      chaosReplay(Lines, 1, Dir + "/b", Plan, &InjB);
  if (A != B) {
    std::fprintf(stderr,
                 "chaos replay: FAILED - identical plan, different bytes\n");
    return 1;
  }
  std::vector<std::string> C =
      chaosReplay(Lines, 4, Dir + "/c", Plan, &InjC);
  if (A != C) {
    std::fprintf(stderr,
                 "chaos replay: FAILED - jobs=4 diverged from jobs=1 "
                 "under store faults\n");
    return 1;
  }
  std::printf("ipcp_fuzz chaos: replay ok (injected %llu/%llu/%llu, "
              "bytes identical across reruns and job counts)\n",
              (unsigned long long)InjA, (unsigned long long)InjB,
              (unsigned long long)InjC);

  // Failure boundary: analysis-stage faults must come back as
  // `internal` error envelopes marked retryable — and, single-threaded,
  // byte-deterministically.
  uint64_t InjF = 0;
  std::vector<std::string> F = chaosReplay(
      Lines, 1, Dir + "/f", "service.analyze:period=4", &InjF);
  if (!chaosResponsesTotal(Lines, F, "boundary"))
    return 1;
  uint64_t Internal = 0;
  for (const std::string &R : F)
    if (R.find("\"code\":\"internal\"") != std::string::npos) {
      ++Internal;
      if (R.find("\"retryable\":true") == std::string::npos) {
        std::fprintf(stderr,
                     "chaos boundary: FAILED - internal error not marked "
                     "retryable: %s",
                     R.c_str());
        return 1;
      }
    }
  if (Internal == 0) {
    std::fprintf(stderr,
                 "chaos boundary: FAILED - no internal-error envelopes\n");
    return 1;
  }
  std::vector<std::string> F2 = chaosReplay(
      Lines, 1, Dir + "/f2", "service.analyze:period=4", nullptr);
  if (F != F2) {
    std::fprintf(stderr,
                 "chaos boundary: FAILED - error envelopes not "
                 "deterministic\n");
    return 1;
  }
  std::printf("ipcp_fuzz chaos: boundary ok (%llu retryable internal "
              "errors, deterministic)\n",
              (unsigned long long)Internal);

  // Recovery: the faulted run left torn temp files (store.commit.*
  // fires between the temp write and the rename). A scrub must repair
  // the store, and a second scrub must find nothing left.
  {
    ContentStore::Options StoreOpts;
    StoreOpts.ScrubOnOpen = false;
    ContentStore Store(Dir + "/a", StoreOpts);
    ContentStore::ScrubReport First = Store.scrub();
    if (!First.Ok) {
      std::fprintf(stderr, "chaos recovery: FAILED - scrub reported a "
                           "failed repair\n");
      return 1;
    }
    if (First.TmpSwept == 0) {
      // The commit-point plan fires between temp write and rename, so a
      // faulted run must leave litter; a clean store here means the
      // torn-write path was never exercised.
      std::fprintf(stderr, "chaos recovery: FAILED - no torn writes to "
                           "recover (commit faults never fired?)\n");
      return 1;
    }
    ContentStore::ScrubReport Second = Store.scrub();
    if (Second.TmpSwept || Second.Quarantined || Second.DanglingDropped) {
      std::fprintf(stderr,
                   "chaos recovery: FAILED - second scrub still repairing "
                   "(tmp %llu, quarantined %llu, dangling %llu)\n",
                   (unsigned long long)Second.TmpSwept,
                   (unsigned long long)Second.Quarantined,
                   (unsigned long long)Second.DanglingDropped);
      return 1;
    }
    std::printf("ipcp_fuzz chaos: recovery ok (swept %llu tmp, "
                "quarantined %llu, dropped %llu dangling; second scrub "
                "clean)\n",
                (unsigned long long)First.TmpSwept,
                (unsigned long long)First.Quarantined,
                (unsigned long long)First.DanglingDropped);
  }

  // Warm equivalence: a warm replay over the recovered store must
  // normalize to the same reports as a fault-free cold run.
  std::vector<std::string> Cold =
      chaosReplay(Lines, 1, Dir + "/d", "", nullptr);
  std::vector<std::string> Warm =
      chaosReplay(Lines, 1, Dir + "/a", "", nullptr);
  if (!chaosResponsesTotal(Lines, Cold, "warm") ||
      !chaosResponsesTotal(Lines, Warm, "warm"))
    return 1;
  std::vector<std::string> ColdNorm, WarmNorm;
  if (!chaosNormalize(Cold, ColdNorm, "warm") ||
      !chaosNormalize(Warm, WarmNorm, "warm"))
    return 1;
  if (ColdNorm != WarmNorm) {
    for (size_t I = 0; I != ColdNorm.size(); ++I)
      if (ColdNorm[I] != WarmNorm[I]) {
        std::fprintf(stderr,
                     "chaos warm: FAILED - line %zu diverges after "
                     "normalization\ncold: %s\nwarm: %s\n",
                     I, ColdNorm[I].c_str(), WarmNorm[I].c_str());
        return 1;
      }
    std::fprintf(stderr, "chaos warm: FAILED - normalized streams "
                         "diverge\n");
    return 1;
  }
  std::printf("ipcp_fuzz chaos: warm-start over recovered store matches "
              "cold run (%zu lines)\n",
              Lines.size());

  std::filesystem::remove_all(Dir);
  std::printf("ipcp_fuzz chaos: all invariants held\n");
  return 0;
}

/// Derives a generator shape from the campaign RNG.
GeneratorConfig shapeFor(uint64_t Seed, std::mt19937_64 &Rng) {
  GeneratorConfig Config;
  Config.Seed = Seed;
  Config.NumProcs = 2 + Rng() % 8;
  Config.NumGlobals = Rng() % 5;
  Config.StmtsPerProc = 4 + Rng() % 12;
  Config.MaxExprDepth = 2 + Rng() % 3;
  Config.AllowRecursion = (Rng() % 4) == 0;
  Config.UseArrays = (Rng() % 2) == 0;
  return Config;
}

} // namespace

#ifdef IPCP_FUZZ_LIBFUZZER

// Coverage-guided entry: libFuzzer supplies the bytes, the harness
// asserts totality. Link with -fsanitize=fuzzer (no main here).
extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string Source(reinterpret_cast<const char *>(Data), Size);
  std::string Failure;
  if (!runOne(Source, /*CheckOracle=*/false, &Failure)) {
    std::fprintf(stderr, "invariant failure: %s\n", Failure.c_str());
    std::abort();
  }
  // The same bytes double as a service request line; JSON-shaped inputs
  // reach the engine, the rest must be rejected with a code + message.
  if (!runServiceLine(Source, &Failure)) {
    std::fprintf(stderr, "invariant failure: %s\n", Failure.c_str());
    std::abort();
  }
  return 0;
}

#else // deterministic driver

int main(int argc, char **argv) {
  uint64_t Runs = 1000, Seed = 1, Chaos = 0;
  bool Mutate = true;
  std::string CrashFile = "ipcp_fuzz_crash.mf";
  std::string ChaosDir = "ipcp_fuzz_chaos";
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--runs=", 0) == 0)
      Runs = std::strtoull(Arg.c_str() + 7, nullptr, 10);
    else if (Arg.rfind("--seed=", 0) == 0)
      Seed = std::strtoull(Arg.c_str() + 7, nullptr, 10);
    else if (Arg == "--no-mutate")
      Mutate = false;
    else if (Arg == "--optimize")
      OptimizeInvariants = true;
    else if (Arg == "--contexts")
      ContextsInvariants = true;
    else if (Arg.rfind("--crash-file=", 0) == 0)
      CrashFile = Arg.substr(13);
    else if (Arg.rfind("--chaos=", 0) == 0)
      Chaos = std::strtoull(Arg.c_str() + 8, nullptr, 10);
    else if (Arg.rfind("--chaos-dir=", 0) == 0)
      ChaosDir = Arg.substr(12);
    else {
      std::fprintf(stderr,
                   "usage: ipcp_fuzz [--runs=N] [--seed=S] [--no-mutate] "
                   "[--optimize] [--contexts] [--crash-file=PATH]\n"
                   "       ipcp_fuzz --chaos=N [--seed=S] [--chaos-dir=DIR]\n");
      return 1;
    }
  }

  if (Chaos)
    return runChaos(Chaos, Seed, ChaosDir);

  std::mt19937_64 Rng(Seed);
  for (uint64_t Run = 0; Run != Runs; ++Run) {
    std::string Source = generateProgram(shapeFor(Seed + Run, Rng));
    // Persist the input before running it: a crash (or sanitizer abort)
    // leaves its reproducer at CrashFile for CI to upload.
    std::string Inputs[2] = {Source, Mutate ? mutate(Source, Rng) : ""};
    for (unsigned Variant = 0; Variant != (Mutate ? 2u : 1u); ++Variant) {
      writeStringToFile(CrashFile, Inputs[Variant], nullptr);
      std::string Failure;
      if (!runOne(Inputs[Variant], /*CheckOracle=*/Variant == 0, &Failure)) {
        std::fprintf(stderr,
                     "FAIL at run %llu variant %u (seed %llu): %s\n"
                     "reproducer written to %s\n",
                     static_cast<unsigned long long>(Run), Variant,
                     static_cast<unsigned long long>(Seed), Failure.c_str(),
                     CrashFile.c_str());
        return 1;
      }
    }
    // Same campaign, second surface: a short deterministic service log
    // plus a mutated copy of each line through the daemon's request
    // dispatcher (docs/SERVICE.md). Pristine lines exercise warm
    // sessions and eviction on the shared service; mutated ones mostly
    // probe the rejection paths.
    ServiceLogConfig LogConf;
    LogConf.Seed = Seed + Run;
    LogConf.Requests = 2;
    LogConf.EndWithStats = (Run % 4) == 0;
    LogConf.EndWithShutdown = (Run % 8) == 0;
    for (const std::string &Line : generateServiceLog(LogConf)) {
      std::string Variants[2] = {Line, mutate(Line, Rng)};
      for (const std::string &Input : Variants) {
        writeStringToFile(CrashFile, Input, nullptr);
        std::string Failure;
        if (!runServiceLine(Input, &Failure)) {
          std::fprintf(stderr,
                       "FAIL at run %llu service line (seed %llu): %s\n"
                       "reproducer written to %s\n",
                       static_cast<unsigned long long>(Run),
                       static_cast<unsigned long long>(Seed), Failure.c_str(),
                       CrashFile.c_str());
          return 1;
        }
      }
    }
    if ((Run + 1) % 500 == 0)
      std::printf("ipcp_fuzz: %llu/%llu inputs ok\n",
                  static_cast<unsigned long long>(Run + 1),
                  static_cast<unsigned long long>(Runs));
  }
  std::remove(CrashFile.c_str());
  std::printf("ipcp_fuzz: %llu inputs, 0 failures\n",
              static_cast<unsigned long long>(Runs * (Mutate ? 2 : 1)));
  return 0;
}

#endif // IPCP_FUZZ_LIBFUZZER
