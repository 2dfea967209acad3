//===- examples/ipcp_driver.cpp - command-line analyzer -------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// A command-line front end for the library, the shape of the analyzer
// described in the paper's Section 4.1 (generation of return jump
// functions, generation of forward jump functions, interprocedural
// propagation, recording the results):
//
//   ipcp_driver FILE.mf [options]
//     --complete                                  iterate with DCE
//     --clone                                     procedure cloning first
//     --dump-ir                                   print the IR
//     --run                                       execute and show output
//     --stats                                     counter summary table
//     --trace[=FILE]                              per-pass span trace
//     --report-json=FILE                          full JSON report
//
// plus the analysis-option and resource-budget flags of the option
// table in core/Options.h, which --help lists.
//
// With no FILE, analyzes a built-in demo program.
//
// Exit codes (documented in docs/ROBUSTNESS.md and README.md):
//   0  success
//   1  usage error (unknown flag, malformed value)
//   2  input file cannot be opened or read
//   3  source program has errors
//   4  an output file (report, trace) could not be written
//   5  a resource budget tripped; the run degraded gracefully
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasCheck.h"
#include "core/Cloning.h"
#include "core/Inlining.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/SummaryCache.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "support/ContentStore.h"
#include "support/FileIO.h"
#include "support/Trace.h"
#include "transform/Transform.h"
#include "workload/Programs.h"

#include <cstdio>
#include <optional>
#include <string>

using namespace ipcp;

namespace {

const char *DemoSource = R"(
global scale;
proc helper(x, y) {
  print x * scale + y;
}
proc main() {
  scale = 10;
  call helper(4, 2);
  call helper(4, 3);
}
)";

void printUsage() {
  std::printf(
      "usage: ipcp_driver [FILE.mf | --suite=NAME] [options]\n"
      "  --complete   --clone   --check-alias   --integrate\n"
      "  --dump-ir        --dump-jf   --run      --help\n"
      "  --optimize[=PASSES]  rewrite the program: substitute proven\n"
      "                   constants, fold expressions and branches, then\n"
      "                   forward copies (docs/TRANSFORMS.md). PASSES is a\n"
      "                   comma list of constants, copyprop (default both).\n"
      "                   With --dump-ir, prints before/after IR.\n"
      "  --stats          print the counter summary table\n"
      "  --trace[=FILE]   record per-pass spans (text; stderr or FILE)\n"
      "  --report-json=FILE  write the full analysis report as JSON\n"
      "  --cache-dir=DIR  persistent summary cache for incremental reruns\n"
      "                   (single-run analyses only; see docs/INCREMENTAL.md)\n"
      "  --scrub-timings  zero wall-clock fields in the JSON report so\n"
      "                   identical runs produce identical bytes\n"
      "analysis options:\n%s"
      "resource budgets (0 = unlimited; a trip degrades the run, exit 5):\n%s"
      "exit codes: 0 ok, 1 usage, 2 input unreadable, 3 source errors,\n"
      "            4 output write failed, 5 degraded (budget tripped)\n"
      "suite names: adm doduc fpppp linpackd matrix300 mdg ocean qcd\n"
      "             simple snasa7 spec77 trfd\n",
      optionHelp(OnDriver, OnOptions).c_str(),
      optionHelp(OnDriver, OnLimits).c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string Source = DemoSource;
  AnalysisRequest Req;
  Req.Name = "<demo>";
  bool Clone = false, DumpIR = false, RunProgram = false;
  bool CheckAlias = false, DumpJF = false, Integrate = false;
  bool ShowStats = false, TraceOn = false;
  bool ScrubTimings = false;
  std::string TraceFile, ReportFile, CacheDir;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help") {
      printUsage();
      return 0;
    }
    if (takeOptionFlag(Arg, OnDriver, Req.Opts))
      continue;
    if (Arg.rfind("--suite=", 0) == 0) {
      const SuiteProgram *Prog = findSuiteProgram(Arg.substr(8));
      if (!Prog) {
        std::fprintf(stderr, "error: no suite program named '%s'\n",
                     Arg.substr(8).c_str());
        return 1;
      }
      Source = Prog->Source;
      Req.Name = Prog->Name;
      continue;
    }
    if (Arg == "--report-json=") {
      std::fprintf(stderr, "error: --report-json needs a file name\n");
      return 1;
    }
    if (Arg.rfind("--report-json=", 0) == 0) {
      ReportFile = Arg.substr(14);
      continue;
    }
    if (Arg == "--trace") {
      TraceOn = true;
      continue;
    }
    if (Arg.rfind("--trace=", 0) == 0) {
      TraceOn = true;
      TraceFile = Arg.substr(8);
      continue;
    }
    if (Arg == "--stats") {
      ShowStats = true;
      continue;
    }
    if (Arg == "--cache-dir=") {
      std::fprintf(stderr, "error: --cache-dir needs a directory name\n");
      return 1;
    }
    if (Arg.rfind("--cache-dir=", 0) == 0) {
      CacheDir = Arg.substr(12);
      continue;
    }
    if (Arg == "--scrub-timings") {
      ScrubTimings = true;
      continue;
    }
    if (Arg == "--optimize") {
      Req.Optimize = true;
      continue;
    }
    if (Arg.rfind("--optimize=", 0) == 0) {
      std::string Error;
      if (!parsePassSpec(Arg.substr(11), Req.Passes, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      Req.Optimize = true;
      continue;
    }
    if (Arg == "--check-alias") {
      CheckAlias = true;
    } else if (Arg == "--complete") {
      Req.Complete = true;
    } else if (Arg == "--clone") {
      Clone = true;
    } else if (Arg == "--integrate") {
      Integrate = true;
    } else if (Arg == "--dump-ir") {
      DumpIR = true;
    } else if (Arg == "--dump-jf") {
      DumpJF = true;
    } else if (Arg == "--run") {
      RunProgram = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 1;
    } else {
      // Exit 2 distinguishes unreadable input from a source program with
      // errors (exit 3): an empty file is a valid (empty) program, a
      // missing or unreadable one is not.
      std::string Error;
      if (!readFileToString(Arg, Source, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
      Req.Name = Arg;
    }
  }

  // With --report-json=-, stdout carries the report alone; everything
  // else the driver prints goes to stderr.
  FILE *Out = ReportFile == "-" ? stderr : stdout;
  const IPCPOptions &Opts = Req.Opts;
  RequestRun Run(Req);

  // Writes the report, runs the program, and picks the exit code. A
  // frontend budget trip comes here straight from the compile step: it
  // is degradation, not a source error, so it gets a schema-valid
  // (result-free) report and exit 5.
  auto Finish = [&](const Trace *TraceData) {
    if (!ReportFile.empty()) {
      std::string Error;
      if (!writeJsonFile(ReportFile, Run.report(ScrubTimings, TraceData),
                         &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 4;
      }
      if (ReportFile != "-")
        std::printf("report written to %s\n", ReportFile.c_str());
    }
    if (RunProgram && Run.M) {
      ExecutionResult Exec = interpret(*Run.M);
      std::fprintf(Out, "\nexecution: %s, %llu steps\n",
                   Exec.ok() ? "ok" : Exec.TrapMessage.c_str(),
                   static_cast<unsigned long long>(Exec.Steps));
      for (ConstantValue V : Exec.Output)
        std::fprintf(Out, "output: %lld\n", static_cast<long long>(V));
    }
    PipelineStatus FinalStatus = Run.Guard.status();
    if (FinalStatus.Degraded) {
      std::fprintf(stderr, "warning: %s\n", FinalStatus.Message.c_str());
      return 5;
    }
    return 0;
  };

  bool Compiled = Run.compile(Source);
  std::fprintf(stderr, "%s", Run.Diags.str().c_str()); // errors or warnings
  if (!Compiled)
    return Run.Guard.tripped() ? Finish(nullptr) : 3;
  Module &M = *Run.M;
  std::fprintf(Out, "analyzing %s: %zu procedure(s), %u instruction(s)\n",
               Req.Name.c_str(), M.procedures().size(), M.instructionCount());

  Trace TraceData;
  if (TraceOn)
    Trace::setActive(&TraceData);

  if (CheckAlias) {
    std::vector<Diagnostic> Hazards = checkAliasHazards(M);
    if (Hazards.empty())
      std::fprintf(Out,
                   "alias check: clean (Fortran no-alias rule satisfied)\n");
    for (const Diagnostic &D : Hazards)
      std::fprintf(Out, "alias check: %s\n", D.str().c_str());
  }

  if (Clone) {
    const CloningResult &CR = Run.Cloning.emplace(
        cloneForConstants(M, {Opts}, &Run.Guard));
    std::fprintf(Out, "cloning: %u copies created, %u -> %u instructions\n",
                 CR.ClonesCreated, CR.InstructionsBefore, CR.InstructionsAfter);
  }

  if (Integrate) {
    InlineResult IR = inlineCalls(M);
    std::fprintf(Out, "integration: %u call(s) inlined in %u round(s), %u dead "
                 "procedure(s) removed, %u -> %u instructions\n",
                 IR.CallsInlined, IR.RoundsRun, IR.ProceduresRemoved,
                 IR.InstructionsBefore, IR.InstructionsAfter);
  }

  // The transform pipeline rewrites the module in place; everything
  // after the run — the reported analysis, --dump-ir, --run — sees the
  // optimized program. Before-IR is captured first so --dump-ir can
  // show the rewrite as a diffable before/after pair.
  std::string BeforeIR;
  if (Req.Optimize && DumpIR)
    BeforeIR = printModule(M);

  // Summary cache: single-run analyses of the unmodified module only
  // (the request's rule, plus cloning and integration, which rewrite the
  // module too; see docs/INCREMENTAL.md). The store opens without the
  // recovery scrub, so the run reads only its own ref and object, and
  // get verifies that object. A load failure is not an error — the run
  // proceeds cold and reports cache_load_failures.
  std::optional<ContentStore> Store;
  SummaryCache Cache;
  if (!CacheDir.empty() && Req.usesCache() && !Clone && !Integrate) {
    ContentStore::Options StoreOpts;
    StoreOpts.ScrubOnOpen = false;
    Store.emplace(CacheDir, StoreOpts);
    Cache.load(*Store, Req.Name, Opts, &Run.Guard);
  }

  Run.run(Store ? &Cache : nullptr);
  if (const std::optional<OptimizationResult> &OR = Run.Optimization) {
    std::fprintf(Out,
                 "optimization: %u substitution(s), %u fold(s), %u branch(es) "
                 "resolved, %u block(s) removed, %u instruction(s) removed, "
                 "%u cop%s propagated in %u round(s)\n",
                 OR->Substitutions, OR->Folds, OR->BranchesResolved,
                 OR->BlocksRemoved, OR->InstsRemoved, OR->CopiesPropagated,
                 OR->CopiesPropagated == 1 ? "y" : "ies", OR->Rounds);
    if (ShowStats)
      std::fprintf(Out, "optimization statistics:\n%s",
                   formatStatsTable(OR->Stats).c_str());
  }

  // CONSTANTS(p) per procedure, with its substitution count when Refs.
  auto PrintConstants = [&](const std::vector<ProcedureResult> &Procs,
                            bool Refs) {
    for (const ProcedureResult &PR : Procs) {
      std::fprintf(Out, "  CONSTANTS(%s) = {", PR.Name.c_str());
      for (size_t I = 0; I != PR.EntryConstants.size(); ++I)
        std::fprintf(Out, "%s%s=%lld", I ? ", " : "",
                     PR.EntryConstants[I].first.c_str(),
                     static_cast<long long>(PR.EntryConstants[I].second));
      if (Refs)
        std::fprintf(Out, "}  [%u refs]\n", PR.ConstantRefs);
      else
        std::fprintf(Out, "}\n");
    }
  };
  if (Run.Complete) {
    const CompletePropagationResult &CR = *Run.Complete;
    std::fprintf(Out, "complete propagation: %u round(s), %u dead blocks "
                 "removed\n",
                 CR.Rounds, CR.BlocksRemoved);
    std::fprintf(Out, "constant references: %u\n", CR.TotalConstantRefs);
    PrintConstants(CR.FinalRound.Procs, false);
    if (ShowStats)
      std::fprintf(Out, "statistics (all rounds):\n%s",
                   formatStatsTable(CR.Stats).c_str());
  } else {
    const IPCPResult &R = *Run.Single;
    std::fprintf(Out,
                 "configuration: %s jump functions, return JFs %s, MOD %s%s\n",
                 jumpFunctionKindName(Opts.ForwardKind),
                 Opts.UseReturnJumpFunctions ? "on" : "off",
                 Opts.UseModInformation ? "on" : "off",
                 Opts.IntraproceduralOnly ? ", intraprocedural only" : "");
    std::fprintf(Out, "entry constants: %u, constant references: %u\n",
                 R.TotalEntryConstants, R.TotalConstantRefs);
    PrintConstants(R.Procs, true);
    if (ShowStats)
      std::fprintf(Out, "statistics:\n%s", formatStatsTable(R.Stats).c_str());
    if (R.UsedCache)
      std::fprintf(
          Out, "cache: %llu hit(s), %llu miss(es), %llu replayed\n",
          static_cast<unsigned long long>(R.Stats.get(Counter::cache_hits)),
          static_cast<unsigned long long>(R.Stats.get(Counter::cache_misses)),
          static_cast<unsigned long long>(
              R.Stats.get(Counter::cache_record_reused)));
  }

  if (Store) {
    std::string Error;
    if (!Cache.save(*Store, Req.Name, Opts, &Error))
      std::fprintf(stderr, "warning: cache not saved: %s\n", Error.c_str());
  }

  // Stop recording before the ancillary dumps so the trace covers
  // exactly the analysis (and any cloning/integration before it).
  if (TraceOn)
    Trace::setActive(nullptr);

  if (DumpJF) {
    // Rebuild the jump functions and print them — the analyzer's own view
    // of each call site (paper Sections 3.1/3.2), under --intra-only too.
    IPCPOptions DumpOpts = Opts;
    DumpOpts.IntraproceduralOnly = false;
    ModuleAnalysis A(M, DumpOpts);
    buildJumpFunctions(A, DumpOpts);
    const CallGraph &CG = A.CG;
    const ForwardJumpFunctions &FJFs = A.Tables.FJFs;
    const ReturnJumpFunctions *RJFs = A.Tables.RJFs.get();

    std::fprintf(Out, "\njump functions (%s class):\n",
                 jumpFunctionKindName(Opts.ForwardKind));
    for (Procedure *P : CG.procedures()) {
      for (CallInst *Site : CG.callSitesIn(P)) {
        const CallSiteJumpFunctions &JFs = FJFs.at(Site);
        std::fprintf(Out, "  %s:%s -> %s\n", P->getName().c_str(),
                     Site->getLoc().str().c_str(),
                     Site->getCallee()->getName().c_str());
        for (unsigned I = 0; I != JFs.Formals.size(); ++I) {
          std::string Formal(Site->getCallee()->formals()[I]->getName());
          std::fprintf(Out, "    J(%s) = %s\n", Formal.c_str(),
                       JFs.Formals[I].str().c_str());
        }
        for (const auto &[G, JF] : JFs.Globals)
          std::fprintf(Out, "    J(global %s) = %s\n",
                       std::string(G->getName()).c_str(), JF.str().c_str());
      }
    }
    if (RJFs) {
      std::fprintf(Out, "\nreturn jump functions:\n");
      for (Procedure *P : CG.procedures()) {
        for (unsigned I = 0; I != P->getNumFormals(); ++I)
          if (const JumpFunction *JF = RJFs->find(P, P->formals()[I]))
            std::fprintf(Out, "  R(%s.%s) = %s\n", P->getName().c_str(),
                         std::string(P->formals()[I]->getName()).c_str(),
                         JF->str().c_str());
        for (Variable *G : A.MRI.modifiedGlobals(P))
          if (const JumpFunction *JF = RJFs->find(P, G))
            std::fprintf(Out, "  R(%s.global %s) = %s\n", P->getName().c_str(),
                         std::string(G->getName()).c_str(),
                         JF->str().c_str());
      }
    }
  }

  if (DumpIR) {
    if (Req.Optimize)
      std::fprintf(Out, "\n; === IR before optimization ===\n%s"
                   "\n; === IR after optimization ===\n%s",
                   BeforeIR.c_str(), printModule(M).c_str());
    else
      std::fprintf(Out, "\n%s", printModule(M).c_str());
  }

  if (TraceOn) {
    std::string Text = TraceData.str();
    if (TraceFile.empty()) {
      std::fprintf(stderr, "%s", Text.c_str());
    } else {
      std::string Error;
      if (!writeStringToFile(TraceFile, Text, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 4;
      }
    }
  }
  return Finish(TraceOn ? &TraceData : nullptr);
}
