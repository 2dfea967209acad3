//===- core/Pipeline.h - End-to-end analysis drivers ------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry points of the library. One runIPCP call executes the
/// four stages of the paper's analyzer (Section 4.1), reading the module
/// and never changing it (SSA form lives in side tables, see
/// analysis/SSAConstruction.h):
///
///  1. generation of return jump functions (bottom-up over the call
///     graph, using SSA-based value numbering and MOD information);
///  2. generation of forward jump functions (per call site, of the
///     configured class) — buildJumpFunctions builds both;
///  3. interprocedural propagation of the VAL sets over the call graph;
///  4. recording the results: CONSTANTS(p) per procedure, plus the
///     substitution metric — the number of source-level variable
///     references proven constant when the interprocedural constants are
///     substituted into each procedure and local (SCCP) propagation
///     re-runs over the seeded body. This is the Metzger-Stroud
///     effectiveness measure the paper reports in Tables 2 and 3.
///
/// runCompletePropagation additionally interleaves dead code elimination
/// (substituteConstants) and re-runs the analysis until no new dead code
/// appears (Table 3, "Complete Propagation"). runIPCP with
/// IntraproceduralOnly gives the Table 3 intraprocedural baseline.
///
/// Both drivers are *total*: they honor the resource budgets in
/// IPCPOptions::Limits (or an externally supplied ResourceGuard) and,
/// when a budget trips, stop the offending stage, keep whatever sound
/// partial results exist, and report the trip in IPCPResult::Status
/// instead of looping or crashing.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_PIPELINE_H
#define IPCP_CORE_PIPELINE_H

#include "analysis/DeadCode.h"
#include "core/Options.h"
#include "core/Propagator.h"
#include "core/ValueContexts.h"
#include "support/Statistics.h"

#include <memory>
#include <string>
#include <vector>

namespace ipcp {

class IncrementalEngine;
class SummaryCache;

/// What stages 1-2 produce for one module: every procedure's SSA form,
/// the return jump functions and the forward jump functions of every call
/// site, all interned in one expression context. The tables point into
/// the module the call graph was built on.
struct JumpFunctionTables {
  explicit JumpFunctionTables(
      unsigned MaxExprNodes = IPCPOptions().MaxExprNodes)
      : Ctx(MaxExprNodes) {}

  SymExprContext Ctx;
  SSAMap SSA;
  /// Null when return jump functions are off.
  std::unique_ptr<ReturnJumpFunctions> RJFs;
  ForwardJumpFunctions FJFs;

  /// The stage timers and the rjf_* counters of the build.
  StatisticSet Stats;

  /// The summary-cache hooks runIPCP installs on a cached run; null
  /// everywhere else.
  IncrementalEngine *Incremental = nullptr;

  /// \p P's SSA form, constructed on first request.
  const SSAResult &ssaOf(Procedure *P, const ModRefInfo &MRI);
};

/// Stage 0 of the analyzer: the call graph and MOD/REF of a module, plus
/// the empty tables stages 1-2 fill, all over the module itself. Every
/// analysis of a module (runIPCP, cloning's planner, the driver's
/// --dump-jf, tests and benchmarks) starts from one of these and passes
/// it to buildJumpFunctions with the same options.
class ModuleAnalysis {
  Timer Clock; // declared first: it times the two builds below

public:
  ModuleAnalysis(const Module &M, const IPCPOptions &Opts);

  const CallGraph CG;
  const uint64_t CallGraphUs; ///< time to build CG
  const ModRefInfo MRI;       ///< worst case under !Opts.UseModInformation
  const uint64_t ModRefUs;    ///< time to compute MRI
  JumpFunctionTables Tables;
};

/// Stages 1-2 of the analyzer (Section 4.1), the one place they are
/// built. SSA comes first, in module order; with Tables.Incremental set, a
/// procedure whose body still matches its cache entry waits until its
/// component misses. Stage 1 then walks the SCCs bottom-up: a component
/// is either adopted from the cache or has bottoms seeded for every
/// member before any member's exit values are lifted, so recursive
/// members see "modified, unknown". Stage 2 builds the forward jump
/// functions of every non-adopted procedure, in module order, once all
/// return jump functions are final. IntraproceduralOnly builds SSA
/// alone. \p Guard's deadline is checked per component and before
/// stage 2; a trip leaves the tables partial.
void buildJumpFunctions(ModuleAnalysis &A, const IPCPOptions &Opts,
                        ResourceGuard *Guard = nullptr);

/// Per-procedure analysis outcome, reported by name.
struct ProcedureResult {
  std::string Name;

  /// CONSTANTS(p): entry-constant (name, value) pairs, declaration-order
  /// stable.
  std::vector<std::pair<std::string, ConstantValue>> EntryConstants;

  /// Variable references proven constant in this procedure (the
  /// substituted-constant count).
  unsigned ConstantRefs = 0;

  /// Entry constants that are "known but irrelevant" (Metzger & Stroud,
  /// paper Section 4.1): members of CONSTANTS(p) never referenced inside
  /// p, so substituting them changes nothing. Reported separately
  /// because the substitution metric deliberately excludes them.
  unsigned IrrelevantConstants = 0;
};

/// Outcome of one analysis configuration on one program.
struct IPCPResult {
  std::vector<ProcedureResult> Procs;

  /// Sum of ConstantRefs — the number a Table 2/3 cell reports.
  unsigned TotalConstantRefs = 0;

  /// Sum of |CONSTANTS(p)|.
  unsigned TotalEntryConstants = 0;

  /// Substitution facts keyed by instruction IDs, which clones keep;
  /// applicable to the module (or a clone of it) with applyFacts.
  TransformFacts Facts;

  /// Phase timings (microseconds) and work counters.
  StatisticSet Stats;

  /// True when this run consulted a summary cache (one was passed and
  /// SummaryCache::models the options). The cache_* counters in Stats and
  /// the report's "cache" object are emitted exactly when this is set.
  /// Note: replayed procedures contribute no entries to Facts — the
  /// substitution rounds therefore always run cache-less.
  bool UsedCache = false;

  /// Whether the run completed or degraded under a resource budget. A
  /// degraded run's results are sound but partial: propagation trips
  /// discard interprocedural constants entirely (a cut-short iteration
  /// is too optimistic; the contexts engine instead degrades to its
  /// completed 1986 baseline), and record-stage trips leave later
  /// procedures unanalyzed.
  PipelineStatus Status;

  /// Precision/cost figures of the contexts engine (Enabled exactly when
  /// Options::Engine == Contexts ran propagation). Report.cpp emits this
  /// as the context_study block; see docs/CONTEXTS.md.
  ContextEngineStats ContextStudy;

  const ProcedureResult *findProc(const std::string &Name) const {
    for (const ProcedureResult &P : Procs)
      if (P.Name == Name)
        return &P;
    return nullptr;
  }
};

/// Runs one full analysis of \p M under \p Opts. \p M is not modified.
/// When \p Guard is null a run-local guard is created from Opts.Limits;
/// pass an external guard to share one deadline across several pipeline
/// calls (the substitution rounds do this). A non-null \p Cache makes the
/// run incremental when SummaryCache::models(Opts) (docs/INCREMENTAL.md);
/// other configurations run cold and leave it untouched.
IPCPResult runIPCP(const Module &M, const IPCPOptions &Opts = {},
                   ResourceGuard *Guard = nullptr,
                   SummaryCache *Cache = nullptr);

/// Rounds run, applyFacts' changes summed over them, every round's
/// counters, and the last round's result.
struct SubstitutionResult {
  unsigned Rounds = 0;
  TransformStats Applied;
  StatisticSet Stats;
  IPCPResult LastRound;
};

/// The analyze-substitute loop: runIPCP on \p M, then applyFacts to \p M
/// (sound even in a round that tripped \p Guard). Stops at the round cap,
/// on a trip, or after a round that removes no block (UntilNoDeadCode:
/// complete propagation) or changes nothing (the constants pass).
SubstitutionResult substituteConstants(Module &M, const IPCPOptions &Opts,
                                       bool UntilNoDeadCode,
                                       ResourceGuard &Guard);

/// Result of the iterated analyze-substitute-eliminate experiment.
struct CompletePropagationResult {
  /// Analysis rounds executed (1 = no dead code was ever found).
  unsigned Rounds = 0;

  /// Distinct variable references proven constant across all rounds —
  /// comparable to (and never less than) a single run's
  /// TotalConstantRefs: the sum of the rounds' LoadsReplaced, since a
  /// round deletes every load it proves.
  unsigned TotalConstantRefs = 0;

  /// Dead blocks removed over all rounds.
  unsigned BlocksRemoved = 0;

  /// Counters merged over every round, plus the cp_* totals (rounds,
  /// loads replaced, branches folded, blocks/instructions removed).
  StatisticSet Stats;

  /// The last round's full result.
  IPCPResult FinalRound;

  /// Degradation status across all rounds (first trip wins; mirrors the
  /// final round's Status when that round tripped).
  PipelineStatus Status;
};

/// substituteConstants on a scratch copy of \p M until dead code
/// elimination finds nothing new (paper: one extra round sufficed). All
/// rounds share one ResourceGuard (from \p Guard or Opts.Limits), so a
/// deadline bounds the whole experiment, not each round.
CompletePropagationResult
runCompletePropagation(const Module &M, const IPCPOptions &Opts = {},
                       ResourceGuard *Guard = nullptr);

} // namespace ipcp

#endif // IPCP_CORE_PIPELINE_H
