//===- core/ValueContexts.h - Context-sensitive propagation -----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value-contexts propagation engine (--engine=contexts): instead of
/// meeting every caller's bindings into one VAL set per procedure (the
/// 1986 framework), tabulate a *context* per distinct (procedure, entry
/// VAL vector) pair, following Padhye & Khedker's value-contexts method.
/// Each context evaluates the procedure's outgoing jump functions on its
/// exact entry vector, so correlated formals survive — two call sites
/// passing (1,2) and (2,1) both send x+y = 3 to a callee the merged
/// engine only sees as (bottom, bottom).
///
/// The engine is a worklist over context-transition edges. Contexts with
/// exact entry vectors are immutable and processed once (hash-cons memo:
/// an edge that re-derives an existing vector just reuses the context);
/// once the context-count budget (IPCPOptions::MaxContexts) is exhausted,
/// new vectors are met into one mutable *summary* context per procedure,
/// which re-enters the worklist whenever a merge lowers it — the
/// in-progress fixpoint iteration that keeps unbounded recursion
/// (f(n) calling f(n+1)) terminating: lattice depth 2 bounds every
/// summary slot to two lowerings.
///
/// The final per-procedure result is the meet over that procedure's
/// tabulated contexts, refined per slot against a baseline run of the
/// 1986 engine: wherever the contexts engine has no evidence (top) the
/// baseline's sound conclusion is adopted. The refinement makes the
/// engine's CONSTANTS sets a superset of the jump engine's on *every*
/// program — including ones where unreachable callers or top-valued
/// entry formals would otherwise make the two incomparable — and a
/// budget-exhausted or guard-tripped run degrades exactly to the
/// baseline. See docs/CONTEXTS.md for the termination and precision
/// arguments and the published study.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_VALUECONTEXTS_H
#define IPCP_CORE_VALUECONTEXTS_H

#include "core/Propagator.h"

namespace ipcp {

/// Cost/precision figures of one contexts-engine run — the source of the
/// report's context_study block and the ctx_* counters.
struct ContextEngineStats {
  /// False until propagateConstantsContexts fills the struct; the report
  /// emits context_study exactly when set.
  bool Enabled = false;

  /// Contexts tabulated, including summary contexts.
  uint64_t Contexts = 0;

  /// Mutable per-procedure summary contexts created after the budget
  /// tripped (or for procedures whose context population overflowed).
  uint64_t SummaryContexts = 0;

  /// Jump-function evaluations performed by the tabulation.
  uint64_t Evaluations = 0;

  /// Context-transition edges whose derived entry vector matched an
  /// already-tabulated context (the memoization hit count).
  uint64_t Reused = 0;

  /// Entry vectors met into a summary context instead of spawning a
  /// fresh context.
  uint64_t Merges = 0;

  /// Bytes of flat entry-value storage at fixpoint — the engine's peak
  /// memory proxy (entry vectors only grow, so final size == peak).
  uint64_t EntryBytes = 0;

  /// The MaxContexts budget was exhausted and the engine switched to
  /// summary-merging (graceful degradation toward the 1986 behavior).
  bool BudgetTripped = false;

  /// VAL entries constant at the baseline (1986 jump engine) fixpoint,
  /// against which ValConstants measures the precision delta.
  uint64_t BaselineValConstants = 0;

  /// VAL entries constant under the contexts engine (post-refinement);
  /// never less than BaselineValConstants.
  uint64_t ValConstants = 0;
};

/// Runs the value-contexts engine to fixpoint and returns the refined
/// per-procedure meet as a ConstantsMap over the baseline run's ValLayout:
/// an entry vector is one row of that layout, so the engine builds no
/// numbering of its own.
/// \p Guard budgets jump-function evaluations and the deadline exactly
/// like propagateConstants; on a trip the engine returns the baseline
/// jump-engine result computed before tabulation started (empty if the
/// baseline itself tripped). \p CtxStats, when non-null, receives the
/// study figures.
ConstantsMap propagateConstantsContexts(const CallGraph &CG,
                                        const ModRefInfo &MRI,
                                        const ForwardJumpFunctions &FJFs,
                                        const IPCPOptions &Opts,
                                        PropagatorStats *Stats = nullptr,
                                        ResourceGuard *Guard = nullptr,
                                        ContextEngineStats *CtxStats =
                                            nullptr);

} // namespace ipcp

#endif // IPCP_CORE_VALUECONTEXTS_H
