//===- core/Inlining.h - Procedure integration ------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Procedure integration (inlining) and the Wegman–Zadeck comparison the
/// paper's Section 5 describes: "Wegman and Zadeck propose combining
/// procedure integration with intraprocedural constant propagation to
/// detect interprocedural constants. ... Data is not yet available to
/// indicate whether or not the proposed algorithm would perform
/// efficiently in practice."
///
/// This module supplies that data for our suite: inlineCalls substitutes
/// callee bodies at call sites (Fortran by-reference binding becomes
/// direct variable renaming; expression actuals become initialized
/// temporaries), and runIntegrationBasedIPCP measures how many constant
/// references a purely intraprocedural analysis finds in the integrated
/// program, against the jump-function framework's result and the code
/// growth integration costs. Because integration makes call paths
/// explicit, it can exceed the framework's precision (the paper
/// acknowledges this) — at multiplicative code size.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_INLINING_H
#define IPCP_CORE_INLINING_H

#include "core/Pipeline.h"

namespace ipcp {

/// Knobs for the inliner.
struct InlineOptions {
  /// Only integrate callees at most this many instructions long.
  unsigned MaxCalleeInstructions = 200;

  /// Stop when the module exceeds this factor of its original size.
  double MaxGrowthFactor = 8.0;

  /// Integration rounds (each round exposes the next call depth).
  unsigned MaxRounds = 4;

  /// Drop procedures unreachable from `main` after integration (the
  /// integrated copies subsume them), so growth numbers are honest.
  bool RemoveDeadProcedures = true;
};

/// What inlineCalls did.
struct InlineResult {
  unsigned CallsInlined = 0;
  unsigned RoundsRun = 0;
  unsigned ProceduresRemoved = 0;
  unsigned InstructionsBefore = 0;
  unsigned InstructionsAfter = 0;
};

/// Integrates call sites in \p M (mutating it) bottom-up until the caps
/// bite. Recursive callees (SCC members and self-calls) are never
/// integrated. Preserves observable behavior (property-tested against
/// the interpreter).
InlineResult inlineCalls(Module &M, const InlineOptions &Opts = {});

/// Inlines exactly one call site; exposed for tests and surgical use.
/// \p Call must be a site inside \p Caller whose callee is a different,
/// non-recursive procedure. Returns the continuation block.
BasicBlock *inlineCallSite(Module &M, Procedure &Caller, CallInst *Call);

/// The Wegman–Zadeck-style pipeline measured against the framework:
/// clone \p M, integrate, then run *intraprocedural-only* constant
/// propagation over the result.
struct IntegrationResult {
  InlineResult Inlining;
  /// Constant references found in the integrated program. Note the code
  /// was duplicated, so this counts references in a larger program —
  /// exactly the trade the approach makes.
  unsigned ConstantRefs = 0;
  unsigned EntryConstants = 0;
};

IntegrationResult runIntegrationBasedIPCP(const Module &M,
                                          const InlineOptions &Opts = {});

} // namespace ipcp

#endif // IPCP_CORE_INLINING_H
