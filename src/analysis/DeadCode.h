//===- analysis/DeadCode.h - Fact application and DCE -----------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies analysis facts back to the canonical pre-SSA module and cleans
/// up the fallout. This implements the transformation half of the paper's
/// experiments:
///
///  - constant substitution: scalar loads proven constant are replaced by
///    the constant (the paper's "transformed version of the original
///    source in which the interprocedural constants are textually
///    substituted into the code");
///  - branch folding: conditional branches whose condition is proven
///    constant become unconditional;
///  - unreachable code elimination + removal of trivially dead pure
///    instructions — the "dead code elimination" of the complete
///    propagation experiment (Table 3).
///
/// Facts are keyed by instruction IDs, which clones keep, so facts the
/// analysis computed on a module apply to it or to any clone of it.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_DEADCODE_H
#define IPCP_ANALYSIS_DEADCODE_H

#include "ir/Module.h"
#include "support/ConstantMath.h"

#include <unordered_map>

namespace ipcp {

/// Facts to apply, keyed by instruction ID.
struct TransformFacts {
  /// LoadInst ID -> the constant value the load always produces.
  std::unordered_map<uint64_t, ConstantValue> ConstantLoads;
  /// CondBranchInst ID -> whether the true edge is always taken.
  std::unordered_map<uint64_t, bool> FoldedBranches;
};

/// What applyFacts changed.
struct TransformStats {
  unsigned LoadsReplaced = 0;
  unsigned BranchesFolded = 0;
  unsigned BlocksRemoved = 0;
  unsigned InstsRemoved = 0;

  /// Binary/Unary instructions folded to literals by the cleanup pass.
  /// Also counted in InstsRemoved (a fold deletes the instruction);
  /// reported separately so the optimization report can distinguish
  /// folds from plain dead-chain removal.
  unsigned ExprsFolded = 0;

  /// True when the transformation found dead code — the condition the
  /// paper uses to re-run complete propagation from scratch.
  bool foundDeadCode() const { return BlocksRemoved != 0; }

  bool changedAnything() const {
    return LoadsReplaced || BranchesFolded || BlocksRemoved || InstsRemoved;
  }
};

/// Applies \p Facts to \p M (pre-SSA form) and cleans up.
TransformStats applyFacts(Module &M, const TransformFacts &Facts);

/// The one operand-substitution sweep: every operand of every
/// instruction in \p P that \p Subst maps is rewritten to its image.
/// Images must not themselves be keys (one sweep, no chasing).
void replaceOperands(Procedure &P,
                     const std::unordered_map<const Value *, Value *> &Subst);

/// Deletes pure value-producing instructions with no uses, iteratively.
/// Returns the number of instructions removed.
unsigned removeTriviallyDeadInstructions(Procedure &P);

/// Folds Binary/Unary instructions whose operands are all constants into
/// uniqued ConstantInts, to fixpoint (folds that would trap are left
/// alone). Returns the number of instructions folded. Runs inside
/// applyFacts after load substitution so e.g. a loop bound `n - 1`
/// becomes a literal once `n` is substituted.
unsigned foldConstantExpressions(Procedure &P);

} // namespace ipcp

#endif // IPCP_ANALYSIS_DEADCODE_H
