//===- core/ReturnJumpFunctions.h - Return jump functions -------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Return jump functions (paper Section 3.2): for each formal parameter
/// (and, as the natural extension of the paper's footnote 1, each global)
/// that a procedure may modify, the best approximation of its value on
/// return, as a polynomial over the procedure's entry values.
///
/// They are "calculated during an initial bottom-up pass through the call
/// graph": buildJumpFunctions (core/Pipeline.h) walks Tarjan SCCs
/// callee-first with the per-procedure steps below; inside a recursive
/// component the not-yet-built members resolve to bottom, keeping the
/// single pass sound. Interprocedural MOD information determines which
/// variables need a return jump function at all, and already-built return
/// jump functions feed the value numbering of later procedures, exactly
/// as described.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_RETURNJUMPFUNCTIONS_H
#define IPCP_CORE_RETURNJUMPFUNCTIONS_H

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/SSAConstruction.h"
#include "core/JumpFunction.h"

#include <map>
#include <unordered_map>

namespace ipcp {

/// Per-procedure SSA results, keyed by procedure.
using SSAMap = std::unordered_map<Procedure *, SSAResult>;

/// The table of return jump functions for one module.
class ReturnJumpFunctions {
public:
  /// Empty table; buildJumpFunctions fills it component by component
  /// (seedBottoms/liftProcedure for rebuilt procedures, insert for
  /// cache-restored ones).
  ReturnJumpFunctions() = default;

  /// Pre-populates bottom entries for every variable \p P may modify, so
  /// recursive components see "modified, unknown" rather than "not
  /// modified" for not-yet-lifted members. Must run for every member of
  /// an SCC before liftProcedure runs for any of them.
  void seedBottoms(Procedure *P, const ModRefInfo &MRI);

  /// Lifts \p P's exit values into its (already seeded) entries. Callee
  /// entries this lift consults must be final (bottom-up SCC order).
  /// \p UseGatedSSA selects the gated phi resolution (Options.h).
  void liftProcedure(Procedure *P, const SSAResult &ProcSSA,
                     SymExprContext &Ctx, bool UseGatedSSA);

  /// Installs one entry directly (cache restore path).
  void insert(const Procedure *P, const Variable *Var, JumpFunction JF) {
    Table[P].insert_or_assign(Var, std::move(JF));
  }

  /// All entries of \p P in deterministic (variable-ID) order; null when
  /// \p P modifies nothing.
  const std::map<const Variable *, JumpFunction, VariableIdLess> *
  entriesOf(const Procedure *P) const {
    auto It = Table.find(P);
    return It == Table.end() ? nullptr : &It->second;
  }

  /// Three-way lookup:
  ///  - null: \p P does not modify \p Var (no return jump function needed;
  ///    the variable's value passes through the call untouched — but then
  ///    no CallOut exists and this is never asked);
  ///  - bottom JumpFunction: modified, value unknown;
  ///  - expression: the value of \p Var on return as a function of \p P's
  ///    entry values.
  const JumpFunction *find(const Procedure *P, const Variable *Var) const;

  /// The return jump function \p Out resolves through: that of its
  /// location's unique modification source at the call (one by-reference
  /// binding, or the global itself). Null when there are several
  /// (aliasing), none, or it is bottom.
  const JumpFunction *forCallOut(const CallOutInst *Out) const;

  /// Number of non-bottom return jump functions (for statistics).
  unsigned knownCount() const;

  /// Total entries (modifiable variables across all procedures).
  unsigned entryCount() const;

private:
  // Keyed by (procedure, variable) with deterministic inner ordering.
  std::unordered_map<const Procedure *,
                     std::map<const Variable *, JumpFunction, VariableIdLess>>
      Table;
};

} // namespace ipcp

#endif // IPCP_CORE_RETURNJUMPFUNCTIONS_H
