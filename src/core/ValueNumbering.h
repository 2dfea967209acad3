//===- core/ValueNumbering.h - SSA value -> symbolic expr -------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SSA-based value numbering that the paper builds its jump functions
/// on (Section 4.1: "we built a set of jump functions on top of an
/// existing framework for global value numbering"). The SymbolicLifter
/// maps each SSA value of one procedure to a canonical symbolic
/// expression over the procedure's entry values (or bottom), memoized so
/// that structurally equal values share one hash-consed expression. It
/// reads the procedure's untouched body through its SSA side tables: a
/// promoted load lifts as its reaching definition.
///
/// CallOut values — the definitions a call imposes on its MOD set — are
/// resolved through the callee's return jump function, composed with the
/// symbolic values of the actuals at the site. Two resolution modes
/// mirror the paper's two evaluations of each return jump function
/// (Section 3.2):
///  - Symbolic (used while *generating* return jump functions, "to expose
///    as many return jump functions as possible in the calling
///    procedure"): full substitution, possibly yielding an expression
///    over the caller's formals;
///  - ConstantOnly (used while generating *forward* jump functions): "any
///    return jump function that cannot be evaluated as constant ... is
///    set to bottom".
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_VALUENUMBERING_H
#define IPCP_CORE_VALUENUMBERING_H

#include "analysis/SSAConstruction.h"
#include "core/JumpFunction.h"
#include "ir/Module.h"

#include <unordered_map>

namespace ipcp {

class ReturnJumpFunctions;

/// How CallOut values resolve through return jump functions.
enum class CallOutMode { ConstantOnly, Symbolic };

/// Lifts the SSA values of one procedure into symbolic expressions.
class SymbolicLifter {
public:
  /// \p RJFs may be null (no return jump functions: every CallOut is
  /// bottom). \p SSA must be the result of constructing SSA for \p P.
  ///
  /// With \p UseGatedSSA, phis behave like the gamma nodes of gated
  /// single-assignment form (paper Section 4.2, citing Ballance et al.
  /// and Havlak): a two-way merge whose controlling branch condition
  /// lifts to a constant resolves to the live side's value, never
  /// considering the dead assignment — which is how the paper says the
  /// complete-propagation results can be achieved in a single pass.
  SymbolicLifter(SymExprContext &Ctx, const SSAResult &SSA,
                 const ReturnJumpFunctions *RJFs, CallOutMode Mode,
                 bool UseGatedSSA = false);

  /// The canonical expression for \p V, or null (bottom). Memoized.
  const SymExpr *lift(Value *V);

private:
  const SymExpr *liftImpl(Value *V);
  const SymExpr *liftCallOut(CallOutInst *Out);
  const SymExpr *liftGatedPhi(PhiInst *Phi);

  SymExprContext &Ctx;
  const SSAResult &SSA;
  const ReturnJumpFunctions *RJFs;
  CallOutMode Mode;
  bool UseGatedSSA;

  /// Memo table; InProgress breaks phi cycles (a value on a cycle that
  /// reaches itself is not expressible over entry values: bottom).
  enum class State { InProgress };
  std::unordered_map<Value *, const SymExpr *> Memo;
  std::unordered_map<Value *, State> Active;
};

} // namespace ipcp

#endif // IPCP_CORE_VALUENUMBERING_H
