//===- core/ValueNumbering.cpp --------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ValueNumbering.h"

#include "core/ReturnJumpFunctions.h"
#include "support/Casting.h"

using namespace ipcp;

SymbolicLifter::SymbolicLifter(SymExprContext &Ctx, const SSAResult &SSA,
                               const ReturnJumpFunctions *RJFs,
                               CallOutMode Mode, bool UseGatedSSA)
    : Ctx(Ctx), SSA(SSA), RJFs(RJFs), Mode(Mode), UseGatedSSA(UseGatedSSA) {}

const SymExpr *SymbolicLifter::lift(Value *V) {
  V = SSA.resolve(V);
  auto It = Memo.find(V);
  if (It != Memo.end())
    return It->second;
  if (Active.count(V))
    return nullptr; // phi cycle: not expressible over entry values
  Active.emplace(V, State::InProgress);
  const SymExpr *E = liftImpl(V);
  Active.erase(V);
  Memo[V] = E;
  return E;
}

const SymExpr *SymbolicLifter::liftImpl(Value *V) {
  switch (V->getKind()) {
  case ValueKind::ConstantInt:
    return Ctx.getConst(cast<ConstantInt>(V)->getValue());
  case ValueKind::EntryValue:
    return Ctx.getFormal(cast<EntryValue>(V)->getVariable());
  case ValueKind::Undef:
    return nullptr;
  case ValueKind::Binary: {
    auto *Bin = cast<BinaryInst>(V);
    const SymExpr *L = lift(Bin->getLHS());
    if (!L)
      return nullptr;
    return Ctx.getBinary(Bin->getOp(), L, lift(Bin->getRHS()));
  }
  case ValueKind::Unary: {
    auto *Un = cast<UnaryInst>(V);
    return Ctx.getUnary(Un->getOp(), lift(Un->getValueOperand()));
  }
  case ValueKind::Phi: {
    // Value numbering across merges: a phi whose incoming values all lift
    // to the same canonical expression is that expression (hash-consing
    // makes the check a pointer comparison). Otherwise the merge is not a
    // function of entry values alone.
    auto *Phi = cast<PhiInst>(V);
    if (Phi->getNumIncoming() == 0)
      return nullptr;
    const SymExpr *Common = lift(Phi->getIncomingValue(0));
    bool AllEqual = Common != nullptr;
    for (unsigned I = 1, E = Phi->getNumIncoming(); AllEqual && I != E; ++I)
      if (lift(Phi->getIncomingValue(I)) != Common)
        AllEqual = false;
    if (AllEqual)
      return Common;
    if (UseGatedSSA)
      return liftGatedPhi(Phi);
    return nullptr;
  }
  case ValueKind::CallOut:
    return liftCallOut(cast<CallOutInst>(V));
  case ValueKind::ArrayLoad:
  case ValueKind::Read:
  case ValueKind::Load: // of a non-promoted scalar
    return nullptr; // opaque sources, exactly as in the paper
  default:
    assert(!V->producesValue() && "unhandled value-producing kind");
    return nullptr;
  }
}

const SymExpr *SymbolicLifter::liftGatedPhi(PhiInst *Phi) {
  // Gamma-node resolution: for a two-way merge whose immediate dominator
  // ends in a conditional branch with a constant-valued condition, pick
  // the live side — provided the dead side's incoming block is reachable
  // only through the untaken edge, which makes its assignment provably
  // dead (exactly what dead code elimination would remove; paper
  // Section 4.2's gated-single-assignment observation).
  const DominatorTree *DT = SSA.DomTree.get();
  if (!DT || Phi->getNumIncoming() != 2)
    return nullptr;
  BasicBlock *Merge = Phi->getParent();
  if (!DT->isReachable(Merge))
    return nullptr;
  BasicBlock *Dom = DT->idom(Merge);
  if (!Dom)
    return nullptr;
  auto *Gate = dyn_cast_or_null<CondBranchInst>(Dom->getTerminator());
  if (!Gate)
    return nullptr;

  const SymExpr *Cond = lift(Gate->getCond());
  if (!Cond || !Cond->isConst())
    return nullptr;
  bool TakeTrue = Cond->getConst() != 0;
  BasicBlock *Taken = TakeTrue ? Gate->getTrueTarget() : Gate->getFalseTarget();
  BasicBlock *Untaken =
      TakeTrue ? Gate->getFalseTarget() : Gate->getTrueTarget();
  if (Taken == Untaken)
    return nullptr;

  // An incoming edge is on the taken side if its block is the gate
  // itself with the taken edge entering the merge directly, or lies
  // under the taken successor.
  auto OnTakenSide = [&](BasicBlock *Pred) {
    if (Pred == Dom)
      return Taken == Merge;
    return Taken != Merge && DT->isReachable(Pred) &&
           DT->dominates(Taken, Pred);
  };
  // The dead side must be provably unreachable when the condition holds:
  // either it is the direct untaken edge from the gate, or it lies under
  // an untaken arm whose *only* entry is the gate (single predecessor).
  // The single-entry requirement rules out cross edges and loop back
  // edges; structured lowering always satisfies it for if-arms.
  auto OnDeadSide = [&](BasicBlock *Pred) {
    if (Pred == Dom)
      return Untaken == Merge;
    return Untaken != Merge && Untaken->predecessors().size() == 1 &&
           Untaken->predecessors().front() == Dom && DT->isReachable(Pred) &&
           DT->dominates(Untaken, Pred);
  };

  int Selected = -1;
  for (unsigned I = 0; I != 2; ++I) {
    BasicBlock *PredSel = Phi->getIncomingBlock(I);
    BasicBlock *PredDead = Phi->getIncomingBlock(1 - I);
    if (OnTakenSide(PredSel) && OnDeadSide(PredDead)) {
      Selected = static_cast<int>(I);
      break;
    }
  }
  if (Selected < 0)
    return nullptr;
  return lift(Phi->getIncomingValue(Selected));
}

const SymExpr *SymbolicLifter::liftCallOut(CallOutInst *Out) {
  if (!RJFs)
    return nullptr; // configuration without return jump functions

  // The callee must reach this location through exactly one route (a
  // by-reference binding or the global); aliasing is conservatively
  // bottom.
  const JumpFunction *RJF = RJFs->forCallOut(Out);
  if (!RJF)
    return nullptr;
  CallInst *Call = Out->getCall();
  Procedure *Callee = Call->getCallee();

  // Compose: substitute the callee's entry values with the caller-side
  // expressions of the corresponding actuals / globals at this site.
  const SymExpr *Result = Ctx.substitute(
      RJF->expr(), [&](Variable *Support) -> const SymExpr * {
        if (Support->isFormal() && Support->getParent() == Callee) {
          unsigned Index = Support->getFormalIndex();
          if (Index >= Call->getNumActuals())
            return nullptr;
          return lift(Call->getActualValue(Index));
        }
        if (Support->isGlobal())
          if (Value *AtCall = SSA.callIn(Call, Support))
            return lift(AtCall);
        return nullptr;
      });

  // Paper Section 3.2: during forward jump function generation, a return
  // jump function that does not evaluate to a constant is bottom.
  if (Mode == CallOutMode::ConstantOnly && Result && !Result->isConst())
    return nullptr;
  return Result;
}
