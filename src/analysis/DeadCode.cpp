//===- analysis/DeadCode.cpp ----------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/DeadCode.h"

#include "support/Casting.h"
#include "support/Trace.h"

#include <deque>
#include <unordered_map>
#include <vector>

using namespace ipcp;

/// True for value-producing instructions that may be deleted when unused.
/// Read is excluded: removing one would shift the external input stream.
static bool isPureValue(const Instruction *Inst) {
  switch (Inst->getKind()) {
  case ValueKind::Binary:
  case ValueKind::Unary:
  case ValueKind::Load:
  case ValueKind::ArrayLoad:
    return true;
  default:
    return false;
  }
}

unsigned ipcp::removeTriviallyDeadInstructions(Procedure &P) {
  std::unordered_map<const Value *, unsigned> UseCount;
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      for (const Value *Op : Inst->operands())
        if (Op && Op->isInstruction())
          ++UseCount[Op];

  std::deque<Instruction *> Dead;
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      if (isPureValue(Inst) && UseCount[Inst] == 0)
        Dead.push_back(Inst);

  unsigned Removed = 0;
  while (!Dead.empty()) {
    Instruction *Inst = Dead.front();
    Dead.pop_front();
    for (Value *Op : Inst->operands()) {
      auto *OpInst = dyn_cast_or_null<Instruction>(Op);
      if (!OpInst)
        continue;
      if (--UseCount[OpInst] == 0 && isPureValue(OpInst))
        Dead.push_back(OpInst);
    }
    Inst->getParent()->erase(Inst);
    ++Removed;
  }
  return Removed;
}

void ipcp::replaceOperands(
    Procedure &P, const std::unordered_map<const Value *, Value *> &Subst) {
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      for (unsigned I = 0, E = Inst->getNumOperands(); I != E; ++I) {
        auto It = Subst.find(Inst->getOperand(I));
        if (It != Subst.end())
          Inst->setOperand(I, It->second);
      }
}

unsigned ipcp::foldConstantExpressions(Procedure &P) {
  Module &M = *P.getModule();
  unsigned Folded = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Collect fold results first, then rewrite uses in one sweep.
    std::unordered_map<const Value *, Value *> Subst;
    std::vector<Instruction *> ToErase;
    for (BasicBlock *BB : P.blocks()) {
      for (Instruction *Inst : BB->instructions()) {
        std::optional<ConstantValue> Result;
        if (auto *Bin = dyn_cast<BinaryInst>(Inst)) {
          auto *L = dyn_cast<ConstantInt>(Bin->getLHS());
          auto *R = dyn_cast<ConstantInt>(Bin->getRHS());
          if (L && R)
            Result = foldBinary(Bin->getOp(), L->getValue(), R->getValue());
        } else if (auto *Un = dyn_cast<UnaryInst>(Inst)) {
          if (auto *V = dyn_cast<ConstantInt>(Un->getValueOperand()))
            Result = foldUnary(Un->getOp(), V->getValue());
        }
        if (!Result)
          continue;
        Subst[Inst] = M.getConstant(*Result);
        ToErase.push_back(Inst);
      }
    }
    if (Subst.empty())
      break;
    replaceOperands(P, Subst);
    for (Instruction *Inst : ToErase) {
      Inst->getParent()->erase(Inst);
      ++Folded;
    }
    Changed = true;
  }
  return Folded;
}

/// Rewrites a constant-condition CondBranch into an unconditional branch.
static void foldBranch(Procedure &P, CondBranchInst *CBr, bool TakeTrue) {
  BasicBlock *BB = CBr->getParent();
  BasicBlock *Taken = TakeTrue ? CBr->getTrueTarget() : CBr->getFalseTarget();
  BasicBlock *Untaken =
      TakeTrue ? CBr->getFalseTarget() : CBr->getTrueTarget();

  if (Untaken != Taken)
    Untaken->removePredecessor(BB);

  uint64_t Id = P.getModule()->nextInstId();
  SourceLoc Loc = CBr->getLoc();
  BB->erase(CBr);
  BB->append(P.create<BranchInst>(Id, Loc, Taken));
}

TransformStats ipcp::applyFacts(Module &M, const TransformFacts &Facts) {
  ScopedTraceSpan ApplySpan("apply-facts");
  TransformStats Stats;

  for (const std::unique_ptr<Procedure> &P : M.procedures()) {
    // Pass 1: substitute constant loads into their users in one sweep
    // (constants cannot cascade into new loads, so one pass suffices).
    std::vector<LoadInst *> ReplacedLoads;
    std::unordered_map<const Value *, Value *> LoadSubst;
    for (BasicBlock *BB : P->blocks())
      for (Instruction *Inst : BB->instructions())
        if (auto *Load = dyn_cast<LoadInst>(Inst)) {
          auto It = Facts.ConstantLoads.find(Load->getId());
          if (It == Facts.ConstantLoads.end())
            continue;
          LoadSubst[Load] = M.getConstant(It->second);
          ReplacedLoads.push_back(Load);
        }

    if (!LoadSubst.empty()) {
      replaceOperands(*P, LoadSubst);
      for (LoadInst *Load : ReplacedLoads) {
        Load->getParent()->erase(Load);
        ++Stats.LoadsReplaced;
      }
    }

    // Pass 2: fold branches with constant conditions.
    std::vector<std::pair<CondBranchInst *, bool>> ToFold;
    for (BasicBlock *BB : P->blocks())
      if (auto *CBr =
              dyn_cast_or_null<CondBranchInst>(BB->getTerminator())) {
        auto It = Facts.FoldedBranches.find(CBr->getId());
        if (It != Facts.FoldedBranches.end())
          ToFold.push_back({CBr, It->second});
      }
    for (auto &[CBr, TakeTrue] : ToFold) {
      foldBranch(*P, CBr, TakeTrue);
      ++Stats.BranchesFolded;
    }

    // Pass 3: cleanup — fold expressions the substitutions made
    // constant, drop unreachable blocks, then delete dead chains.
    unsigned Folded = foldConstantExpressions(*P);
    Stats.ExprsFolded += Folded;
    Stats.InstsRemoved += Folded;
    Stats.BlocksRemoved += P->removeUnreachableBlocks();
    Stats.InstsRemoved += removeTriviallyDeadInstructions(*P);
  }

  return Stats;
}
