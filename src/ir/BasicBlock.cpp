//===- ir/BasicBlock.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"
#include "ir/Procedure.h"

#include <algorithm>

using namespace ipcp;

void BasicBlock::invalidateStream() {
  if (Parent)
    Parent->invalidateInstStream();
}

Instruction *BasicBlock::append(std::unique_ptr<Instruction> Inst) {
  assert(!hasTerminator() && "appending past a terminator");
  Inst->setParent(this);
  Insts.push_back(std::move(Inst));
  invalidateStream();
  return Insts.back().get();
}

Instruction *BasicBlock::insertAtTop(std::unique_ptr<Instruction> Inst) {
  Inst->setParent(this);
  Instruction *Raw = Inst.get();
  Insts.insert(Insts.begin(), std::move(Inst));
  invalidateStream();
  return Raw;
}

void BasicBlock::erase(Instruction *Inst) {
  auto It = std::find_if(
      Insts.begin(), Insts.end(),
      [&](const std::unique_ptr<Instruction> &P) { return P.get() == Inst; });
  assert(It != Insts.end() && "erasing instruction not in this block");
  Insts.erase(It);
  invalidateStream();
}

std::unique_ptr<Instruction> BasicBlock::detach(Instruction *Inst) {
  auto It = std::find_if(
      Insts.begin(), Insts.end(),
      [&](const std::unique_ptr<Instruction> &P) { return P.get() == Inst; });
  assert(It != Insts.end() && "detaching instruction not in this block");
  std::unique_ptr<Instruction> Owned = std::move(*It);
  Insts.erase(It);
  Owned->setParent(nullptr);
  invalidateStream();
  return Owned;
}

Instruction *BasicBlock::getTerminator() const {
  if (Insts.empty())
    return nullptr;
  Instruction *Last = Insts.back().get();
  return Last->isTerminator() ? Last : nullptr;
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  std::vector<BasicBlock *> Succs;
  for (unsigned I = 0, N = getNumSuccessors(); I != N; ++I)
    Succs.push_back(getSuccessor(I));
  return Succs;
}

unsigned BasicBlock::getNumSuccessors() const {
  Instruction *Term = getTerminator();
  if (!Term)
    return 0;
  if (isa<BranchInst>(Term))
    return 1;
  if (auto *CBr = dyn_cast<CondBranchInst>(Term))
    return CBr->getFalseTarget() == CBr->getTrueTarget() ? 1 : 2;
  return 0;
}

BasicBlock *BasicBlock::getSuccessor(unsigned I) const {
  Instruction *Term = getTerminator();
  assert(Term && "successor of a block without terminator");
  if (auto *Br = dyn_cast<BranchInst>(Term)) {
    assert(I == 0 && "successor index out of range");
    return Br->getTarget();
  }
  auto *CBr = cast<CondBranchInst>(Term);
  assert(I < getNumSuccessors() && "successor index out of range");
  return I == 0 ? CBr->getTrueTarget() : CBr->getFalseTarget();
}

void BasicBlock::removePredecessor(BasicBlock *BB) {
  auto It = std::find(Preds.begin(), Preds.end(), BB);
  if (It != Preds.end())
    Preds.erase(It);
}
