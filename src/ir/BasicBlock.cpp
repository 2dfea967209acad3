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

Instruction *BasicBlock::append(Instruction *Inst) {
  assert(!hasTerminator() && "appending past a terminator");
  assert(!Inst->getParent() && "appending an instruction still in a block");
  Inst->setParent(this);
  Inst->Next = nullptr;
  if (Last)
    Last->Next = Inst;
  else
    First = Inst;
  Last = Inst;
  ++NumInsts;
  invalidateStream();
  return Inst;
}

Instruction *BasicBlock::insertAtTop(Instruction *Inst) {
  assert(!Inst->getParent() && "inserting an instruction still in a block");
  Inst->setParent(this);
  Inst->Next = First;
  First = Inst;
  if (!Last)
    Last = Inst;
  ++NumInsts;
  invalidateStream();
  return Inst;
}

void BasicBlock::unlink(Instruction *Inst) {
  assert(Inst->getParent() == this && "instruction not in this block");
  Instruction *Prev = nullptr;
  Instruction *It = First;
  while (It != Inst) {
    assert(It && "instruction not in this block");
    Prev = It;
    It = It->Next;
  }
  (Prev ? Prev->Next : First) = Inst->Next;
  if (Last == Inst)
    Last = Prev;
  --NumInsts;
  Inst->setParent(nullptr);
  Inst->Next = nullptr;
  invalidateStream();
}

void BasicBlock::erase(Instruction *Inst) {
  unlink(Inst);
  Arena::poison(Inst->allocationBegin(), Inst->allocationSize());
}

Instruction *BasicBlock::detach(Instruction *Inst) {
  unlink(Inst);
  return Inst;
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

void BasicBlock::addPredecessor(BasicBlock *BB) {
  Preds.push_back(Parent->arena(), BB);
}

void BasicBlock::removePredecessor(BasicBlock *BB) {
  auto It = std::find(Preds.begin(), Preds.end(), BB);
  if (It != Preds.end())
    Preds.eraseAt(It - Preds.begin());
}

void BasicBlock::poisonRemoved() {
  for (Instruction *Inst = First; Inst;) {
    Instruction *Next = Inst->Next;
    Arena::poison(Inst->allocationBegin(), Inst->allocationSize());
    Inst = Next;
  }
  if (Preds.capacity())
    Arena::poison(Preds.begin(), Preds.capacity() * sizeof(BasicBlock *));
  Arena::poison(this, sizeof(BasicBlock));
}
