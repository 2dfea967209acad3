//===- analysis/Dominators.cpp --------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include "ir/Traversal.h"

#include <algorithm>
#include <cassert>

using namespace ipcp;

DominatorTree::DominatorTree(const Procedure &P) {
  RPO = reversePostOrder(P); // also assigns dense block positions
  size_t NumBlocks = P.blocks().size();
  PostIndex.assign(NumBlocks, Unreachable);
  IDom.assign(NumBlocks, nullptr);
  Children.assign(NumBlocks, {});

  // Postorder numbers: entry gets the highest number.
  for (unsigned I = 0; I != RPO.size(); ++I)
    PostIndex[RPO[I]->getDensePos()] = RPO.size() - 1 - I;

  if (RPO.empty())
    return;
  BasicBlock *Entry = RPO.front();
  IDom[Entry->getDensePos()] = Entry; // sentinel; reported as null by idom()

  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (PostIndex[A->getDensePos()] < PostIndex[B->getDensePos()])
        A = IDom[A->getDensePos()];
      while (PostIndex[B->getDensePos()] < PostIndex[A->getDensePos()])
        B = IDom[B->getDensePos()];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *BB : RPO) {
      if (BB == Entry)
        continue;
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *Pred : BB->predecessors()) {
        if (PostIndex[Pred->getDensePos()] == Unreachable ||
            !IDom[Pred->getDensePos()])
          continue; // unreachable or not yet processed
        NewIDom = NewIDom ? Intersect(Pred, NewIDom) : Pred;
      }
      assert(NewIDom && "reachable block with no processed predecessor");
      if (IDom[BB->getDensePos()] != NewIDom) {
        IDom[BB->getDensePos()] = NewIDom;
        Changed = true;
      }
    }
  }

  for (BasicBlock *BB : RPO) {
    if (BB == Entry)
      continue;
    Children[IDom[BB->getDensePos()]->getDensePos()].push_back(BB);
  }
}

BasicBlock *DominatorTree::idom(BasicBlock *BB) const {
  BasicBlock *Dom = IDom[BB->getDensePos()];
  assert(Dom && "idom of unreachable block");
  return Dom == BB ? nullptr : Dom;
}

bool DominatorTree::dominates(BasicBlock *A, BasicBlock *B) const {
  // Walk B's idom chain up to A or the root. Fine for our block counts;
  // switch to DFS-interval numbering if procedures ever get huge.
  while (true) {
    if (A == B)
      return true;
    BasicBlock *Up = idom(B);
    if (!Up)
      return false;
    B = Up;
  }
}

const std::vector<BasicBlock *> &
DominatorTree::children(BasicBlock *BB) const {
  return Children[BB->getDensePos()];
}

DominanceFrontier::DominanceFrontier(const Procedure &P,
                                     const DominatorTree &DT) {
  DF.assign(P.blocks().size(), {});
  // Cooper-Harvey-Kennedy frontier computation: for each join point, walk
  // each predecessor's idom chain up to the join's idom.
  for (BasicBlock *BB : DT.blocksInRPO()) {
    std::span<BasicBlock *const> Preds = BB->predecessors();
    if (Preds.size() < 2)
      continue;
    for (BasicBlock *Pred : Preds) {
      if (!DT.isReachable(Pred))
        continue;
      BasicBlock *Runner = Pred;
      while (Runner != DT.idom(BB)) {
        std::vector<BasicBlock *> &Frontier = DF[Runner->getDensePos()];
        if (std::find(Frontier.begin(), Frontier.end(), BB) == Frontier.end())
          Frontier.push_back(BB);
        Runner = DT.idom(Runner);
        assert(Runner && "ran past the entry while walking idom chain");
      }
    }
  }
}

const std::vector<BasicBlock *> &
DominanceFrontier::frontier(BasicBlock *BB) const {
  return DF[BB->getDensePos()];
}
