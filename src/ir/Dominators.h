//===- ir/Dominators.h - Dominator tree -------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree and dominance frontiers, computed with the iterative
/// algorithm of Cooper, Harvey & Kennedy ("A Simple, Fast Dominance
/// Algorithm") — fittingly, by the authors of the framework this project
/// reproduces. Operates on the reachable CFG only.
///
/// All side tables are flat vectors indexed by BasicBlock::getDensePos()
/// (assigned by Procedure::instStream()); the tree stays valid across
/// instruction insertion (phi placement) but not across block-list
/// mutation.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_DOMINATORS_H
#define IPCP_IR_DOMINATORS_H

#include "ir/Procedure.h"

#include <vector>

namespace ipcp {

/// Immediate-dominator tree over the reachable blocks of one procedure.
class DominatorTree {
public:
  explicit DominatorTree(const Procedure &P);

  /// Immediate dominator; null for the entry block.
  BasicBlock *idom(BasicBlock *BB) const;

  /// True when \p A dominates \p B (reflexive).
  bool dominates(BasicBlock *A, BasicBlock *B) const;

  /// Children of \p BB in the dominator tree.
  const std::vector<BasicBlock *> &children(BasicBlock *BB) const;

  /// Reachable blocks in reverse postorder (a valid top-down tree order).
  const std::vector<BasicBlock *> &blocksInRPO() const { return RPO; }

  bool isReachable(const BasicBlock *BB) const {
    return PostIndex[BB->getDensePos()] != Unreachable;
  }

private:
  static constexpr unsigned Unreachable = ~0u;

  std::vector<BasicBlock *> RPO;
  std::vector<unsigned> PostIndex;                 ///< by dense block pos
  std::vector<BasicBlock *> IDom;                  ///< by dense block pos
  std::vector<std::vector<BasicBlock *>> Children; ///< by dense block pos
};

/// Dominance frontiers (Cytron et al. §4.2), used for phi placement.
class DominanceFrontier {
public:
  DominanceFrontier(const Procedure &P, const DominatorTree &DT);

  const std::vector<BasicBlock *> &frontier(BasicBlock *BB) const;

private:
  std::vector<std::vector<BasicBlock *>> DF; ///< by dense block pos
};

} // namespace ipcp

#endif // IPCP_IR_DOMINATORS_H
