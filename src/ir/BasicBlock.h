//===- ir/BasicBlock.h - CFG nodes ------------------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicBlock owns an ordered list of instructions ending in a
/// terminator. Predecessor lists are maintained explicitly by the edge
/// utilities; successors derive from the terminator.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_BASICBLOCK_H
#define IPCP_IR_BASICBLOCK_H

#include "ir/Instructions.h"

#include <memory>
#include <string>
#include <vector>

namespace ipcp {

class Procedure;

/// One node of a procedure's control-flow graph.
class BasicBlock {
public:
  BasicBlock(unsigned Id, std::string Name, Procedure *Parent)
      : Id(Id), Name(std::move(Name)), Parent(Parent) {}

  unsigned getId() const { return Id; }
  const std::string &getName() const { return Name; }
  Procedure *getParent() const { return Parent; }

  /// Dense position in the parent's block list, assigned when the flat
  /// instruction stream is (re)built. Valid under the same conditions as
  /// Instruction::getLocalIdx().
  uint32_t getDensePos() const { return DensePos; }
  void setDensePos(uint32_t Pos) { DensePos = Pos; }

  /// Appends \p Inst; asserts nothing follows a terminator.
  Instruction *append(std::unique_ptr<Instruction> Inst);

  /// Inserts \p Inst at the top of the block.
  Instruction *insertAtTop(std::unique_ptr<Instruction> Inst);

  /// Removes and destroys \p Inst, which must belong to this block.
  void erase(Instruction *Inst);

  /// Removes \p Inst from this block without destroying it.
  std::unique_ptr<Instruction> detach(Instruction *Inst);

  const std::vector<std::unique_ptr<Instruction>> &instructions() const {
    return Insts;
  }

  bool empty() const { return Insts.empty(); }

  /// The terminator, or null while the block is still being built.
  Instruction *getTerminator() const;
  bool hasTerminator() const { return getTerminator() != nullptr; }

  /// Successor blocks (0, 1, or 2) read off the terminator.
  std::vector<BasicBlock *> successors() const;

  /// Non-allocating successor access for hot traversals. A CondBranch
  /// whose arms coincide reports one successor, matching successors().
  unsigned getNumSuccessors() const;
  BasicBlock *getSuccessor(unsigned I) const;

  const std::vector<BasicBlock *> &predecessors() const { return Preds; }
  void addPredecessor(BasicBlock *BB) { Preds.push_back(BB); }
  void removePredecessor(BasicBlock *BB);
  void clearPredecessors() { Preds.clear(); }

private:
  void invalidateStream();

  unsigned Id;
  uint32_t DensePos = ~uint32_t(0);
  std::string Name;
  Procedure *Parent;
  std::vector<std::unique_ptr<Instruction>> Insts;
  std::vector<BasicBlock *> Preds;
};

} // namespace ipcp

#endif // IPCP_IR_BASICBLOCK_H
