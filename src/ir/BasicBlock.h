//===- ir/BasicBlock.h - CFG nodes ------------------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicBlock holds an ordered list of instructions ending in a
/// terminator. Predecessor lists are maintained explicitly by the edge
/// utilities; successors derive from the terminator.
///
/// A block, its name and its predecessor array live in the parent
/// procedure's arena. The instruction list is intrusive (each instruction
/// links to the next), so neither list costs a heap allocation per block.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_BASICBLOCK_H
#define IPCP_IR_BASICBLOCK_H

#include "ir/Instructions.h"
#include "support/Arena.h"

#include <iterator>
#include <span>
#include <string_view>
#include <vector>

namespace ipcp {

class Procedure;

/// A forward range over one block's instructions, yielding Instruction*.
class InstRange {
public:
  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Instruction *;
    using difference_type = std::ptrdiff_t;
    using pointer = Instruction **;
    using reference = Instruction *;

    iterator() = default;
    explicit iterator(Instruction *I) : I(I) {}
    Instruction *operator*() const { return I; }
    iterator &operator++() {
      I = I->getNextNode();
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const iterator &RHS) const { return I == RHS.I; }
    bool operator!=(const iterator &RHS) const { return I != RHS.I; }

  private:
    Instruction *I = nullptr;
  };

  InstRange(Instruction *First, Instruction *Last, size_t Size)
      : First(First), Last(Last), Size(Size) {}

  iterator begin() const { return iterator(First); }
  iterator end() const { return iterator(); }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  Instruction *front() const { return First; }
  Instruction *back() const { return Last; }

private:
  Instruction *First;
  Instruction *Last;
  size_t Size;
};

/// One node of a procedure's control-flow graph.
class BasicBlock {
public:
  BasicBlock(unsigned Id, std::string_view Name, Procedure *Parent)
      : Id(Id), Name(Name), Parent(Parent) {}

  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;

  unsigned getId() const { return Id; }
  std::string_view getName() const { return Name; }
  Procedure *getParent() const { return Parent; }

  /// Dense position in the parent's block list, assigned when the flat
  /// instruction stream is (re)built. Valid under the same conditions as
  /// Instruction::getLocalIdx().
  uint32_t getDensePos() const { return DensePos; }
  void setDensePos(uint32_t Pos) { DensePos = Pos; }

  /// Appends \p Inst, which must belong to no block; asserts nothing
  /// follows a terminator.
  Instruction *append(Instruction *Inst);

  /// Inserts \p Inst, which must belong to no block, at the top.
  Instruction *insertAtTop(Instruction *Inst);

  /// Unlinks \p Inst, which must belong to this block. Its memory stays
  /// in the procedure's arena (poisoned under AddressSanitizer); it must
  /// not be used again.
  void erase(Instruction *Inst);

  /// Unlinks \p Inst from this block, leaving it intact to be appended
  /// elsewhere in the same procedure.
  Instruction *detach(Instruction *Inst);

  InstRange instructions() const { return InstRange(First, Last, NumInsts); }

  bool empty() const { return NumInsts == 0; }

  /// The terminator, or null while the block is still being built.
  Instruction *getTerminator() const {
    return Last && Last->isTerminator() ? Last : nullptr;
  }
  bool hasTerminator() const { return getTerminator() != nullptr; }

  /// Successor blocks (0, 1, or 2) read off the terminator.
  std::vector<BasicBlock *> successors() const;

  /// Non-allocating successor access for hot traversals. A CondBranch
  /// whose arms coincide reports one successor, matching successors().
  unsigned getNumSuccessors() const;
  BasicBlock *getSuccessor(unsigned I) const;

  std::span<BasicBlock *const> predecessors() const { return Preds.span(); }
  void addPredecessor(BasicBlock *BB);
  void removePredecessor(BasicBlock *BB);
  void clearPredecessors() { Preds.clear(); }

  /// Poisons this block, its instructions and its predecessor array once
  /// the parent has dropped it (see Instruction erasure).
  void poisonRemoved();

private:
  friend class Procedure;

  void invalidateStream();
  /// Unlinks \p Inst and clears its parent and link.
  void unlink(Instruction *Inst);

  unsigned Id;
  uint32_t DensePos = ~uint32_t(0);
  std::string_view Name;
  Procedure *Parent;
  Instruction *First = nullptr;
  Instruction *Last = nullptr;
  uint32_t NumInsts = 0;
  /// Scratch mark of Procedure::removeUnreachableBlocks.
  bool Reached = false;
  ArenaVector<BasicBlock *> Preds;
};

} // namespace ipcp

#endif // IPCP_IR_BASICBLOCK_H
