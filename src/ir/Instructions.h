//===- ir/Instructions.h - Instruction classes ------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction and its subclasses. Instructions live in basic blocks, own
/// a module-unique ID that survives module cloning (so facts computed on a
/// clone can be applied to the original), and reference their operands as
/// raw Value pointers in a uniform operand list.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_INSTRUCTIONS_H
#define IPCP_IR_INSTRUCTIONS_H

#include "ir/Value.h"
#include "support/Arena.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <span>
#include <vector>

namespace ipcp {

class BasicBlock;
class Procedure;

/// Base class of all instructions. An instruction lives in its
/// procedure's arena (Procedure::create), so it is trivially destructible
/// and has no virtual destructor. Its operands sit inline, directly in
/// front of the object in the same allocation, so the base finds them
/// from the count alone; a call's actual descriptors trail the object.
/// Each instruction links to the next of its block, which keeps block
/// lists free of per-block heap storage. PhiInst and CallOutInst are the
/// exceptions: they live in SSA construction's side tables, and a phi's
/// operands grow in its own incoming list.
class Instruction : public Value {
public:
  Instruction(const Instruction &) = delete;
  Instruction &operator=(const Instruction &) = delete;

  /// Module-unique, clone-stable identifier.
  uint64_t getId() const { return Id; }
  void setId(uint64_t NewId) {
    assert(NewId <= UINT32_MAX && "instruction ID space exhausted");
    Id = uint32_t(NewId);
  }

  /// Dense position in the owning procedure's flat instruction stream
  /// (Procedure::instStream()). Only valid while that stream is; analyses
  /// must materialize the stream before indexing with this.
  uint32_t getLocalIdx() const { return LocalIdx; }
  void setLocalIdx(uint32_t Idx) { LocalIdx = Idx; }

  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc NewLoc) { Loc = NewLoc; }

  BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// The instruction after this one in its block; null at the end.
  Instruction *getNextNode() const { return Next; }

  unsigned getNumOperands() const { return NumOps; }
  Value *getOperand(unsigned I) const {
    assert(I < NumOps && "operand index out of range");
    return operandList()[I];
  }
  void setOperand(unsigned I, Value *V) {
    assert(I < NumOps && "operand index out of range");
    operandList()[I] = V;
  }
  std::span<Value *const> operands() const { return {operandList(), NumOps}; }

  /// True for Branch, CondBranch, and Ret.
  bool isTerminator() const {
    return getKind() == ValueKind::Branch ||
           getKind() == ValueKind::CondBranch || getKind() == ValueKind::Ret;
  }

  /// The allocation holding this instruction, inline operands first and
  /// trailing storage included: null and 0 for the side-table kinds no
  /// arena holds.
  const void *allocationBegin() const;
  size_t allocationSize() const;

  static bool classof(const Value *V) { return V->isInstruction(); }

  /// Allocates a fixed-arity \p InstT from \p A, its operands in front;
  /// Procedure::create is the way in.
  template <typename InstT, typename... ArgTs>
  static InstT *create(Arena &A, ArgTs &&...Args) {
    return createWithOperands<InstT>(A, InstT::NumFixedOps, 0,
                                     std::forward<ArgTs>(Args)...);
  }

protected:
  Instruction(ValueKind Kind, uint64_t Id, SourceLoc Loc, unsigned NumOps)
      : Value(Kind), NumOps(NumOps), Id(uint32_t(Id)), Loc(Loc) {
    assert(Id <= UINT32_MAX && "instruction ID space exhausted");
  }

  /// Allocates an \p InstT from \p A with room for its \p NumOps operands
  /// in front of it; the constructor then fills them in.
  template <typename InstT, typename... ArgTs>
  static InstT *createWithOperands(Arena &A, unsigned NumOps,
                                   size_t TrailingBytes, ArgTs &&...Args) {
    static_assert(alignof(InstT) == alignof(Value *),
                  "inline operands must keep the object aligned");
    size_t OpBytes = NumOps * sizeof(Value *);
    auto *Mem = static_cast<char *>(
        A.allocate(OpBytes + sizeof(InstT) + TrailingBytes, alignof(InstT)));
    return ::new (Mem + OpBytes) InstT(std::forward<ArgTs>(Args)...);
  }

  /// A phi's operand count follows its incoming list.
  void setNumOperands(unsigned N) { NumOps = N; }

  /// Spare byte for a subclass (a binary or unary instruction's opcode),
  /// packed beside the kind.
  uint8_t SubclassData = 0;

private:
  friend class BasicBlock;

  Value **operandList() const;

  uint32_t NumOps;
  uint32_t LocalIdx = ~uint32_t(0);
  /// Stored in 32 bits: a module hands out one ID per instruction it ever
  /// holds, far fewer than 2^32.
  uint32_t Id;
  SourceLoc Loc;
  BasicBlock *Parent = nullptr;
  Instruction *Next = nullptr;
};

/// `%v = lhs op rhs`.
class BinaryInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 2;

  BinaryOp getOp() const { return BinaryOp(SubclassData); }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Binary;
  }

private:
  friend class Instruction;
  BinaryInst(uint64_t Id, SourceLoc Loc, BinaryOp Op, Value *LHS, Value *RHS)
      : Instruction(ValueKind::Binary, Id, Loc, NumFixedOps) {
    SubclassData = uint8_t(Op);
    setOperand(0, LHS);
    setOperand(1, RHS);
  }
};

/// `%v = op operand`.
class UnaryInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 1;

  UnaryOp getOp() const { return UnaryOp(SubclassData); }
  Value *getValueOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Unary;
  }

private:
  friend class Instruction;
  UnaryInst(uint64_t Id, SourceLoc Loc, UnaryOp Op, Value *Operand)
      : Instruction(ValueKind::Unary, Id, Loc, NumFixedOps) {
    SubclassData = uint8_t(Op);
    setOperand(0, Operand);
  }
};

/// `%v = load X` — reads scalar variable X. Every source-level reference
/// of a scalar lowers to exactly one Load, so the substitution metric (the
/// paper's "constants substituted into the program") counts Loads whose
/// value is proven constant. SSA construction maps each promoted Load to
/// its reaching definition.
class LoadInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 0;

  Variable *getVariable() const { return Var; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Load;
  }

private:
  friend class Instruction;
  LoadInst(uint64_t Id, SourceLoc Loc, Variable *Var)
      : Instruction(ValueKind::Load, Id, Loc, NumFixedOps), Var(Var) {
    assert(Var->isScalar() && "load of array variable");
  }

  Variable *Var;
};

/// `store X, %v` — writes scalar variable X.
class StoreInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 1;

  Variable *getVariable() const { return Var; }
  Value *getValueOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Store;
  }

private:
  friend class Instruction;
  StoreInst(uint64_t Id, SourceLoc Loc, Variable *Var, Value *Val)
      : Instruction(ValueKind::Store, Id, Loc, NumFixedOps), Var(Var) {
    assert(Var->isScalar() && "store to array variable");
    setOperand(0, Val);
  }

  Variable *Var;
};

/// `%v = aload A[%idx]` — reads an array element. Opaque to constant
/// propagation (always lattice bottom), exactly as in the paper.
class ArrayLoadInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 1;

  Variable *getArray() const { return Arr; }
  Value *getIndex() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::ArrayLoad;
  }

private:
  friend class Instruction;
  ArrayLoadInst(uint64_t Id, SourceLoc Loc, Variable *Arr, Value *Index)
      : Instruction(ValueKind::ArrayLoad, Id, Loc, NumFixedOps), Arr(Arr) {
    assert(Arr->isArray() && "array load from scalar");
    setOperand(0, Index);
  }

  Variable *Arr;
};

/// `astore A[%idx], %v` — writes an array element.
class ArrayStoreInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 2;

  Variable *getArray() const { return Arr; }
  Value *getIndex() const { return getOperand(0); }
  Value *getValueOperand() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::ArrayStore;
  }

private:
  friend class Instruction;
  ArrayStoreInst(uint64_t Id, SourceLoc Loc, Variable *Arr, Value *Index,
                 Value *Val)
      : Instruction(ValueKind::ArrayStore, Id, Loc, NumFixedOps), Arr(Arr) {
    assert(Arr->isArray() && "array store to scalar");
    setOperand(0, Index);
    setOperand(1, Val);
  }

  Variable *Arr;
};

/// `%v = read` — an external input; never constant.
class ReadInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 0;

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Read;
  }

private:
  friend class Instruction;
  ReadInst(uint64_t Id, SourceLoc Loc)
      : Instruction(ValueKind::Read, Id, Loc, NumFixedOps) {}
};

/// `print %v` — the observable output.
class PrintInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 1;

  Value *getValueOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Print;
  }

private:
  friend class Instruction;
  PrintInst(uint64_t Id, SourceLoc Loc, Value *Val)
      : Instruction(ValueKind::Print, Id, Loc, NumFixedOps) {
    setOperand(0, Val);
  }
};

/// One actual parameter at a call site.
struct CallActual {
  /// The value of the actual at the call (for jump functions).
  /// Stored redundantly with the operand list; kept in sync by CallInst.
  Value *Val = nullptr;
  /// Non-null iff the actual was a plain scalar variable: Fortran
  /// by-reference binding; the callee's formal aliases this location.
  /// Null for expression actuals (hidden temporary, updates discarded).
  Variable *ByRefLoc = nullptr;
  /// True iff the actual was syntactically an integer literal — the only
  /// case the literal jump function handles.
  bool WasLiteral = false;
};

/// `call q(a1, ..., an)` — a call site: one edge of the call graph. Like
/// every arena instruction it holds its operands (one per actual) in
/// front of it; its actual descriptors trail it in the same allocation.
class CallInst : public Instruction {
public:
  /// Allocates a call with \p Actuals from \p A.
  static CallInst *create(Arena &A, uint64_t Id, SourceLoc Loc,
                          Procedure *Callee,
                          std::span<const CallActual> Actuals);

  Procedure *getCallee() const { return Callee; }
  void setCallee(Procedure *NewCallee) { Callee = NewCallee; }
  unsigned getNumActuals() const { return getNumOperands(); }

  /// The actual descriptor; Val is the operand the call was built with.
  const CallActual &getActual(unsigned I) const {
    assert(I < getNumActuals() && "actual index out of range");
    return reinterpret_cast<const CallActual *>(this + 1)[I];
  }

  /// The current value operand of actual \p I (RAUW-safe accessor).
  Value *getActualValue(unsigned I) const { return getOperand(I); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Call;
  }

private:
  friend class Instruction;
  CallInst(uint64_t Id, SourceLoc Loc, Procedure *Callee,
           std::span<const CallActual> Actuals);

  Procedure *Callee;
};

/// `%v = callout(call, X)` — the SSA definition of location X after a call
/// that may modify X (a MOD-set member bound at the site). Created by SSA
/// construction in its side tables, never inserted into a block; its
/// meaning is the callee's return jump function for the bound formal, or
/// bottom. This is how the paper's return jump functions enter the value
/// graph.
class CallOutInst : public Instruction {
public:
  CallOutInst(uint64_t Id, SourceLoc Loc, CallInst *Call, Variable *Var)
      : Instruction(ValueKind::CallOut, Id, Loc, 0), Call(Call), Var(Var) {}
  /// Side tables hold callouts by value.
  CallOutInst(CallOutInst &&Other)
      : CallOutInst(Other.getId(), Other.getLoc(), Other.Call, Other.Var) {
    setParent(Other.getParent());
    setLocalIdx(Other.getLocalIdx());
  }

  CallInst *getCall() const { return Call; }
  Variable *getVariable() const { return Var; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::CallOut;
  }

private:
  CallInst *Call;
  Variable *Var;
};

/// SSA phi node; incoming values parallel the incoming block list. Like
/// CallOutInst, it lives in SSA construction's side tables: its parent is
/// the block it merges into, but no block holds it.
class PhiInst : public Instruction {
public:
  PhiInst(uint64_t Id, SourceLoc Loc, Variable *Var)
      : Instruction(ValueKind::Phi, Id, Loc, 0), Var(Var) {}
  /// Side tables hold phis by value; the incoming lists move along.
  PhiInst(PhiInst &&Other)
      : Instruction(ValueKind::Phi, Other.getId(), Other.getLoc(),
                    Other.getNumOperands()),
        Var(Other.Var), Values(std::move(Other.Values)),
        Blocks(std::move(Other.Blocks)) {
    setParent(Other.getParent());
    setLocalIdx(Other.getLocalIdx());
  }

  /// The variable this phi merges (for debugging/printing only).
  Variable *getVariable() const { return Var; }

  void addIncoming(Value *V, BasicBlock *BB) {
    Values.push_back(V);
    Blocks.push_back(BB);
    setNumOperands(unsigned(Values.size()));
  }

  unsigned getNumIncoming() const { return Blocks.size(); }
  Value *getIncomingValue(unsigned I) const { return getOperand(I); }
  BasicBlock *getIncomingBlock(unsigned I) const { return Blocks[I]; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Phi;
  }

private:
  friend class Instruction;

  Variable *Var;
  /// Mutable: the base hands out operand slots from a const accessor.
  mutable std::vector<Value *> Values;
  std::vector<BasicBlock *> Blocks;
};

/// Unconditional branch.
class BranchInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 0;

  BasicBlock *getTarget() const { return Target; }
  void setTarget(BasicBlock *BB) { Target = BB; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Branch;
  }

private:
  friend class Instruction;
  BranchInst(uint64_t Id, SourceLoc Loc, BasicBlock *Target)
      : Instruction(ValueKind::Branch, Id, Loc, NumFixedOps),
        Target(Target) {}

  BasicBlock *Target;
};

/// Conditional branch: takes the true edge when the operand is nonzero.
class CondBranchInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 1;

  Value *getCond() const { return getOperand(0); }
  BasicBlock *getTrueTarget() const { return TrueTarget; }
  BasicBlock *getFalseTarget() const { return FalseTarget; }
  void setTrueTarget(BasicBlock *BB) { TrueTarget = BB; }
  void setFalseTarget(BasicBlock *BB) { FalseTarget = BB; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::CondBranch;
  }

private:
  friend class Instruction;
  CondBranchInst(uint64_t Id, SourceLoc Loc, Value *Cond,
                 BasicBlock *TrueTarget, BasicBlock *FalseTarget)
      : Instruction(ValueKind::CondBranch, Id, Loc, NumFixedOps),
        TrueTarget(TrueTarget), FalseTarget(FalseTarget) {
    setOperand(0, Cond);
  }

  BasicBlock *TrueTarget;
  BasicBlock *FalseTarget;
};

/// Procedure return. Lowering gives every procedure a single exit block
/// whose only instruction is the Ret.
class RetInst : public Instruction {
public:
  static constexpr unsigned NumFixedOps = 0;

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Ret;
  }

private:
  friend class Instruction;
  RetInst(uint64_t Id, SourceLoc Loc)
      : Instruction(ValueKind::Ret, Id, Loc, NumFixedOps) {}
};

/// Arena instructions find their operands in front of the object; a phi
/// keeps them in its incoming list.
inline Value **Instruction::operandList() const {
  if (getKind() == ValueKind::Phi)
    return static_cast<const PhiInst *>(this)->Values.data();
  return reinterpret_cast<Value **>(const_cast<Instruction *>(this)) - NumOps;
}

} // namespace ipcp

#endif // IPCP_IR_INSTRUCTIONS_H
