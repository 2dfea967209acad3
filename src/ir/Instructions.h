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
#include "support/SourceLoc.h"

#include <cassert>
#include <vector>

namespace ipcp {

class BasicBlock;
class Procedure;

/// Base class of all instructions.
class Instruction : public Value {
public:
  virtual ~Instruction();

  /// Module-unique, clone-stable identifier.
  uint64_t getId() const { return Id; }
  void setId(uint64_t NewId) { Id = NewId; }

  /// Dense position in the owning procedure's flat instruction stream
  /// (Procedure::instStream()). Only valid while that stream is; analyses
  /// must materialize the stream before indexing with this.
  uint32_t getLocalIdx() const { return LocalIdx; }
  void setLocalIdx(uint32_t Idx) { LocalIdx = Idx; }

  SourceLoc getLoc() const { return Loc; }
  void setLoc(SourceLoc NewLoc) { Loc = NewLoc; }

  BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  unsigned getNumOperands() const { return Operands.size(); }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V) {
    assert(I < Operands.size() && "operand index out of range");
    Operands[I] = V;
  }
  const std::vector<Value *> &operands() const { return Operands; }

  /// True for Branch, CondBranch, and Ret.
  bool isTerminator() const {
    return getKind() == ValueKind::Branch ||
           getKind() == ValueKind::CondBranch || getKind() == ValueKind::Ret;
  }

  static bool classof(const Value *V) { return V->isInstruction(); }

protected:
  Instruction(ValueKind Kind, uint64_t Id, SourceLoc Loc)
      : Value(Kind), Id(Id), Loc(Loc) {}

  void addOperand(Value *V) { Operands.push_back(V); }

  std::vector<Value *> Operands;

private:
  uint64_t Id;
  uint32_t LocalIdx = ~uint32_t(0);
  SourceLoc Loc;
  BasicBlock *Parent = nullptr;
};

/// `%v = lhs op rhs`.
class BinaryInst : public Instruction {
public:
  BinaryInst(uint64_t Id, SourceLoc Loc, BinaryOp Op, Value *LHS, Value *RHS)
      : Instruction(ValueKind::Binary, Id, Loc), Op(Op) {
    addOperand(LHS);
    addOperand(RHS);
  }

  BinaryOp getOp() const { return Op; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Binary;
  }

private:
  BinaryOp Op;
};

/// `%v = op operand`.
class UnaryInst : public Instruction {
public:
  UnaryInst(uint64_t Id, SourceLoc Loc, UnaryOp Op, Value *Operand)
      : Instruction(ValueKind::Unary, Id, Loc), Op(Op) {
    addOperand(Operand);
  }

  UnaryOp getOp() const { return Op; }
  Value *getValueOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Unary;
  }

private:
  UnaryOp Op;
};

/// `%v = load X` — reads scalar variable X. Every source-level reference
/// of a scalar lowers to exactly one Load, so the substitution metric (the
/// paper's "constants substituted into the program") counts Loads whose
/// value is proven constant. SSA construction maps each promoted Load to
/// its reaching definition.
class LoadInst : public Instruction {
public:
  LoadInst(uint64_t Id, SourceLoc Loc, Variable *Var)
      : Instruction(ValueKind::Load, Id, Loc), Var(Var) {
    assert(Var->isScalar() && "load of array variable");
  }

  Variable *getVariable() const { return Var; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Load;
  }

private:
  Variable *Var;
};

/// `store X, %v` — writes scalar variable X.
class StoreInst : public Instruction {
public:
  StoreInst(uint64_t Id, SourceLoc Loc, Variable *Var, Value *Val)
      : Instruction(ValueKind::Store, Id, Loc), Var(Var) {
    assert(Var->isScalar() && "store to array variable");
    addOperand(Val);
  }

  Variable *getVariable() const { return Var; }
  Value *getValueOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Store;
  }

private:
  Variable *Var;
};

/// `%v = aload A[%idx]` — reads an array element. Opaque to constant
/// propagation (always lattice bottom), exactly as in the paper.
class ArrayLoadInst : public Instruction {
public:
  ArrayLoadInst(uint64_t Id, SourceLoc Loc, Variable *Arr, Value *Index)
      : Instruction(ValueKind::ArrayLoad, Id, Loc), Arr(Arr) {
    assert(Arr->isArray() && "array load from scalar");
    addOperand(Index);
  }

  Variable *getArray() const { return Arr; }
  Value *getIndex() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::ArrayLoad;
  }

private:
  Variable *Arr;
};

/// `astore A[%idx], %v` — writes an array element.
class ArrayStoreInst : public Instruction {
public:
  ArrayStoreInst(uint64_t Id, SourceLoc Loc, Variable *Arr, Value *Index,
                 Value *Val)
      : Instruction(ValueKind::ArrayStore, Id, Loc), Arr(Arr) {
    assert(Arr->isArray() && "array store to scalar");
    addOperand(Index);
    addOperand(Val);
  }

  Variable *getArray() const { return Arr; }
  Value *getIndex() const { return getOperand(0); }
  Value *getValueOperand() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::ArrayStore;
  }

private:
  Variable *Arr;
};

/// `%v = read` — an external input; never constant.
class ReadInst : public Instruction {
public:
  ReadInst(uint64_t Id, SourceLoc Loc)
      : Instruction(ValueKind::Read, Id, Loc) {}

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Read;
  }
};

/// `print %v` — the observable output.
class PrintInst : public Instruction {
public:
  PrintInst(uint64_t Id, SourceLoc Loc, Value *Val)
      : Instruction(ValueKind::Print, Id, Loc) {
    addOperand(Val);
  }

  Value *getValueOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Print;
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

/// `call q(a1, ..., an)` — a call site: one edge of the call graph.
class CallInst : public Instruction {
public:
  CallInst(uint64_t Id, SourceLoc Loc, Procedure *Callee,
           std::vector<CallActual> TheActuals)
      : Instruction(ValueKind::Call, Id, Loc), Callee(Callee),
        Actuals(std::move(TheActuals)) {
    for (CallActual &A : Actuals)
      addOperand(A.Val);
  }

  Procedure *getCallee() const { return Callee; }
  void setCallee(Procedure *NewCallee) { Callee = NewCallee; }
  unsigned getNumActuals() const { return Actuals.size(); }

  /// The actual descriptor; Val mirrors operand \p I.
  const CallActual &getActual(unsigned I) const {
    assert(I < Actuals.size() && "actual index out of range");
    return Actuals[I];
  }

  /// The current value operand of actual \p I (RAUW-safe accessor).
  Value *getActualValue(unsigned I) const { return getOperand(I); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Call;
  }

private:
  Procedure *Callee;
  std::vector<CallActual> Actuals;
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
      : Instruction(ValueKind::CallOut, Id, Loc), Call(Call), Var(Var) {}

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
      : Instruction(ValueKind::Phi, Id, Loc), Var(Var) {}

  /// The variable this phi merges (for debugging/printing only).
  Variable *getVariable() const { return Var; }

  void addIncoming(Value *V, BasicBlock *BB) {
    addOperand(V);
    Blocks.push_back(BB);
  }

  unsigned getNumIncoming() const { return Blocks.size(); }
  Value *getIncomingValue(unsigned I) const { return getOperand(I); }
  BasicBlock *getIncomingBlock(unsigned I) const { return Blocks[I]; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Phi;
  }

private:
  Variable *Var;
  std::vector<BasicBlock *> Blocks;
};

/// Unconditional branch.
class BranchInst : public Instruction {
public:
  BranchInst(uint64_t Id, SourceLoc Loc, BasicBlock *Target)
      : Instruction(ValueKind::Branch, Id, Loc), Target(Target) {}

  BasicBlock *getTarget() const { return Target; }
  void setTarget(BasicBlock *BB) { Target = BB; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Branch;
  }

private:
  BasicBlock *Target;
};

/// Conditional branch: takes the true edge when the operand is nonzero.
class CondBranchInst : public Instruction {
public:
  CondBranchInst(uint64_t Id, SourceLoc Loc, Value *Cond,
                 BasicBlock *TrueTarget, BasicBlock *FalseTarget)
      : Instruction(ValueKind::CondBranch, Id, Loc), TrueTarget(TrueTarget),
        FalseTarget(FalseTarget) {
    addOperand(Cond);
  }

  Value *getCond() const { return getOperand(0); }
  BasicBlock *getTrueTarget() const { return TrueTarget; }
  BasicBlock *getFalseTarget() const { return FalseTarget; }
  void setTrueTarget(BasicBlock *BB) { TrueTarget = BB; }
  void setFalseTarget(BasicBlock *BB) { FalseTarget = BB; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::CondBranch;
  }

private:
  BasicBlock *TrueTarget;
  BasicBlock *FalseTarget;
};

/// Procedure return. Lowering gives every procedure a single exit block
/// whose only instruction is the Ret.
class RetInst : public Instruction {
public:
  RetInst(uint64_t Id, SourceLoc Loc)
      : Instruction(ValueKind::Ret, Id, Loc) {}

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Ret;
  }
};

} // namespace ipcp

#endif // IPCP_IR_INSTRUCTIONS_H
