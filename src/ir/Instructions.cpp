//===- ir/Instructions.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Instructions.h"

using namespace ipcp;

const void *Instruction::allocationBegin() const {
  if (getKind() == ValueKind::Phi || getKind() == ValueKind::CallOut)
    return nullptr; // side-table kinds
  return operandList();
}

size_t Instruction::allocationSize() const {
  size_t Object = 0;
  switch (getKind()) {
  case ValueKind::Binary:
    Object = sizeof(BinaryInst);
    break;
  case ValueKind::Unary:
    Object = sizeof(UnaryInst);
    break;
  case ValueKind::Load:
    Object = sizeof(LoadInst);
    break;
  case ValueKind::ArrayLoad:
    Object = sizeof(ArrayLoadInst);
    break;
  case ValueKind::Read:
    Object = sizeof(ReadInst);
    break;
  case ValueKind::Store:
    Object = sizeof(StoreInst);
    break;
  case ValueKind::ArrayStore:
    Object = sizeof(ArrayStoreInst);
    break;
  case ValueKind::Print:
    Object = sizeof(PrintInst);
    break;
  case ValueKind::Call:
    Object = sizeof(CallInst) + getNumOperands() * sizeof(CallActual);
    break;
  case ValueKind::Branch:
    Object = sizeof(BranchInst);
    break;
  case ValueKind::CondBranch:
    Object = sizeof(CondBranchInst);
    break;
  case ValueKind::Ret:
    Object = sizeof(RetInst);
    break;
  default:
    return 0; // phis and callouts live in SSA side tables
  }
  return getNumOperands() * sizeof(Value *) + Object;
}

CallInst *CallInst::create(Arena &A, uint64_t Id, SourceLoc Loc,
                           Procedure *Callee,
                           std::span<const CallActual> Actuals) {
  static_assert(alignof(CallActual) <= alignof(CallInst) &&
                    sizeof(CallInst) % alignof(CallActual) == 0,
                "trailing actuals must stay aligned");
  return createWithOperands<CallInst>(A, unsigned(Actuals.size()),
                                      Actuals.size() * sizeof(CallActual),
                                      Id, Loc, Callee, Actuals);
}

CallInst::CallInst(uint64_t Id, SourceLoc Loc, Procedure *Callee,
                   std::span<const CallActual> Actuals)
    : Instruction(ValueKind::Call, Id, Loc, unsigned(Actuals.size())),
      Callee(Callee) {
  auto *Descs = reinterpret_cast<CallActual *>(this + 1);
  for (unsigned I = 0, N = unsigned(Actuals.size()); I != N; ++I) {
    setOperand(I, Actuals[I].Val);
    ::new (Descs + I) CallActual(Actuals[I]);
  }
}
