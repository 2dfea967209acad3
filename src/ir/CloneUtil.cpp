//===- ir/CloneUtil.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/CloneUtil.h"

using namespace ipcp;

void ipcp::patchClonedOperands(IRCloneMaps &Maps) {
  for (Instruction *Inst : Maps.Clones) {
    for (unsigned I = 0, E = Inst->getNumOperands(); I != E; ++I) {
      Value *Op = Inst->getOperand(I);
      if (!Op || !Op->isInstruction())
        continue;
      if (Value *New = Maps.valueOrNull(Op)) {
        // Either a forward reference still pointing at the original
        // (rewritten here), or an ID-preserving clone resolved during the
        // first pass (New == Op; the store is a no-op).
        Inst->setOperand(I, New);
        continue;
      }
      // Fresh-ID clones sit outside the table; an original value must
      // have been mapped — anything else is a cloning bug.
      assert(cast<Instruction>(Op)->getId() >= Maps.Values.size() &&
             "cloned instruction still references an original value");
    }
  }
}

std::unique_ptr<Instruction>
ipcp::cloneInstructionWithMaps(const Instruction *Inst, Module &NewM,
                               IRCloneMaps &Maps) {
  auto MapValue = [&](Value *Old) -> Value * {
    if (auto *C = dyn_cast<ConstantInt>(Old))
      return NewM.getConstant(C->getValue());
    if (isa<UndefValue>(Old))
      return NewM.getUndef();
    // Forward references (defs later in block order) are resolved by
    // patchClonedOperands once every instruction has a clone.
    Value *New = Maps.valueOrNull(Old);
    return New ? New : Old;
  };

  uint64_t Id = Inst->getId();
  SourceLoc Loc = Inst->getLoc();
  switch (Inst->getKind()) {
  case ValueKind::Binary: {
    const auto *Bin = cast<BinaryInst>(Inst);
    return std::make_unique<BinaryInst>(Id, Loc, Bin->getOp(),
                                        MapValue(Bin->getLHS()),
                                        MapValue(Bin->getRHS()));
  }
  case ValueKind::Unary: {
    const auto *Un = cast<UnaryInst>(Inst);
    return std::make_unique<UnaryInst>(Id, Loc, Un->getOp(),
                                       MapValue(Un->getValueOperand()));
  }
  case ValueKind::Load: {
    const auto *Load = cast<LoadInst>(Inst);
    return std::make_unique<LoadInst>(Id, Loc, Maps.var(Load->getVariable()));
  }
  case ValueKind::Store: {
    const auto *Store = cast<StoreInst>(Inst);
    return std::make_unique<StoreInst>(Id, Loc, Maps.var(Store->getVariable()),
                                       MapValue(Store->getValueOperand()));
  }
  case ValueKind::ArrayLoad: {
    const auto *ALoad = cast<ArrayLoadInst>(Inst);
    return std::make_unique<ArrayLoadInst>(
        Id, Loc, Maps.var(ALoad->getArray()), MapValue(ALoad->getIndex()));
  }
  case ValueKind::ArrayStore: {
    const auto *AStore = cast<ArrayStoreInst>(Inst);
    return std::make_unique<ArrayStoreInst>(
        Id, Loc, Maps.var(AStore->getArray()), MapValue(AStore->getIndex()),
        MapValue(AStore->getValueOperand()));
  }
  case ValueKind::Read:
    return std::make_unique<ReadInst>(Id, Loc);
  case ValueKind::Print: {
    const auto *Print = cast<PrintInst>(Inst);
    return std::make_unique<PrintInst>(Id, Loc,
                                       MapValue(Print->getValueOperand()));
  }
  case ValueKind::Call: {
    const auto *Call = cast<CallInst>(Inst);
    std::vector<CallActual> Actuals;
    Actuals.reserve(Call->getNumActuals());
    for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
      CallActual A = Call->getActual(I);
      A.Val = MapValue(Call->getActualValue(I));
      A.ByRefLoc = Maps.var(A.ByRefLoc);
      Actuals.push_back(A);
    }
    auto It = Maps.Procs.find(Call->getCallee());
    assert(It != Maps.Procs.end() && "call to unmapped procedure");
    return std::make_unique<CallInst>(Id, Loc, It->second,
                                      std::move(Actuals));
  }
  case ValueKind::Branch: {
    const auto *Br = cast<BranchInst>(Inst);
    return std::make_unique<BranchInst>(Id, Loc, Maps.block(Br->getTarget()));
  }
  case ValueKind::CondBranch: {
    const auto *CBr = cast<CondBranchInst>(Inst);
    return std::make_unique<CondBranchInst>(
        Id, Loc, MapValue(CBr->getCond()), Maps.block(CBr->getTrueTarget()),
        Maps.block(CBr->getFalseTarget()));
  }
  case ValueKind::Ret:
    return std::make_unique<RetInst>(Id, Loc);
  default:
    assert(false && "unknown instruction kind in clone");
    return nullptr;
  }
}
