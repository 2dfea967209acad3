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

Instruction *ipcp::cloneInstructionWithMaps(const Instruction *Inst,
                                            Procedure &NewP,
                                            IRCloneMaps &Maps) {
  Module &NewM = *NewP.getModule();
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
    return NewP.create<BinaryInst>(Id, Loc, Bin->getOp(),
                                   MapValue(Bin->getLHS()),
                                   MapValue(Bin->getRHS()));
  }
  case ValueKind::Unary: {
    const auto *Un = cast<UnaryInst>(Inst);
    return NewP.create<UnaryInst>(Id, Loc, Un->getOp(),
                                  MapValue(Un->getValueOperand()));
  }
  case ValueKind::Load: {
    const auto *Load = cast<LoadInst>(Inst);
    return NewP.create<LoadInst>(Id, Loc, Maps.var(Load->getVariable()));
  }
  case ValueKind::Store: {
    const auto *Store = cast<StoreInst>(Inst);
    return NewP.create<StoreInst>(Id, Loc, Maps.var(Store->getVariable()),
                                  MapValue(Store->getValueOperand()));
  }
  case ValueKind::ArrayLoad: {
    const auto *ALoad = cast<ArrayLoadInst>(Inst);
    return NewP.create<ArrayLoadInst>(Id, Loc, Maps.var(ALoad->getArray()),
                                      MapValue(ALoad->getIndex()));
  }
  case ValueKind::ArrayStore: {
    const auto *AStore = cast<ArrayStoreInst>(Inst);
    return NewP.create<ArrayStoreInst>(
        Id, Loc, Maps.var(AStore->getArray()), MapValue(AStore->getIndex()),
        MapValue(AStore->getValueOperand()));
  }
  case ValueKind::Read:
    return NewP.create<ReadInst>(Id, Loc);
  case ValueKind::Print: {
    const auto *Print = cast<PrintInst>(Inst);
    return NewP.create<PrintInst>(Id, Loc,
                                  MapValue(Print->getValueOperand()));
  }
  case ValueKind::Call: {
    const auto *Call = cast<CallInst>(Inst);
    std::vector<CallActual> &Actuals = Maps.ActualScratch;
    Actuals.clear();
    for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
      CallActual A = Call->getActual(I);
      A.Val = MapValue(Call->getActualValue(I));
      A.ByRefLoc = Maps.var(A.ByRefLoc);
      Actuals.push_back(A);
    }
    auto It = Maps.Procs.find(Call->getCallee());
    assert(It != Maps.Procs.end() && "call to unmapped procedure");
    return NewP.create<CallInst>(Id, Loc, It->second, Actuals);
  }
  case ValueKind::Branch: {
    const auto *Br = cast<BranchInst>(Inst);
    return NewP.create<BranchInst>(Id, Loc, Maps.block(Br->getTarget()));
  }
  case ValueKind::CondBranch: {
    const auto *CBr = cast<CondBranchInst>(Inst);
    return NewP.create<CondBranchInst>(
        Id, Loc, MapValue(CBr->getCond()), Maps.block(CBr->getTrueTarget()),
        Maps.block(CBr->getFalseTarget()));
  }
  case ValueKind::Ret:
    return NewP.create<RetInst>(Id, Loc);
  default:
    assert(false && "unknown instruction kind in clone");
    return nullptr;
  }
}
