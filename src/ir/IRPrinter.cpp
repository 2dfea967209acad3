//===- ir/IRPrinter.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/Casting.h"

using namespace ipcp;

static const char *binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "add";
  case BinaryOp::Sub:
    return "sub";
  case BinaryOp::Mul:
    return "mul";
  case BinaryOp::Div:
    return "div";
  case BinaryOp::Mod:
    return "mod";
  case BinaryOp::CmpEq:
    return "cmpeq";
  case BinaryOp::CmpNe:
    return "cmpne";
  case BinaryOp::CmpLt:
    return "cmplt";
  case BinaryOp::CmpLe:
    return "cmple";
  case BinaryOp::CmpGt:
    return "cmpgt";
  case BinaryOp::CmpGe:
    return "cmpge";
  }
  return "?";
}

std::string ipcp::printValueRef(const Value *V) {
  if (const auto *C = dyn_cast<ConstantInt>(V))
    return std::to_string(C->getValue());
  if (const auto *E = dyn_cast<EntryValue>(V))
    return "entry(" + std::string(E->getVariable()->getName()) + ")";
  if (isa<UndefValue>(V))
    return "undef";
  const auto *Inst = cast<Instruction>(V);
  return '%' + std::to_string(Inst->getId());
}

std::string ipcp::printInstruction(const Instruction *Inst) {
  std::string Out;
  auto Def = [&] { Out += printValueRef(Inst) + " = "; };
  switch (Inst->getKind()) {
  case ValueKind::Binary: {
    const auto *Bin = cast<BinaryInst>(Inst);
    Def();
    Out += binaryOpName(Bin->getOp());
    Out += ' ' + printValueRef(Bin->getLHS()) + ", " +
           printValueRef(Bin->getRHS());
    break;
  }
  case ValueKind::Unary: {
    const auto *Un = cast<UnaryInst>(Inst);
    Def();
    Out += Un->getOp() == UnaryOp::Neg ? "neg " : "not ";
    Out += printValueRef(Un->getValueOperand());
    break;
  }
  case ValueKind::Load:
    Def();
    Out += "load ";
    Out += cast<LoadInst>(Inst)->getVariable()->getName();
    break;
  case ValueKind::Store: {
    const auto *Store = cast<StoreInst>(Inst);
    Out += "store " + std::string(Store->getVariable()->getName()) + ", " +
           printValueRef(Store->getValueOperand());
    break;
  }
  case ValueKind::ArrayLoad: {
    const auto *ALoad = cast<ArrayLoadInst>(Inst);
    Def();
    Out += "aload " + std::string(ALoad->getArray()->getName()) + "[" +
           printValueRef(ALoad->getIndex()) + "]";
    break;
  }
  case ValueKind::ArrayStore: {
    const auto *AStore = cast<ArrayStoreInst>(Inst);
    Out += "astore " + std::string(AStore->getArray()->getName()) + "[" +
           printValueRef(AStore->getIndex()) + "], " +
           printValueRef(AStore->getValueOperand());
    break;
  }
  case ValueKind::Read:
    Def();
    Out += "read";
    break;
  case ValueKind::Print:
    Out += "print " + printValueRef(cast<PrintInst>(Inst)->getValueOperand());
    break;
  case ValueKind::Phi: {
    const auto *Phi = cast<PhiInst>(Inst);
    Def();
    Out += "phi " + std::string(Phi->getVariable()->getName()) + " ";
    for (unsigned I = 0, E = Phi->getNumIncoming(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += '[' + printValueRef(Phi->getIncomingValue(I)) + ", " +
             std::string(Phi->getIncomingBlock(I)->getName()) + "]";
    }
    break;
  }
  case ValueKind::Call: {
    const auto *Call = cast<CallInst>(Inst);
    Out += "call " + Call->getCallee()->getName() + "(";
    for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += printValueRef(Call->getActualValue(I));
      if (Variable *Loc = Call->getActual(I).ByRefLoc)
        Out += " @" + std::string(Loc->getName());
    }
    Out += ")";
    break;
  }
  case ValueKind::CallOut: {
    const auto *Out2 = cast<CallOutInst>(Inst);
    Def();
    Out += "callout %" + std::to_string(Out2->getCall()->getId()) + ", " +
           std::string(Out2->getVariable()->getName());
    break;
  }
  case ValueKind::Branch:
    Out += "br " + std::string(cast<BranchInst>(Inst)->getTarget()->getName());
    break;
  case ValueKind::CondBranch: {
    const auto *CBr = cast<CondBranchInst>(Inst);
    Out += "cbr " + printValueRef(CBr->getCond()) + ", " +
           std::string(CBr->getTrueTarget()->getName()) + ", " +
           std::string(CBr->getFalseTarget()->getName());
    break;
  }
  case ValueKind::Ret:
    Out += "ret";
    break;
  default:
    Out += "<unknown>";
    break;
  }
  return Out;
}

std::string ipcp::printProcedure(const Procedure &P) {
  std::string Out = "proc " + P.getName() + "(";
  for (size_t I = 0; I != P.formals().size(); ++I) {
    if (I)
      Out += ", ";
    Out += P.formals()[I]->getName();
  }
  Out += ") {\n";
  for (BasicBlock *BB : P.blocks()) {
    Out += std::string(BB->getName()) + ":";
    if (!BB->predecessors().empty()) {
      Out += "    ; preds:";
      for (BasicBlock *Pred : BB->predecessors())
        Out.append(" ").append(Pred->getName());
    }
    Out += "\n";
    for (Instruction *Inst : BB->instructions())
      Out += "  " + printInstruction(Inst) + "\n";
  }
  Out += "}\n";
  return Out;
}

std::string ipcp::printModule(const Module &M) {
  std::string Out;
  for (const Variable *G : M.globals()) {
    Out += "global " + std::string(G->getName());
    if (G->isArray())
      Out += '[' + std::to_string(G->getArraySize()) + "]";
    Out += "\n";
  }
  for (const std::unique_ptr<Procedure> &P : M.procedures()) {
    Out += "\n";
    Out += printProcedure(*P);
  }
  return Out;
}
