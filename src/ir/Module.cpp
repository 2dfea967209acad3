//===- ir/Module.cpp ------------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include "ir/CloneUtil.h"

using namespace ipcp;

Procedure *Module::createProcedure(std::string_view Name, size_t ArenaBytes) {
  Procs.push_back(
      std::make_unique<Procedure>(this, std::string(Name), ArenaBytes));
  Procedure *P = Procs.back().get();
  P->ModuleIndex = uint32_t(Procs.size() - 1);
  ProcIndex.emplace(P->getName(), P); // an earlier namesake keeps the slot
  return P;
}

Procedure *Module::findProcedure(std::string_view Name) const {
  auto It = ProcIndex.find(Name);
  return It == ProcIndex.end() ? nullptr : It->second;
}

void Module::eraseProcedure(Procedure *P) {
  assert(P->ModuleIndex < Procs.size() && Procs[P->ModuleIndex].get() == P &&
         "procedure not in this module");
  auto Pos = Procs.begin() + P->ModuleIndex;
  auto Slot = ProcIndex.find(P->getName());
  if (Slot->second == P) {
    // The next namesake in module order, if any, takes over the name.
    ProcIndex.erase(Slot);
    for (auto It = Pos + 1; It != Procs.end(); ++It)
      if ((*It)->getName() == P->getName()) {
        ProcIndex.emplace((*It)->getName(), It->get());
        break;
      }
  }
  for (auto It = Procs.erase(Pos); It != Procs.end(); ++It)
    (*It)->ModuleIndex = uint32_t(It - Procs.begin());
}

Variable *Module::addGlobal(std::string_view Name, ConstantValue ArraySize) {
  Variable::Kind Kind =
      ArraySize ? Variable::Kind::GlobalArray : Variable::Kind::Global;
  Variable *Var = Mem.create<Variable>(nextVarId(), Kind, Mem.copyString(Name),
                                       /*Parent=*/nullptr,
                                       /*FormalIndex=*/0, ArraySize);
  Globals.push_back(Var);
  return Var;
}

Variable *Module::findGlobal(std::string_view Name) const {
  for (Variable *V : Globals)
    if (V->getName() == Name)
      return V;
  return nullptr;
}

ConstantInt *Module::getConstant(ConstantValue V) {
  auto [It, Inserted] = Constants.try_emplace(V, nullptr);
  if (Inserted)
    It->second = Mem.create<ConstantInt>(V);
  return It->second;
}

unsigned Module::instructionCount() const {
  unsigned Count = 0;
  for (const std::unique_ptr<Procedure> &P : Procs)
    Count += P->instructionCount();
  return Count;
}

std::unique_ptr<Module> Module::clone() const {
  auto NewM = std::make_unique<Module>();
  IRCloneMaps Maps(*this);
  Maps.Clones.reserve(instructionCount());

  for (const Variable *G : Globals) {
    Variable *NewG = NewM->addGlobal(G->getName(), G->getArraySize());
    NewG->setId(G->getId());
    Maps.mapVar(G, NewG);
  }

  // Create all procedures, variables, and blocks first so call and branch
  // targets can be mapped while cloning instructions.
  NewM->ProcIndex.reserve(ProcIndex.size());
  for (const std::unique_ptr<Procedure> &P : Procs) {
    Procedure *NewP = NewM->createProcedure(P->getName(),
                                            P->arena().bytesAllocated());
    Maps.Procs.emplace(P.get(), NewP);
    for (const Variable *F : P->formals()) {
      Variable *NewF = NewP->addFormal(F->getName());
      NewF->setId(F->getId());
      Maps.mapVar(F, NewF);
    }
    for (const Variable *L : P->locals()) {
      Variable *NewL = NewP->addLocal(L->getName(), L->getArraySize());
      NewL->setId(L->getId());
      Maps.mapVar(L, NewL);
    }
    for (BasicBlock *BB : P->blocks())
      Maps.Blocks.emplace(BB, NewP->createBlock(BB->getName()));
    if (P->getExitBlock())
      NewP->setExitBlock(Maps.block(P->getExitBlock()));
  }

  for (const std::unique_ptr<Procedure> &P : Procs) {
    Procedure &NewP = *Maps.Procs.at(P.get());
    for (BasicBlock *BB : P->blocks()) {
      BasicBlock *NewBB = Maps.block(BB);
      for (Instruction *Inst : BB->instructions()) {
        Instruction *NewInst = cloneInstructionWithMaps(Inst, NewP, Maps);
        Maps.mapValue(Inst, NewInst);
        NewBB->append(NewInst);
      }
      for (BasicBlock *Pred : BB->predecessors())
        NewBB->addPredecessor(Maps.block(Pred));
    }
  }

  patchClonedOperands(Maps);

  // Preserve ID continuity for instructions added to the clone later.
  NewM->NextInstId = NextInstId;
  NewM->NextVarId = NextVarId;
  return NewM;
}

Procedure *Module::cloneProcedure(const Procedure &Src,
                                  std::string_view NewName) {
  assert(Src.getModule() == this && "cloning a foreign procedure");
  IRCloneMaps Maps(*this);
  // Globals and procedures are shared; local storage is fresh.
  for (Variable *G : Globals)
    Maps.mapVar(G, G);
  for (const std::unique_ptr<Procedure> &P : Procs)
    Maps.Procs.emplace(P.get(), P.get());

  Procedure *NewP =
      createProcedure(NewName, Src.arena().bytesAllocated());
  for (const Variable *F : Src.formals())
    Maps.mapVar(F, NewP->addFormal(F->getName()));
  for (const Variable *L : Src.locals())
    Maps.mapVar(L, NewP->addLocal(L->getName(), L->getArraySize()));
  for (BasicBlock *BB : Src.blocks())
    Maps.Blocks.emplace(BB, NewP->createBlock(BB->getName()));
  if (Src.getExitBlock())
    NewP->setExitBlock(Maps.block(Src.getExitBlock()));

  for (BasicBlock *BB : Src.blocks()) {
    BasicBlock *NewBB = Maps.block(BB);
    for (Instruction *Inst : BB->instructions()) {
      Instruction *NewInst = cloneInstructionWithMaps(Inst, *NewP, Maps);
      NewInst->setId(nextInstId()); // fresh identity for the copy
      Maps.mapValue(Inst, NewInst);
      NewBB->append(NewInst);
    }
    for (BasicBlock *Pred : BB->predecessors())
      NewBB->addPredecessor(Maps.block(Pred));
  }
  patchClonedOperands(Maps);
  return NewP;
}
