//===- ir/Procedure.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Procedure.h"

#include "ir/Module.h"

#include <algorithm>

using namespace ipcp;

BasicBlock *Procedure::createBlock(std::string_view BlockName) {
  BasicBlock *BB =
      Mem.create<BasicBlock>(NextBlockId++, Mem.copyString(BlockName), this);
  Blocks.push_back(Mem, BB);
  invalidateInstStream();
  return BB;
}

void Procedure::eraseBlock(BasicBlock *BB) {
  assert(BB->predecessors().empty() && "erasing block with live predecessors");
  if (BB == ExitBlock)
    ExitBlock = nullptr;
  auto It = std::find(Blocks.begin(), Blocks.end(), BB);
  assert(It != Blocks.end() && "block not in this procedure");
  Blocks.eraseAt(It - Blocks.begin());
  BB->poisonRemoved();
  invalidateInstStream();
}

unsigned Procedure::removeUnreachableBlocks() {
  if (Blocks.empty())
    return 0;

  // Mark what the entry reaches; blocks carry the mark, so the only
  // allocation is the worklist.
  for (BasicBlock *BB : Blocks)
    BB->Reached = false;
  std::vector<BasicBlock *> Work;
  Work.reserve(Blocks.size());
  Work.push_back(getEntryBlock());
  getEntryBlock()->Reached = true;
  size_t NumReached = 1;
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (unsigned I = 0, N = BB->getNumSuccessors(); I != N; ++I) {
      BasicBlock *Succ = BB->getSuccessor(I);
      if (!Succ->Reached) {
        Succ->Reached = true;
        ++NumReached;
        Work.push_back(Succ);
      }
    }
  }
  if (NumReached == Blocks.size())
    return 0;

  // Detach dead blocks from live successors' predecessor lists.
  for (BasicBlock *BB : Blocks) {
    if (BB->Reached)
      continue;
    for (unsigned I = 0, N = BB->getNumSuccessors(); I != N; ++I)
      if (BB->getSuccessor(I)->Reached)
        BB->getSuccessor(I)->removePredecessor(BB);
  }

  // Move the live blocks forward in order and the dead ones to the tail;
  // poison the dead only after the sweep, since a dead block's terminator
  // may name another.
  size_t Kept = 0;
  for (size_t I = 0, E = Blocks.size(); I != E; ++I) {
    BasicBlock *BB = Blocks[I];
    if (!BB->Reached) {
      // A procedure that can only loop forever loses its exit block;
      // return jump functions treat a missing exit as "never returns".
      if (BB == ExitBlock)
        ExitBlock = nullptr;
      continue;
    }
    std::swap(Blocks[Kept++], Blocks[I]);
  }
  unsigned Removed = unsigned(Blocks.size() - Kept);
  while (Blocks.size() > Kept) {
    Blocks.back()->poisonRemoved();
    Blocks.eraseAt(Blocks.size() - 1);
  }
  invalidateInstStream();
  return Removed;
}

Variable *Procedure::addFormal(std::string_view VarName) {
  Variable *Var = Mem.create<Variable>(
      Parent->nextVarId(), Variable::Kind::Formal, Mem.copyString(VarName),
      this, /*FormalIndex=*/static_cast<unsigned>(Formals.size()));
  Formals.push_back(Mem, Var);
  return Var;
}

Variable *Procedure::addLocal(std::string_view VarName,
                              ConstantValue ArraySize) {
  Variable::Kind Kind =
      ArraySize ? Variable::Kind::LocalArray : Variable::Kind::Local;
  Variable *Var =
      Mem.create<Variable>(Parent->nextVarId(), Kind, Mem.copyString(VarName),
                           this, /*FormalIndex=*/0, ArraySize);
  Locals.push_back(Mem, Var);
  return Var;
}

Variable *Procedure::findVariable(std::string_view VarName) const {
  for (Variable *V : Formals)
    if (V->getName() == VarName)
      return V;
  for (Variable *V : Locals)
    if (V->getName() == VarName)
      return V;
  return nullptr;
}

EntryValue *Procedure::getEntryValue(Variable *Var) const {
  assert(Var->isScalar() && "entry values exist only for scalars");
  assert((Var->isGlobal() || Var->getParent() == this) &&
         "entry value for a foreign variable");
  auto It = EntryValues.find(Var);
  if (It != EntryValues.end())
    return It->second.get();
  auto Entry = std::make_unique<EntryValue>(Var);
  EntryValue *Raw = Entry.get();
  EntryValues.emplace(Var, std::move(Entry));
  return Raw;
}

unsigned Procedure::instructionCount() const {
  unsigned Count = 0;
  for (BasicBlock *BB : Blocks)
    Count += BB->instructions().size();
  return Count;
}

const Procedure::InstStream &Procedure::instStream() const {
  if (StreamValid)
    return Stream;
  Stream.Insts.clear();
  Stream.Spans.clear();
  Stream.Spans.reserve(Blocks.size());
  Stream.Insts.reserve(instructionCount());
  for (size_t BI = 0; BI != Blocks.size(); ++BI) {
    BasicBlock *BB = Blocks[BI];
    BB->setDensePos(uint32_t(BI));
    InstStream::Span Span;
    Span.Begin = uint32_t(Stream.Insts.size());
    for (Instruction *Inst : BB->instructions()) {
      Inst->setLocalIdx(uint32_t(Stream.Insts.size()));
      Stream.Insts.push_back(Inst);
    }
    Span.End = uint32_t(Stream.Insts.size());
    Stream.Spans.push_back(Span);
  }
  StreamValid = true;
  return Stream;
}

std::vector<CallInst *> Procedure::callSites() const {
  std::vector<CallInst *> Calls;
  for (BasicBlock *BB : Blocks)
    for (Instruction *Inst : BB->instructions())
      if (auto *Call = dyn_cast<CallInst>(Inst))
        Calls.push_back(Call);
  return Calls;
}
