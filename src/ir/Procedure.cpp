//===- ir/Procedure.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Procedure.h"

#include "ir/Module.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace ipcp;

BasicBlock *Procedure::createBlock(std::string BlockName) {
  Blocks.push_back(
      std::make_unique<BasicBlock>(NextBlockId++, std::move(BlockName), this));
  invalidateInstStream();
  return Blocks.back().get();
}

void Procedure::eraseBlock(BasicBlock *BB) {
  assert(BB->predecessors().empty() && "erasing block with live predecessors");
  if (BB == ExitBlock)
    ExitBlock = nullptr;
  auto It = std::find_if(
      Blocks.begin(), Blocks.end(),
      [&](const std::unique_ptr<BasicBlock> &P) { return P.get() == BB; });
  assert(It != Blocks.end() && "block not in this procedure");
  Blocks.erase(It);
  invalidateInstStream();
}

unsigned Procedure::removeUnreachableBlocks() {
  if (Blocks.empty())
    return 0;

  std::unordered_set<BasicBlock *> Reachable;
  std::deque<BasicBlock *> Queue{getEntryBlock()};
  Reachable.insert(getEntryBlock());
  while (!Queue.empty()) {
    BasicBlock *BB = Queue.front();
    Queue.pop_front();
    for (BasicBlock *Succ : BB->successors())
      if (Reachable.insert(Succ).second)
        Queue.push_back(Succ);
  }
  if (Reachable.size() == Blocks.size())
    return 0;

  // Detach dead blocks from live successors' predecessor lists.
  for (const std::unique_ptr<BasicBlock> &BBPtr : Blocks) {
    BasicBlock *BB = BBPtr.get();
    if (Reachable.count(BB))
      continue;
    for (BasicBlock *Succ : BB->successors())
      if (Reachable.count(Succ))
        Succ->removePredecessor(BB);
  }

  unsigned Removed = 0;
  for (auto It = Blocks.begin(); It != Blocks.end();) {
    if (Reachable.count(It->get())) {
      ++It;
      continue;
    }
    // A procedure that can only loop forever loses its exit block; return
    // jump functions treat a missing exit as "never returns" (bottom-free).
    if (It->get() == ExitBlock)
      ExitBlock = nullptr;
    It = Blocks.erase(It);
    ++Removed;
  }
  if (Removed)
    invalidateInstStream();
  return Removed;
}

Variable *Procedure::addFormal(const std::string &VarName) {
  auto Var = std::make_unique<Variable>(
      Parent->nextVarId(), Variable::Kind::Formal, VarName, this,
      /*FormalIndex=*/static_cast<unsigned>(Formals.size()));
  Formals.push_back(Var.get());
  OwnedVars.push_back(std::move(Var));
  return Formals.back();
}

Variable *Procedure::addLocal(const std::string &VarName,
                              ConstantValue ArraySize) {
  Variable::Kind Kind =
      ArraySize ? Variable::Kind::LocalArray : Variable::Kind::Local;
  auto Var = std::make_unique<Variable>(Parent->nextVarId(), Kind, VarName,
                                        this, /*FormalIndex=*/0, ArraySize);
  Locals.push_back(Var.get());
  OwnedVars.push_back(std::move(Var));
  return Locals.back();
}

Variable *Procedure::findVariable(const std::string &VarName) const {
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
  for (const std::unique_ptr<BasicBlock> &BB : Blocks)
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
    BasicBlock *BB = Blocks[BI].get();
    BB->setDensePos(uint32_t(BI));
    InstStream::Span Span;
    Span.Begin = uint32_t(Stream.Insts.size());
    for (const std::unique_ptr<Instruction> &Inst : BB->instructions()) {
      Inst->setLocalIdx(uint32_t(Stream.Insts.size()));
      Stream.Insts.push_back(Inst.get());
    }
    Span.End = uint32_t(Stream.Insts.size());
    Stream.Spans.push_back(Span);
  }
  StreamValid = true;
  return Stream;
}

std::vector<CallInst *> Procedure::callSites() const {
  std::vector<CallInst *> Calls;
  for (const std::unique_ptr<BasicBlock> &BB : Blocks)
    for (const std::unique_ptr<Instruction> &Inst : BB->instructions())
      if (auto *Call = dyn_cast<CallInst>(Inst.get()))
        Calls.push_back(Call);
  return Calls;
}
