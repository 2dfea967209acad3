//===- ir/Verifier.cpp ----------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Dominators.h"
#include "ir/IRPrinter.h"
#include "support/Casting.h"

#include <deque>
#include <map>
#include <unordered_set>

using namespace ipcp;

namespace {

/// Accumulates violations for one procedure.
class ProcVerifier {
public:
  ProcVerifier(const Procedure &P, std::vector<std::string> &Errors)
      : P(P), Errors(Errors) {}

  void run();

private:
  void report(const std::string &Message) {
    Errors.push_back("proc '" + P.getName() + "': " + Message);
  }

  void checkBlockStructure(const BasicBlock &BB);
  void checkEdges();
  void checkReachability();
  void checkRet();
  void checkInstruction(const Instruction &Inst);
  void checkOperandDominance();

  const Procedure &P;
  std::vector<std::string> &Errors;
};

} // namespace

void ProcVerifier::checkBlockStructure(const BasicBlock &BB) {
  if (BB.empty()) {
    report("block '" + std::string(BB.getName()) + "' is empty");
    return;
  }
  unsigned Terminators = 0;
  for (Instruction *Inst : BB.instructions()) {
    if (Inst->isTerminator())
      ++Terminators;
    if (Inst->getParent() != &BB)
      report("instruction %" + std::to_string(Inst->getId()) +
             " has a stale parent pointer");
  }
  if (Terminators != 1)
    report("block '" + std::string(BB.getName()) + "' has " +
           std::to_string(Terminators) + " terminators");
  else if (!BB.instructions().back()->isTerminator())
    report("terminator is not last in block '" + std::string(BB.getName()) +
           "'");
}

void ProcVerifier::checkEdges() {
  // Successor edges, counted per (from, to) pair, must equal predecessor
  // list entries.
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, int> EdgeCount;
  for (BasicBlock *BB : P.blocks())
    for (BasicBlock *Succ : BB->successors())
      ++EdgeCount[{BB, Succ}];
  for (BasicBlock *BB : P.blocks())
    for (BasicBlock *Pred : BB->predecessors())
      --EdgeCount[{Pred, BB}];
  for (const auto &[Edge, Count] : EdgeCount)
    if (Count != 0)
      report("edge " + std::string(Edge.first->getName()) + " -> " +
             std::string(Edge.second->getName()) +
             " has inconsistent pred/succ lists");
}

void ProcVerifier::checkReachability() {
  if (P.blocks().empty()) {
    report("procedure has no blocks");
    return;
  }
  std::unordered_set<const BasicBlock *> Reachable;
  std::deque<const BasicBlock *> Queue{P.getEntryBlock()};
  Reachable.insert(P.getEntryBlock());
  while (!Queue.empty()) {
    const BasicBlock *BB = Queue.front();
    Queue.pop_front();
    for (BasicBlock *Succ : BB->successors())
      if (Reachable.insert(Succ).second)
        Queue.push_back(Succ);
  }
  for (BasicBlock *BB : P.blocks())
    if (!Reachable.count(BB))
      report("block '" + std::string(BB->getName()) + "' is unreachable");
}

void ProcVerifier::checkRet() {
  unsigned Rets = 0;
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      if (isa<RetInst>(Inst)) {
        ++Rets;
        if (BB != P.getExitBlock())
          report("ret outside the designated exit block");
      }
  if (P.getExitBlock()) {
    if (Rets != 1)
      report("expected exactly one ret, found " + std::to_string(Rets));
  } else if (Rets != 0) {
    report("procedure has rets but no designated exit block");
  }
}

void ProcVerifier::checkInstruction(const Instruction &Inst) {
  for (Value *Op : Inst.operands()) {
    if (!Op) {
      report("null operand in %" + std::to_string(Inst.getId()));
      continue;
    }
    if (!Op->producesValue())
      report("operand of %" + std::to_string(Inst.getId()) +
             " does not produce a value");
    if (const auto *Entry = dyn_cast<EntryValue>(Op)) {
      const Variable *Var = Entry->getVariable();
      if (!Var->isGlobal() && Var->getParent() != &P)
        report("entry value of foreign variable '" +
               std::string(Var->getName()) + "' used in %" +
               std::to_string(Inst.getId()));
    }
  }

  if (const auto *Call = dyn_cast<CallInst>(&Inst)) {
    if (Call->getNumActuals() != Call->getCallee()->getNumFormals())
      report("call %" + std::to_string(Call->getId()) + " passes " +
             std::to_string(Call->getNumActuals()) + " actuals to '" +
             Call->getCallee()->getName() + "' which takes " +
             std::to_string(Call->getCallee()->getNumFormals()));
    for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
      const CallActual &A = Call->getActual(I);
      if (A.ByRefLoc && !A.ByRefLoc->isScalar())
        report("by-ref actual " + std::to_string(I) + " of call %" +
               std::to_string(Call->getId()) + " is not a scalar");
    }
  }

  if (isa<PhiInst, CallOutInst>(&Inst))
    report("phi/callout %" + std::to_string(Inst.getId()) +
           " present in pre-SSA form");
}

void ProcVerifier::checkOperandDominance() {
  // The definition of any instruction-valued operand
  // must dominate its use — same block and earlier, or in a strictly
  // dominating block. (Lowering produces this; splitting transforms like
  // the inliner preserve it even though block-vector order changes.)
  if (P.blocks().empty())
    return;
  DominatorTree DT(P);

  // Position of each instruction within its block for same-block checks.
  std::unordered_map<const Instruction *, unsigned> Position;
  for (BasicBlock *BB : P.blocks()) {
    unsigned Index = 0;
    for (Instruction *Inst : BB->instructions())
      Position[Inst] = Index++;
  }

  for (BasicBlock *BB : P.blocks()) {
    if (!DT.isReachable(BB))
      continue;
    for (Instruction *Inst : BB->instructions()) {
      for (Value *Op : Inst->operands()) {
        auto *Def = dyn_cast_or_null<Instruction>(Op);
        if (!Def)
          continue;
        BasicBlock *DefBB = Def->getParent();
        bool Dominates;
        if (!DefBB || !DT.isReachable(DefBB))
          Dominates = false;
        else if (DefBB == BB)
          Dominates = Position[Def] < Position[Inst];
        else
          Dominates = DT.dominates(DefBB, BB);
        if (!Dominates)
          report("operand %" + std::to_string(Def->getId()) + " of %" +
                 std::to_string(Inst->getId()) +
                 " does not dominate its use");
      }
    }
  }
}

void ProcVerifier::run() {
  size_t ErrorsBefore = Errors.size();
  for (BasicBlock *BB : P.blocks())
    checkBlockStructure(*BB);
  checkEdges();
  checkReachability();
  checkRet();
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      checkInstruction(*Inst);
  // Dominance is only meaningful over a structurally sound CFG (the
  // dominator computation itself asserts on inconsistent edges).
  if (Errors.size() == ErrorsBefore)
    checkOperandDominance();
}

void ipcp::verifyProcedure(const Procedure &P,
                           std::vector<std::string> &Errors) {
  ProcVerifier(P, Errors).run();
}

std::vector<std::string> ipcp::verifyModule(const Module &M) {
  std::vector<std::string> Errors;
  for (const std::unique_ptr<Procedure> &P : M.procedures())
    verifyProcedure(*P, Errors);
  return Errors;
}
