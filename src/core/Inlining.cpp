//===- core/Inlining.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Inlining.h"

#include "analysis/CallGraph.h"
#include "frontend/Sema.h"
#include "ir/CloneUtil.h"

#include <unordered_set>

using namespace ipcp;

namespace {
/// Monotone counter making inliner-introduced names unique module-wide.
unsigned nextInlineId() {
  static unsigned Counter = 0;
  return ++Counter;
}
} // namespace

BasicBlock *ipcp::inlineCallSite(Module &M, Procedure &Caller,
                                 CallInst *Call) {
  Procedure *Callee = Call->getCallee();
  assert(Callee != &Caller && "cannot integrate a self-call");
  BasicBlock *B = Call->getParent();
  unsigned Tag = nextInlineId();
  std::string Suffix = "." + Callee->getName() + std::to_string(Tag);

  // 1. Split B at the call: everything after it moves to a continuation.
  BasicBlock *Cont = Caller.createBlock("inl.cont" + std::to_string(Tag));
  {
    std::vector<Instruction *> After;
    bool Seen = false;
    for (Instruction *Inst : B->instructions()) {
      if (Seen)
        After.push_back(Inst);
      if (Inst == Call)
        Seen = true;
    }
    assert(Seen && "call not inside its own parent block");
    for (Instruction *Inst : After)
      Cont->append(B->detach(Inst));
  }
  // The moved terminator's successors now flow from Cont, not B.
  for (BasicBlock *Succ : Cont->successors()) {
    Succ->removePredecessor(B);
    Succ->addPredecessor(Cont);
  }

  // 2. Bind the callee's variables into the caller.
  IRCloneMaps Maps(M);
  for (Variable *G : M.globals())
    Maps.mapVar(G, G);
  for (const std::unique_ptr<Procedure> &P : M.procedures())
    Maps.Procs.emplace(P.get(), P.get());

  for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
    const CallActual &A = Call->getActual(I);
    Variable *Formal = Callee->formals()[I];
    if (A.ByRefLoc) {
      // Fortran by-reference binding: the formal *is* the actual.
      Maps.mapVar(Formal, A.ByRefLoc);
      continue;
    }
    // Expression actual: an initialized hidden temporary, updates lost.
    Variable *Temp =
        Caller.addLocal(std::string(Formal->getName()) + Suffix + ".arg");
    B->append(Caller.create<StoreInst>(M.nextInstId(), Call->getLoc(), Temp,
                                       Call->getActualValue(I)));
    Maps.mapVar(Formal, Temp);
  }
  for (const Variable *L : Callee->locals())
    Maps.mapVar(L, Caller.addLocal(std::string(L->getName()) + Suffix,
                                   L->getArraySize()));

  // 3. Clone the body. Rets become branches to the continuation.
  for (BasicBlock *BB : Callee->blocks())
    Maps.Blocks.emplace(
        BB, Caller.createBlock(std::string(BB->getName()) + Suffix));

  for (BasicBlock *BB : Callee->blocks()) {
    BasicBlock *NewBB = Maps.block(BB);
    for (Instruction *Inst : BB->instructions()) {
      if (isa<RetInst>(Inst)) {
        NewBB->append(
            Caller.create<BranchInst>(M.nextInstId(), Inst->getLoc(), Cont));
        Cont->addPredecessor(NewBB);
        continue;
      }
      Instruction *NewInst = cloneInstructionWithMaps(Inst, Caller, Maps);
      NewInst->setId(M.nextInstId());
      Maps.mapValue(Inst, NewInst);
      NewBB->append(NewInst);
    }
    for (BasicBlock *Pred : BB->predecessors())
      NewBB->addPredecessor(Maps.block(Pred));
  }

  patchClonedOperands(Maps);

  // 4. Replace the call with a branch into the integrated entry.
  BasicBlock *NewEntry = Maps.block(Callee->getEntryBlock());
  B->erase(Call);
  B->append(Caller.create<BranchInst>(M.nextInstId(), SourceLoc(), NewEntry));
  NewEntry->addPredecessor(B);

  // A callee that can only loop forever leaves Cont unreachable.
  Caller.removeUnreachableBlocks();
  return Cont;
}

InlineResult ipcp::inlineCalls(Module &M, const InlineOptions &Opts) {
  InlineResult Result;
  Result.InstructionsBefore = M.instructionCount();
  const double Budget =
      Result.InstructionsBefore * Opts.MaxGrowthFactor;

  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    CallGraph CG(M);
    bool Changed = false;
    for (const std::unique_ptr<Procedure> &P : M.procedures()) {
      // Snapshot: integration appends new (next-round) call sites.
      std::vector<CallInst *> Sites = P->callSites();
      for (CallInst *Site : Sites) {
        Procedure *Callee = Site->getCallee();
        if (Callee == P.get() || CG.isRecursive(Callee))
          continue;
        if (Callee->instructionCount() > Opts.MaxCalleeInstructions)
          continue;
        if (M.instructionCount() + Callee->instructionCount() > Budget)
          break;
        inlineCallSite(M, *P, Site);
        ++Result.CallsInlined;
        Changed = true;
      }
    }
    if (!Changed)
      break;
    ++Result.RoundsRun;
  }

  Procedure *Entry = M.findProcedure(EntryProcedureName);
  if (Opts.RemoveDeadProcedures && Entry) {
    CallGraph CG(M);
    std::unordered_set<Procedure *> Live = CG.reachableFrom(Entry);
    std::vector<Procedure *> Dead;
    for (const std::unique_ptr<Procedure> &P : M.procedures())
      if (!Live.count(P.get()) && P.get() != Entry)
        Dead.push_back(P.get());
    for (Procedure *P : Dead)
      M.eraseProcedure(P);
    Result.ProceduresRemoved = Dead.size();
  }

  Result.InstructionsAfter = M.instructionCount();
  return Result;
}

IntegrationResult ipcp::runIntegrationBasedIPCP(const Module &M,
                                                const InlineOptions &Opts) {
  IntegrationResult Result;
  std::unique_ptr<Module> Working = M.clone();
  Result.Inlining = inlineCalls(*Working, Opts);

  IPCPOptions Intra;
  Intra.IntraproceduralOnly = true;
  IPCPResult R = runIPCP(*Working, Intra);
  Result.ConstantRefs = R.TotalConstantRefs;
  Result.EntryConstants = R.TotalEntryConstants;
  return Result;
}
