//===- analysis/ModRef.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModRef.h"

#include "support/Casting.h"
#include "support/Trace.h"
#include "support/Worklist.h"

using namespace ipcp;

bool ModRefInfo::formalMayBeModified(const Procedure *P,
                                     unsigned Index) const {
  if (WorstCase)
    return true;
  uint32_t PI = P->getModuleIndex();
  if (PI >= FormalMod.size())
    return false;
  return Index < FormalMod[PI].size() && FormalMod[PI][Index];
}

const VariableSet &ModRefInfo::modifiedGlobals(const Procedure *P) const {
  if (WorstCase)
    return AllScalarGlobals;
  uint32_t PI = P->getModuleIndex();
  return PI >= GlobalMod.size() ? EmptySet : GlobalMod[PI];
}

const VariableSet &ModRefInfo::extendedGlobals(const Procedure *P) const {
  if (WorstCase)
    return AllScalarGlobals;
  uint32_t PI = P->getModuleIndex();
  return PI >= ExtGlobals.size() ? EmptySet : ExtGlobals[PI];
}

std::vector<Variable *> ModRefInfo::callKills(const CallInst *Call) const {
  VariableSet Kills;
  const Procedure *Callee = Call->getCallee();
  for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
    Variable *Loc = Call->getActual(I).ByRefLoc;
    if (Loc && formalMayBeModified(Callee, I))
      Kills.insert(Loc);
  }
  for (Variable *G : modifiedGlobals(Callee))
    Kills.insert(G);
  return {Kills.begin(), Kills.end()};
}

ModRefInfo ModRefInfo::worstCase(const Module &M) {
  ModRefInfo Info;
  Info.WorstCase = true;
  for (Variable *G : M.globals())
    if (G->isScalar())
      Info.AllScalarGlobals.insert(G);
  return Info;
}

ModRefInfo ModRefInfo::compute(const Module &M, const CallGraph &CG) {
  ModRefInfo Info;
  ScopedTraceSpan ComputeSpan("modref");

  // Direct (local) effects first.
  size_t NumProcs = M.procedures().size();
  Info.FormalMod.resize(NumProcs);
  Info.GlobalMod.resize(NumProcs);
  Info.ExtGlobals.resize(NumProcs);
  for (const std::unique_ptr<Procedure> &P : M.procedures()) {
    std::vector<bool> &Mods = Info.FormalMod[P->getModuleIndex()];
    Mods.assign(P->getNumFormals(), false);
    VariableSet &GMod = Info.GlobalMod[P->getModuleIndex()];
    VariableSet &Ext = Info.ExtGlobals[P->getModuleIndex()];
    for (BasicBlock *BB : P->blocks()) {
      for (Instruction *Inst : BB->instructions()) {
        if (const auto *Store = dyn_cast<StoreInst>(Inst)) {
          Variable *Var = Store->getVariable();
          if (Var->isFormal())
            Mods[Var->getFormalIndex()] = true;
          else if (Var->isGlobal()) {
            GMod.insert(Var);
            Ext.insert(Var);
          }
        } else if (const auto *Load = dyn_cast<LoadInst>(Inst)) {
          if (Load->getVariable()->isGlobal())
            Ext.insert(Load->getVariable());
        }
      }
    }
  }

  // Propagate effects from callees to callers to fixpoint. Seeding
  // callees first reaches the same least fixpoint as any order, and on an
  // acyclic call graph every caller is still pending when its callees
  // settle, so each procedure is visited once.
  IndexWorklist Work;
  Work.reserve(NumProcs);
  for (const std::vector<Procedure *> &SCC : CG.sccsBottomUp())
    for (Procedure *P : SCC)
      Work.insert(P->getModuleIndex());

  while (!Work.empty()) {
    Procedure *P = M.procedures()[Work.pop()].get();
    bool Changed = false;
    std::vector<bool> &Mods = Info.FormalMod[P->getModuleIndex()];
    VariableSet &GMod = Info.GlobalMod[P->getModuleIndex()];
    VariableSet &Ext = Info.ExtGlobals[P->getModuleIndex()];

    for (const CallInst *Call : CG.callSitesIn(P)) {
      const Procedure *Q = Call->getCallee();
      // Bind callee formal side effects to caller locations.
      const std::vector<bool> &CalleeMods =
          Info.FormalMod[Q->getModuleIndex()];
      for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
        if (I >= CalleeMods.size() || !CalleeMods[I])
          continue;
        Variable *Loc = Call->getActual(I).ByRefLoc;
        if (!Loc)
          continue;
        if (Loc->isFormal() && !Mods[Loc->getFormalIndex()]) {
          Mods[Loc->getFormalIndex()] = true;
          Changed = true;
        } else if (Loc->isGlobal() && GMod.insert(Loc).second) {
          Ext.insert(Loc);
          Changed = true;
        }
      }
      // Globals are shared: callee effects apply directly.
      for (Variable *G : Info.GlobalMod[Q->getModuleIndex()])
        if (GMod.insert(G).second) {
          Ext.insert(G);
          Changed = true;
        }
      for (Variable *G : Info.ExtGlobals[Q->getModuleIndex()])
        if (Ext.insert(G).second)
          Changed = true;
    }

    if (Changed)
      for (Procedure *Caller : CG.callers(P))
        Work.insert(Caller->getModuleIndex());
  }

  return Info;
}
