//===- core/ReturnJumpFunctions.cpp ---------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ReturnJumpFunctions.h"

#include "support/Trace.h"

#include "core/ValueNumbering.h"

using namespace ipcp;

const JumpFunction *ReturnJumpFunctions::find(const Procedure *P,
                                              const Variable *Var) const {
  auto ProcIt = Table.find(P);
  if (ProcIt == Table.end())
    return nullptr;
  auto VarIt = ProcIt->second.find(Var);
  return VarIt == ProcIt->second.end() ? nullptr : &VarIt->second;
}

const JumpFunction *
ReturnJumpFunctions::forCallOut(const CallOutInst *Out) const {
  const CallInst *Call = Out->getCall();
  const Procedure *Callee = Call->getCallee();
  const Variable *Var = Out->getVariable();
  const JumpFunction *RJF = nullptr;
  unsigned Sources = 0;
  for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I)
    if (Call->getActual(I).ByRefLoc == Var)
      if (const JumpFunction *JF = find(Callee, Callee->formals()[I])) {
        RJF = JF;
        ++Sources;
      }
  if (Var->isGlobal())
    if (const JumpFunction *JF = find(Callee, Var)) {
      RJF = JF;
      ++Sources;
    }
  return Sources == 1 && !RJF->isBottom() ? RJF : nullptr;
}

unsigned ReturnJumpFunctions::knownCount() const {
  unsigned Count = 0;
  for (const auto &[P, Vars] : Table)
    for (const auto &[Var, JF] : Vars)
      if (!JF.isBottom())
        ++Count;
  return Count;
}

unsigned ReturnJumpFunctions::entryCount() const {
  unsigned Count = 0;
  for (const auto &[P, Vars] : Table)
    Count += Vars.size();
  return Count;
}

void ReturnJumpFunctions::seedBottoms(Procedure *P, const ModRefInfo &MRI) {
  auto &Entries = Table[P];
  for (unsigned I = 0, E = P->getNumFormals(); I != E; ++I)
    if (MRI.formalMayBeModified(P, I))
      Entries.emplace(P->formals()[I], JumpFunction::bottom());
  for (Variable *G : MRI.modifiedGlobals(P))
    Entries.emplace(G, JumpFunction::bottom());
}

void ReturnJumpFunctions::liftProcedure(Procedure *P, const SSAResult &ProcSSA,
                                        SymExprContext &Ctx,
                                        bool UseGatedSSA) {
  traceEvent("return-jf.proc", P->getName());
  auto &Entries = Table[P];
  if (Entries.empty())
    return;
  if (ProcSSA.ExitValues.empty())
    return; // never returns: bottoms stay (never consulted anyway)

  SymbolicLifter Lifter(Ctx, ProcSSA, this, CallOutMode::Symbolic,
                        UseGatedSSA);
  // A variable not promoted here (e.g. an untouched global) stays bottom.
  for (auto &[Var, JF] : Entries)
    if (Value *AtExit = ProcSSA.exitValue(Var))
      JF = JumpFunction(Lifter.lift(AtExit));
}
