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
  for (auto &[Var, JF] : Entries) {
    auto ExitIt = ProcSSA.ExitValues.find(const_cast<Variable *>(Var));
    if (ExitIt == ProcSSA.ExitValues.end())
      continue; // not promoted here (e.g. global untouched): bottom
    JF = JumpFunction(Lifter.lift(ExitIt->second));
  }
}
