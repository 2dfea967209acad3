//===- analysis/AliasCheck.cpp --------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasCheck.h"

using namespace ipcp;

std::vector<Diagnostic> ipcp::checkAliasHazards(const Module &M,
                                                const CallGraph &CG,
                                                const ModRefInfo &MRI) {
  std::vector<Diagnostic> Warnings;
  auto Warn = [&](SourceLoc Loc, std::string Message) {
    Warnings.push_back({DiagKind::Warning, Loc, std::move(Message)});
  };

  for (const std::unique_ptr<Procedure> &Proc : M.procedures()) {
    Procedure *P = Proc.get();
    for (const CallInst *Call : CG.callSitesIn(P)) {
      const Procedure *Callee = Call->getCallee();

      // Hazard 1: one variable bound to two formals, either modifiable.
      for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
        Variable *LocI = Call->getActual(I).ByRefLoc;
        if (!LocI)
          continue;
        for (unsigned J = I + 1; J != E; ++J) {
          if (Call->getActual(J).ByRefLoc != LocI)
            continue;
          if (MRI.formalMayBeModified(Callee, I) ||
              MRI.formalMayBeModified(Callee, J))
            Warn(Call->getLoc(),
                 "variable '" + std::string(LocI->getName()) +
                     "' is passed twice to '" + std::string(Callee->getName()) +
                     "' and a bound parameter may be modified; the "
                     "analysis assumes Fortran's no-alias rule");
        }
      }

      // Hazard 2: a global bound to a formal while the callee also
      // touches the global directly (transitively).
      for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
        Variable *Loc = Call->getActual(I).ByRefLoc;
        if (!Loc || !Loc->isGlobal())
          continue;
        bool FormalMod = MRI.formalMayBeModified(Callee, I);
        bool GlobalTouched = MRI.extendedGlobals(Callee).count(Loc) != 0;
        bool GlobalMod = MRI.modifiedGlobals(Callee).count(Loc) != 0;
        if ((FormalMod && GlobalTouched) || GlobalMod)
          Warn(Call->getLoc(),
               "global '" + std::string(Loc->getName()) +
                   "' is passed by reference to '" +
                   std::string(Callee->getName()) +
                   "' which also accesses it directly; the analysis "
                   "assumes Fortran's no-alias rule");
      }
    }
  }
  return Warnings;
}

std::vector<Diagnostic> ipcp::checkAliasHazards(const Module &M) {
  CallGraph CG(M);
  ModRefInfo MRI = ModRefInfo::compute(M, CG);
  return checkAliasHazards(M, CG, MRI);
}
