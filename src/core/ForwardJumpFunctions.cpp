//===- core/ForwardJumpFunctions.cpp --------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ForwardJumpFunctions.h"

#include "support/Trace.h"

#include "core/ValueNumbering.h"
#include "support/Casting.h"

using namespace ipcp;

/// Applies the class restriction of Section 3.1 to a lifted expression.
static JumpFunction trim(JumpFunctionKind Kind, const SymExpr *E) {
  switch (Kind) {
  case JumpFunctionKind::Literal:
    // Handled separately (syntactic property, not a lift property).
    return JumpFunction::bottom();
  case JumpFunctionKind::IntraproceduralConstant:
    return (E && E->isConst()) ? JumpFunction(E) : JumpFunction::bottom();
  case JumpFunctionKind::PassThrough:
    return (E && (E->isConst() || E->isFormal())) ? JumpFunction(E)
                                                  : JumpFunction::bottom();
  case JumpFunctionKind::Polynomial:
    return JumpFunction(E);
  }
  return JumpFunction::bottom();
}

void ForwardJumpFunctions::buildProcedure(
    Procedure *P, const CallGraph &CG, const ModRefInfo &MRI,
    const SSAResult &ProcSSA, const ReturnJumpFunctions *RJFs,
    SymExprContext &Ctx, JumpFunctionKind Kind, bool UseGatedSSA) {
  traceEvent("forward-jf.proc", P->getName());

  // Section 3.2: the second evaluation of return jump functions, during
  // forward jump function generation, keeps only constant results.
  SymbolicLifter Lifter(Ctx, ProcSSA, RJFs, CallOutMode::ConstantOnly,
                        UseGatedSSA);

  for (CallInst *Site : CG.callSitesIn(P)) {
    CallSiteJumpFunctions JFs;
    JFs.Site = Site;
    JFs.Caller = P;
    Procedure *Callee = Site->getCallee();

    for (unsigned I = 0, E = Site->getNumActuals(); I != E; ++I) {
      if (Kind == JumpFunctionKind::Literal) {
        const CallActual &A = Site->getActual(I);
        if (A.WasLiteral) {
          auto *C = cast<ConstantInt>(Site->getActualValue(I));
          JFs.Formals.push_back(
              JumpFunction::constant(Ctx, C->getValue()));
        } else {
          JFs.Formals.push_back(JumpFunction::bottom());
        }
        continue;
      }
      JFs.Formals.push_back(
          trim(Kind, Lifter.lift(Site->getActualValue(I))));
    }

    // Globals are implicit parameters of the callee; the literal class
    // cannot see them at all.
    for (Variable *G : MRI.extendedGlobals(Callee)) {
      if (Kind == JumpFunctionKind::Literal) {
        JFs.Globals.push_back({G, JumpFunction::bottom()});
        continue;
      }
      Value *AtCall = ProcSSA.callIn(Site, G);
      const SymExpr *E = AtCall ? Lifter.lift(AtCall) : nullptr;
      JFs.Globals.push_back({G, trim(Kind, E)});
    }

    Sites.emplace(Site, std::move(JFs));
  }
}

const CallSiteJumpFunctions &
ForwardJumpFunctions::at(const CallInst *Site) const {
  auto It = Sites.find(Site);
  assert(It != Sites.end() && "no jump functions for this call site");
  return It->second;
}

ForwardJumpFunctions::Stats ForwardJumpFunctions::stats() const {
  Stats S;
  auto Classify = [&S](const JumpFunction &JF) {
    if (JF.isBottom())
      ++S.Bottom;
    else if (JF.isConstant())
      ++S.Constant;
    else if (JF.isPassThrough())
      ++S.PassThrough;
    else
      ++S.Polynomial;
  };
  for (const auto &[Site, JFs] : Sites) {
    for (const JumpFunction &JF : JFs.Formals)
      Classify(JF);
    for (const auto &[G, JF] : JFs.Globals)
      Classify(JF);
  }
  return S;
}
