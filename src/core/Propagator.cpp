//===- core/Propagator.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Propagator.h"

#include "frontend/Sema.h"
#include "support/Trace.h"
#include "support/Worklist.h"

#include <algorithm>

using namespace ipcp;

ValLayout::ValLayout(const CallGraph &CG, const ModRefInfo &MRI) {
  size_t N = CG.procedures().size();
  Procs.reserve(N);
  Base.reserve(N + 1);
  FirstGlobal.reserve(N);
  for (Procedure *P : CG.procedures()) {
    assert(CG.procIndex(P) == rows() && "rows follow the module order");
    if (Entry == ~0u && P->getName() == EntryProcedureName)
      Entry = rows();
    Procs.push_back(P);
    Base.push_back(size());
    Vars.insert(Vars.end(), P->formals().begin(), P->formals().end());
    FirstGlobal.push_back(size());
    const VariableSet &Ext = MRI.extendedGlobals(P);
    Vars.insert(Vars.end(), Ext.begin(), Ext.end()); // ID-ordered
  }
  Base.push_back(size());
}

uint32_t ValLayout::slot(unsigned PI, const Variable *Var) const {
  if (Var->isFormal()) {
    uint32_t S = Base[PI] + Var->getFormalIndex();
    return S < FirstGlobal[PI] && Vars[S] == Var ? S : ~0u;
  }
  auto First = Vars.begin() + FirstGlobal[PI];
  auto Last = Vars.begin() + Base[PI + 1];
  auto It = std::lower_bound(First, Last, Var,
                             [](const Variable *A, const Variable *B) {
                               return A->getId() < B->getId();
                             });
  return It != Last && *It == Var ? uint32_t(It - Vars.begin()) : ~0u;
}

std::vector<LatticeValue> ValLayout::initialVal() const {
  std::vector<LatticeValue> Val(size(), LatticeValue::top());
  if (Entry != ~0u)
    std::fill(Val.begin() + FirstGlobal[Entry], Val.begin() + Base[Entry + 1],
              LatticeValue::constant(0));
  return Val;
}

ConstantsMap::ConstantsMap(ValLayout Layout, std::vector<LatticeValue> Vals)
    : Layout(std::move(Layout)), Vals(std::move(Vals)) {
  assert(this->Vals.size() == this->Layout.size() &&
         "one value per layout slot");
}

unsigned ConstantsMap::rowOf(const Procedure *P) const {
  unsigned PI = P->getModuleIndex();
  return PI < Layout.rows() && Layout.procedure(PI) == P ? PI : ~0u;
}

LatticeValue ConstantsMap::valueOf(const Procedure *P,
                                   const Variable *Var) const {
  unsigned PI = rowOf(P);
  uint32_t Slot = PI == ~0u ? ~0u : Layout.slot(PI, Var);
  return Slot == ~0u ? LatticeValue::top() : Vals[Slot];
}

ConstantsMap::Row ConstantsMap::row(const Procedure *P) const {
  unsigned PI = rowOf(P);
  if (PI == ~0u)
    return {};
  return {Layout.vars(PI),
          std::span<const LatticeValue>(Vals).subspan(Layout.base(PI),
                                                      Layout.width(PI))};
}

std::vector<std::pair<Variable *, ConstantValue>>
ConstantsMap::constantsOf(const Procedure *P) const {
  std::vector<std::pair<Variable *, ConstantValue>> Out;
  Row R = row(P);
  for (size_t I = 0, E = R.Vars.size(); I != E; ++I)
    if (R.Vals[I].isConstant())
      Out.push_back({R.Vars[I], R.Vals[I].getConstant()});
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    return A.first->getId() < B.first->getId();
  });
  return Out;
}

bool ConstantsMap::equals(const ConstantsMap &Other) const {
  // Compare as partial maps with top default: every non-top entry on
  // either side must match the other side's view.
  auto Covers = [](const ConstantsMap &A, const ConstantsMap &B) {
    for (unsigned PI = 0; PI != A.Layout.rows(); ++PI) {
      const Procedure *P = A.Layout.procedure(PI);
      Row R = A.row(P);
      for (size_t I = 0, E = R.Vars.size(); I != E; ++I)
        if (!R.Vals[I].isTop() && B.valueOf(P, R.Vars[I]) != R.Vals[I])
          return false;
    }
    return true;
  };
  return Covers(*this, Other) && Covers(Other, *this);
}

unsigned ConstantsMap::totalConstants() const {
  return unsigned(std::count_if(Vals.begin(), Vals.end(), [](LatticeValue V) {
    return V.isConstant();
  }));
}

unsigned ConstantsMap::totalEntries() const {
  return unsigned(std::count_if(Vals.begin(), Vals.end(),
                                [](LatticeValue V) { return !V.isTop(); }));
}

namespace ipcp {

/// The worklist solver: VAL is one flat vector over the shared layout.
class Propagator {
public:
  Propagator(const CallGraph &CG, const ModRefInfo &MRI,
             const ForwardJumpFunctions &FJFs, PropagatorStats *Stats,
             ResourceGuard *Guard, const IncrementalPropagationPlan *Plan)
      : CG(CG), FJFs(FJFs), Stats(Stats), Guard(Guard), Plan(Plan),
        Layout(Plan ? Plan->Layout : ValLayout(CG, MRI)) {}

  /// Solves over the FIFO schedule when \p FIFO, else the SCC sweep.
  ConstantsMap solve(bool FIFO) {
    size_t N = CG.procedures().size();
    SCCOf.resize(N);
    for (Procedure *P : CG.procedures())
      SCCOf[CG.procIndex(P)] = CG.sccIndex(P);
    Visited.assign(N, false);
    VAL = Layout.initialVal();
    preloadAdopted();
    if (FIFO)
      solveFIFO();
    else
      solveSCC();
    // A budget-interrupted iteration is above the fixpoint, i.e. too
    // optimistic; the empty (no-constants) map is the sound fallback.
    if (Guard && Guard->tripped())
      return ConstantsMap();
    return ConstantsMap(std::move(Layout), std::move(VAL));
  }

private:
  /// Installs the cached fixpoint VAL of every adopted procedure. Runs
  /// after the entry edge so the cached values (which already absorbed
  /// it when they were computed) win.
  void preloadAdopted() {
    if (!Plan)
      return;
    const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
    for (size_t C = 0; C != SCCs.size(); ++C) {
      if (!Plan->adopted(C))
        continue;
      for (Procedure *P : SCCs[C]) {
        unsigned PI = CG.procIndex(P);
        for (uint32_t S = Layout.base(PI), E = S + Layout.width(PI); S != E;
             ++S)
          if (!Plan->CachedVal[S].isTop())
            VAL[S] = Plan->CachedVal[S];
      }
    }
  }

  /// Meets \p NewVal into VAL[Slot]; true when it lowered.
  bool lower(uint32_t Slot, LatticeValue NewVal) {
    if (Stats)
      ++Stats->JumpFunctionEvaluations;
    if (Guard)
      Guard->noteEvaluations();
    LatticeValue Old = VAL[Slot];
    LatticeValue Met = meet(Old, NewVal);
    if (Met == Old)
      return false;
    assert(Met.strictlyBelow(Old) && "meet must move down the lattice");
    VAL[Slot] = Met;
    if (Stats)
      ++Stats->Lowerings;
    return true;
  }

  /// Evaluates every jump function out of procedure \p PI and meets the
  /// results into its callees, reporting each lowered callee index.
  template <typename OnLowered>
  void visit(unsigned PI, const OnLowered &Lowered) {
    if (Stats) {
      ++Stats->ProcVisits;
      if (Visited[PI])
        ++Stats->Revisits;
    }
    Visited[PI] = true;
    Procedure *P = CG.procedures()[PI];
    auto Lookup = [this, PI](Variable *Var) {
      uint32_t Slot = Layout.slot(PI, Var);
      return Slot == ~0u ? LatticeValue::top() : VAL[Slot];
    };

    for (CallInst *Site : CG.callSitesIn(P)) {
      unsigned QI = CG.procIndex(Site->getCallee());
      // An adopted component's VAL is its cached fixpoint, which already
      // includes this edge's contribution (the adoption closure proves
      // the caller is unchanged too) — skipping it is where warm runs
      // save their jump-function evaluations.
      if (Plan && Plan->adopted(SCCOf[QI]))
        continue;
      const CallSiteJumpFunctions &JFs = FJFs.at(Site);
      assert(JFs.Formals.size() + JFs.Globals.size() == Layout.width(QI) &&
             "jump functions out of step with the callee's row");
      // The k-th jump function targets slot k of the callee's row.
      uint32_t Slot = Layout.base(QI);
      for (const JumpFunction &JF : JFs.Formals)
        if (lower(Slot++, JF.evaluateVia(Lookup)))
          Lowered(QI);
      for (const auto &[G, JF] : JFs.Globals)
        if (lower(Slot++, JF.evaluateVia(Lookup)))
          Lowered(QI);
    }
  }

  /// The naive baseline: every procedure starts pending, lowering a
  /// callee re-queues it, FIFO order.
  void solveFIFO() {
    size_t N = CG.procedures().size();
    IndexWorklist Work;
    Work.reserve(N);
    for (unsigned PI = 0; PI != N; ++PI)
      Work.insert(PI);
    while (!Work.empty() && !budgetTripped())
      visit(Work.pop(), [&Work](unsigned QI) { Work.insert(QI); });
  }

  /// Reverse post-order sweep of the SCC condensation. Tarjan emits
  /// components callee-first, so iterating sccsBottomUp() backwards walks
  /// callers before callees and every cross-component edge lowers into a
  /// component the sweep has not reached yet — one sweep suffices. Only
  /// cyclic components need an inner fixpoint loop.
  void solveSCC() {
    const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
    IndexWorklist Inner;
    Inner.reserve(CG.procedures().size());
    for (size_t C = SCCs.size(); C-- != 0;) {
      if (budgetTripped())
        return;
      const std::vector<Procedure *> &Members = SCCs[C];
      if (Plan && Plan->adopted(C)) {
        // Preloaded cached fixpoint: already converged, so one filtered
        // visit per member pushes contributions into dirty callees;
        // intra-component edges target this adopted component and are
        // skipped inside visit().
        for (Procedure *P : Members)
          visit(CG.procIndex(P), [](unsigned) {});
        continue;
      }
      if (Members.size() == 1 && !CG.isRecursive(Members[0])) {
        // No edge can return here: a single visit converges.
        visit(CG.procIndex(Members[0]), [](unsigned) {});
        continue;
      }
      Inner.clear();
      for (Procedure *P : Members)
        Inner.insert(CG.procIndex(P));
      while (!Inner.empty() && !budgetTripped())
        visit(Inner.pop(), [this, C, &Inner](unsigned QI) {
          if (SCCOf[QI] == C)
            Inner.insert(QI);
        });
    }
  }

  bool budgetTripped() const { return Guard && Guard->tripped(); }

  const CallGraph &CG;
  const ForwardJumpFunctions &FJFs;
  PropagatorStats *Stats;
  ResourceGuard *Guard;
  const IncrementalPropagationPlan *Plan;

  ValLayout Layout;
  std::vector<LatticeValue> VAL; ///< by slot
  std::vector<size_t> SCCOf;
  std::vector<bool> Visited;
};

} // namespace ipcp

ConstantsMap ipcp::propagateConstants(const CallGraph &CG,
                                      const ModRefInfo &MRI,
                                      const ForwardJumpFunctions &FJFs,
                                      PropagatorStats *Stats,
                                      ResourceGuard *Guard,
                                      const IncrementalPropagationPlan *Plan) {
  ScopedTraceSpan PropSpan("propagate", "callgraph-scc");
  Propagator Solver(CG, MRI, FJFs, Stats, Guard, Plan);
  return Solver.solve(/*FIFO=*/false);
}

ConstantsMap ipcp::propagateConstantsFIFO(const CallGraph &CG,
                                          const ModRefInfo &MRI,
                                          const ForwardJumpFunctions &FJFs,
                                          PropagatorStats *Stats) {
  ScopedTraceSpan PropSpan("propagate", "callgraph-fifo");
  Propagator Solver(CG, MRI, FJFs, Stats, nullptr, nullptr);
  return Solver.solve(/*FIFO=*/true);
}
