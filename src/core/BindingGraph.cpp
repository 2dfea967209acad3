//===- core/BindingGraph.cpp ----------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/BindingGraph.h"

#include "support/Trace.h"
#include "support/Worklist.h"

using namespace ipcp;

namespace {

/// One jump-function edge bundle: evaluate JF in the caller's environment
/// and meet the result into the target slot. Stored structure-of-arrays
/// friendly: both endpoints are pre-resolved dense indices, so the solver
/// loop never touches a hash map.
struct BindingEdge {
  uint32_t CallerPI;   ///< CallGraph::procIndex of the caller
  uint32_t TargetSlot; ///< layout slot of (callee, variable)
  const JumpFunction *JF;
};

/// The binding multigraph solver. Every (procedure, extended formal) pair
/// is one slot of the shared ValLayout. VAL is one flat vector over those
/// slots, the dependency index is a CSR adjacency from slots to edge
/// indices, and the worklist is an IndexWorklist over slots — the same
/// iteration order as the map-and-deque formulation this replaces, so the
/// work counters are unchanged.
class BindingGraphSolver {
public:
  BindingGraphSolver(const CallGraph &CG, const ModRefInfo &MRI,
                     const ForwardJumpFunctions &FJFs, PropagatorStats *Stats,
                     ResourceGuard *Guard)
      : CG(CG), FJFs(FJFs), Stats(Stats), Guard(Guard), Layout(CG, MRI) {}

  ConstantsMap solve();

private:
  void buildEdges();

  /// Meets NewVal into a slot; enqueues it when it lowered.
  void lower(uint32_t Slot, LatticeValue NewVal);
  /// Counts a lowering of \p Slot and enqueues it.
  void lowered(uint32_t Slot);
  void evaluateEdge(const BindingEdge &Edge);

  const CallGraph &CG;
  const ForwardJumpFunctions &FJFs;
  PropagatorStats *Stats;
  ResourceGuard *Guard;

  ValLayout Layout;
  std::vector<LatticeValue> VAL; ///< by slot

  std::vector<BindingEdge> Edges;
  /// CSR dependency index: edges to re-evaluate when slot s lowers live
  /// in DepList[DepOffsets[s] .. DepOffsets[s+1]), in edge order.
  std::vector<uint32_t> DepOffsets;
  std::vector<uint32_t> DepList;

  IndexWorklist Work; ///< of slots
};

} // namespace

void BindingGraphSolver::lower(uint32_t Slot, LatticeValue NewVal) {
  LatticeValue Old = VAL[Slot];
  LatticeValue Met = meet(Old, NewVal);
  if (Met == Old)
    return;
  VAL[Slot] = Met;
  lowered(Slot);
}

void BindingGraphSolver::lowered(uint32_t Slot) {
  if (Stats)
    ++Stats->Lowerings;
  Work.insert(Slot);
}

void BindingGraphSolver::evaluateEdge(const BindingEdge &Edge) {
  if (Stats)
    ++Stats->JumpFunctionEvaluations;
  if (Guard)
    Guard->noteEvaluations();
  uint32_t PI = Edge.CallerPI;
  auto Lookup = [this, PI](Variable *Var) {
    uint32_t Slot = Layout.slot(PI, Var);
    return Slot == ~0u ? LatticeValue::top() : VAL[Slot];
  };
  lower(Edge.TargetSlot, Edge.JF->evaluateVia(Lookup));
}

void BindingGraphSolver::buildEdges() {
  // Pass 1: materialize the edges with resolved endpoints, counting each
  // support slot's out-degree; pass 2: fill the CSR list in edge order
  // (the re-evaluation order of the old per-pair vectors).
  uint32_t TotalSlots = Layout.size();
  DepOffsets.assign(TotalSlots + 1, 0);
  for (Procedure *P : CG.procedures()) {
    uint32_t PI = CG.procIndex(P);
    for (CallInst *Site : CG.callSitesIn(P)) {
      const CallSiteJumpFunctions &JFs = FJFs.at(Site);
      uint32_t QI = CG.procIndex(Site->getCallee());
      assert(JFs.Formals.size() + JFs.Globals.size() == Layout.width(QI) &&
             "jump functions out of step with the callee's row");
      // The k-th jump function targets slot k of the callee's row.
      uint32_t Target = Layout.base(QI);
      auto AddEdge = [&](const JumpFunction &JF) {
        Edges.push_back({PI, Target++, &JF});
        for (Variable *SupportVar : JF.support()) {
          uint32_t Slot = Layout.slot(PI, SupportVar);
          assert(Slot != ~0u && "support var outside caller numbering");
          ++DepOffsets[Slot + 1];
        }
      };
      for (const JumpFunction &JF : JFs.Formals)
        AddEdge(JF);
      for (const auto &[G, JF] : JFs.Globals)
        AddEdge(JF);
    }
  }
  for (uint32_t S = 0; S != TotalSlots; ++S)
    DepOffsets[S + 1] += DepOffsets[S];
  DepList.resize(DepOffsets[TotalSlots]);
  std::vector<uint32_t> Cursor(DepOffsets.begin(), DepOffsets.end() - 1);
  for (uint32_t E = 0, N = uint32_t(Edges.size()); E != N; ++E)
    for (Variable *SupportVar : Edges[E].JF->support())
      DepList[Cursor[Layout.slot(Edges[E].CallerPI, SupportVar)]++] = E;
}

ConstantsMap BindingGraphSolver::solve() {
  VAL = Layout.initialVal();
  Work.reserve(Layout.size());
  buildEdges();

  // The virtual entry edge lowered the slots it set; queue them like any
  // other lowering.
  for (uint32_t Slot = 0; Slot != Layout.size(); ++Slot)
    if (!VAL[Slot].isTop())
      lowered(Slot);

  // Seed every edge once (this covers the support-free constant and
  // bottom jump functions; support-carrying ones evaluate to top now and
  // are revisited through the dependency index).
  for (const BindingEdge &Edge : Edges) {
    if (Guard && Guard->tripped())
      break;
    evaluateEdge(Edge);
  }

  while (!Work.empty() && !(Guard && Guard->tripped())) {
    uint32_t Slot = Work.pop();
    if (Stats)
      ++Stats->ProcVisits; // here: pair visits
    for (uint32_t D = DepOffsets[Slot], E = DepOffsets[Slot + 1]; D != E;
         ++D)
      evaluateEdge(Edges[DepList[D]]);
  }

  // A budget-interrupted iteration is above the fixpoint (too
  // optimistic); the empty map is the sound degraded answer.
  if (Guard && Guard->tripped())
    return ConstantsMap();

  return ConstantsMap(std::move(Layout), std::move(VAL));
}

ConstantsMap ipcp::propagateConstantsBindingGraph(
    const CallGraph &CG, const ModRefInfo &MRI,
    const ForwardJumpFunctions &FJFs, PropagatorStats *Stats,
    ResourceGuard *Guard) {
  ScopedTraceSpan PropSpan("propagate", "binding-multigraph");
  BindingGraphSolver Solver(CG, MRI, FJFs, Stats, Guard);
  return Solver.solve();
}
