//===- core/ValueContexts.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ValueContexts.h"

#include "support/StableHash.h"
#include "support/Trace.h"
#include "support/Worklist.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace ipcp;

namespace {

/// The context-tabulation solver. Contexts live in SoA tables (proc
/// index, flat entry-slot spans into one value vector) with an
/// IndexWorklist of context ids. An entry vector is one row of the
/// baseline's ValLayout, so the baseline's rows align slot for slot with
/// ours.
class ContextSolver {
public:
  ContextSolver(const CallGraph &CG, const ModRefInfo &MRI,
                const ForwardJumpFunctions &FJFs, const IPCPOptions &Opts,
                PropagatorStats *Stats, ResourceGuard *Guard,
                ContextEngineStats *CtxStats)
      : CG(CG), MRI(MRI), FJFs(FJFs), Opts(Opts), Stats(Stats), Guard(Guard),
        CtxStats(CtxStats) {}

  ConstantsMap solve() {
    // The baseline 1986 run: the refinement target, the precision yard-
    // stick for the study, the sound fallback when a budget trips
    // mid-tabulation, and the layout the tabulation numbers entry
    // vectors by. Its evaluations share this run's guard budget; its
    // work counters stay out of PropagatorStats (those describe the
    // contexts engine).
    Base = propagateConstants(CG, MRI, FJFs, nullptr, Guard);
    if (CtxStats) {
      CtxStats->Enabled = true;
      CtxStats->BaselineValConstants = Base.totalConstants();
    }
    if (tripped())
      return std::move(Base); // empty: the baseline itself was cut short.

    SummaryOf.assign(Base.layout().rows(), -1);
    seedRoot();
    runWorklist();
    publishStats();
    if (tripped()) {
      // An interrupted tabulation is missing meet contributions — too
      // optimistic — so degrade to the completed baseline.
      if (CtxStats)
        CtxStats->ValConstants = Base.totalConstants();
      return std::move(Base);
    }
    return refine();
  }

private:
  /// Slots in procedure \p PI's entry vectors.
  unsigned width(unsigned PI) const { return Base.layout().width(PI); }

  bool tripped() const { return Guard && Guard->tripped(); }

  /// StableHash of (proc, tagged slot values): the memo key for exact
  /// entry vectors.
  static uint64_t hashVector(unsigned PI, const LatticeValue *V, unsigned N) {
    StableHasher H;
    H.u64(PI);
    for (unsigned I = 0; I != N; ++I) {
      if (V[I].isTop()) {
        H.u64(0);
      } else if (V[I].isBottom()) {
        H.u64(2);
      } else {
        H.u64(1);
        H.i64(V[I].getConstant());
      }
    }
    return H.result();
  }

  bool sameVector(uint32_t C, unsigned PI, const LatticeValue *V,
                  unsigned N) const {
    if (CtxProc[C] != PI || CtxIsSummary[C])
      return false;
    const LatticeValue *U = Entries.data() + CtxBase[C];
    for (unsigned I = 0; I != N; ++I)
      if (U[I] != V[I])
        return false;
    return true;
  }

  /// Appends a context row (proc, entry vector) and queues it.
  uint32_t createContext(unsigned PI, const LatticeValue *V, unsigned N,
                         bool Summary) {
    uint32_t C = uint32_t(CtxProc.size());
    CtxProc.push_back(PI);
    CtxBase.push_back(Entries.size());
    CtxIsSummary.push_back(Summary ? 1 : 0);
    Entries.insert(Entries.end(), V, V + N);
    // The key set grows with the contexts: reserve it geometrically.
    if (C == Reserved) {
      Reserved = std::max<size_t>(64, 2 * Reserved);
      Work.reserve(Reserved);
    }
    Work.insert(C);
    return C;
  }

  /// Routes one derived entry vector: reuse an identical tabulated
  /// context, spawn a fresh one while the budget lasts, else meet into
  /// the target procedure's summary context.
  void dispatch(unsigned QI, const LatticeValue *V) {
    unsigned N = width(QI);
    uint64_t H = hashVector(QI, V, N);
    auto It = Memo.find(H);
    if (It != Memo.end())
      for (uint32_t C : It->second)
        if (sameVector(C, QI, V, N)) {
          ++Reused;
          return;
        }
    if (CtxProc.size() < Opts.MaxContexts) {
      uint32_t C = createContext(QI, V, N, /*Summary=*/false);
      Memo[H].push_back(C);
      return;
    }
    // Budget exhausted: degrade this procedure toward caller-merging.
    BudgetTripped = true;
    ++Merges;
    int32_t S = SummaryOf[QI];
    if (S < 0) {
      SummaryOf[QI] = int32_t(createContext(QI, V, N, /*Summary=*/true));
      ++SummaryContexts;
      return;
    }
    bool Lowered = false;
    LatticeValue *U = Entries.data() + CtxBase[size_t(S)];
    for (unsigned I = 0; I != N; ++I) {
      LatticeValue Met = meet(U[I], V[I]);
      if (Met != U[I]) {
        assert(Met.strictlyBelow(U[I]) && "meet must move down the lattice");
        U[I] = Met;
        Lowered = true;
        if (Stats)
          ++Stats->Lowerings;
      }
    }
    if (Lowered)
      Work.insert(uint32_t(S));
  }

  /// The virtual entry edge: one context for the entry procedure, on its
  /// row of the layout's initial VAL.
  void seedRoot() {
    const ValLayout &L = Base.layout();
    unsigned E = L.entryRow();
    if (E == ~0u)
      return;
    std::vector<LatticeValue> Init = L.initialVal();
    dispatch(E, Init.data() + L.base(E));
  }

  /// Evaluates every jump function out of context \p C on its exact
  /// entry vector, dispatching each derived callee vector.
  void processContext(uint32_t C) {
    unsigned PI = CtxProc[C];
    if (Stats) {
      ++Stats->ProcVisits;
      if (CtxIsSummary[C] && VisitedSummary.count(C))
        ++Stats->Revisits;
    }
    if (CtxIsSummary[C])
      VisitedSummary.insert(C);

    // Snapshot: Entries may reallocate while callee contexts are created,
    // and a self-recursive merge may lower a summary mid-visit (the
    // requeue re-processes the lowered vector).
    const ValLayout &L = Base.layout();
    std::vector<LatticeValue> U(Entries.begin() + CtxBase[C],
                                Entries.begin() + CtxBase[C] + width(PI));
    auto Lookup = [&U, &L, PI](Variable *Var) {
      uint32_t Slot = L.slot(PI, Var);
      return Slot == ~0u ? LatticeValue::top() : U[Slot - L.base(PI)];
    };

    for (CallInst *Site : CG.callSitesIn(CG.procedures()[PI])) {
      if (tripped())
        return;
      unsigned QI = CG.procIndex(Site->getCallee());
      const CallSiteJumpFunctions &JFs = FJFs.at(Site);
      // The k-th jump function sets slot k of the callee's entry vector.
      std::vector<LatticeValue> V;
      V.reserve(width(QI));
      auto Evaluate = [&](const JumpFunction &JF) {
        V.push_back(JF.evaluateVia(Lookup));
        noteEvaluation();
      };
      for (const JumpFunction &JF : JFs.Formals)
        Evaluate(JF);
      for (const auto &[G, JF] : JFs.Globals)
        Evaluate(JF);
      assert(V.size() == width(QI) &&
             "jump functions out of step with the callee's row");
      dispatch(QI, V.data());
    }
  }

  void noteEvaluation() {
    ++Evaluations;
    if (Stats)
      ++Stats->JumpFunctionEvaluations;
    if (Guard)
      Guard->noteEvaluations();
  }

  void runWorklist() {
    while (!Work.empty() && !tripped())
      processContext(Work.pop());
  }

  void publishStats() {
    if (!CtxStats)
      return;
    CtxStats->Contexts = CtxProc.size();
    CtxStats->SummaryContexts = SummaryContexts;
    CtxStats->Evaluations = Evaluations;
    CtxStats->Reused = Reused;
    CtxStats->Merges = Merges;
    CtxStats->EntryBytes = Entries.size() * sizeof(LatticeValue);
    CtxStats->BudgetTripped = BudgetTripped;
  }

  /// Meets each procedure's tabulated contexts and refines top slots from
  /// the baseline (adopting its sound conclusion wherever the tabulation
  /// has no evidence — this is what makes the engine's CONSTANTS sets a
  /// superset of the jump engine's on every program).
  ConstantsMap refine() {
    const ValLayout &L = Base.layout();
    std::vector<LatticeValue> Final(L.size(), LatticeValue::top());
    for (uint32_t C = 0, E = uint32_t(CtxProc.size()); C != E; ++C) {
      unsigned PI = CtxProc[C];
      const LatticeValue *U = Entries.data() + CtxBase[C];
      LatticeValue *Row = Final.data() + L.base(PI);
      for (unsigned I = 0, W = width(PI); I != W; ++I)
        Row[I] = meet(Row[I], U[I]);
    }
    std::span<const LatticeValue> BaseVals = Base.values();
    for (uint32_t Slot = 0; Slot != L.size(); ++Slot)
      if (Final[Slot].isTop())
        Final[Slot] = BaseVals[Slot];
    ConstantsMap CM(L, std::move(Final));
    if (CtxStats)
      CtxStats->ValConstants = CM.totalConstants();
    return CM;
  }

  const CallGraph &CG;
  const ModRefInfo &MRI;
  const ForwardJumpFunctions &FJFs;
  const IPCPOptions &Opts;
  PropagatorStats *Stats;
  ResourceGuard *Guard;
  ContextEngineStats *CtxStats;

  ConstantsMap Base; ///< the baseline fixpoint, and its layout

  // Context tables (SoA): per-context proc index, span base into the
  // flat entry-value vector, summary flag.
  std::vector<uint32_t> CtxProc;
  std::vector<size_t> CtxBase;
  std::vector<char> CtxIsSummary;
  std::vector<LatticeValue> Entries;
  std::vector<int32_t> SummaryOf;
  std::unordered_map<uint64_t, std::vector<uint32_t>> Memo;
  std::unordered_set<uint32_t> VisitedSummary;

  IndexWorklist Work; ///< of context ids
  size_t Reserved = 0; ///< context ids Work has room for

  uint64_t Evaluations = 0;
  uint64_t Reused = 0;
  uint64_t Merges = 0;
  uint64_t SummaryContexts = 0;
  bool BudgetTripped = false;
};

} // namespace

ConstantsMap ipcp::propagateConstantsContexts(
    const CallGraph &CG, const ModRefInfo &MRI,
    const ForwardJumpFunctions &FJFs, const IPCPOptions &Opts,
    PropagatorStats *Stats, ResourceGuard *Guard,
    ContextEngineStats *CtxStats) {
  ScopedTraceSpan PropSpan("propagate", "value-contexts");
  ContextSolver Solver(CG, MRI, FJFs, Opts, Stats, Guard, CtxStats);
  return Solver.solve();
}
