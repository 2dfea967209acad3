//===- core/ValueContexts.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ValueContexts.h"

#include "support/Trace.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace ipcp;

namespace {

/// The context-tabulation solver. Contexts live in SoA tables (proc
/// index, flat entry-slot spans into one value vector) with a FIFO
/// worklist of context ids; the per-procedure slot numbering is identical
/// to the jump engine's (formals positionally, then extended globals in
/// ID order), so the baseline's rows align slot for slot with ours.
class ContextSolver {
public:
  ContextSolver(const CallGraph &CG, const ModRefInfo &MRI,
                const ForwardJumpFunctions &FJFs, const IPCPOptions &Opts,
                PropagatorStats *Stats, ResourceGuard *Guard,
                ContextEngineStats *CtxStats)
      : CG(CG), MRI(MRI), FJFs(FJFs), Opts(Opts), Stats(Stats), Guard(Guard),
        CtxStats(CtxStats) {}

  ConstantsMap solve() {
    numberSlots();

    // The baseline 1986 run: the refinement target, the precision yard-
    // stick for the study, and the sound fallback when a budget trips
    // mid-tabulation. Its evaluations share this run's guard budget; its
    // work counters stay out of PropagatorStats (those describe the
    // contexts engine).
    ConstantsMap Base =
        propagateConstants(CG, MRI, FJFs, Opts, nullptr, Guard, nullptr);
    if (CtxStats) {
      CtxStats->Enabled = true;
      CtxStats->BaselineValConstants = Base.totalConstants();
    }
    if (tripped())
      return Base; // empty: the baseline itself was cut short.

    seedRoot();
    runWorklist();
    publishStats();
    if (tripped()) {
      // An interrupted tabulation is missing meet contributions — too
      // optimistic — so degrade to the completed baseline.
      if (CtxStats)
        CtxStats->ValConstants = Base.totalConstants();
      return Base;
    }
    return package(Base);
  }

private:
  /// Slot layout of one procedure's extended formals (identical to the
  /// jump engine's numbering; see Propagator.cpp).
  struct ProcSlots {
    unsigned FormalCount = 0;
    std::vector<Variable *> Globals; ///< ID-ordered
  };

  static unsigned globalSlot(const ProcSlots &S, const Variable *G) {
    auto It = std::lower_bound(S.Globals.begin(), S.Globals.end(), G,
                               [](const Variable *A, const Variable *B) {
                                 return A->getId() < B->getId();
                               });
    if (It == S.Globals.end() || *It != G)
      return ~0u;
    return S.FormalCount + unsigned(It - S.Globals.begin());
  }

  void numberSlots() {
    size_t N = CG.procedures().size();
    Slots.resize(N);
    Width.resize(N);
    SummaryOf.assign(N, -1);
    for (Procedure *P : CG.procedures()) {
      unsigned PI = CG.procIndex(P);
      ProcSlots &S = Slots[PI];
      S.FormalCount = unsigned(P->formals().size());
      const VariableSet &Ext = MRI.extendedGlobals(P);
      S.Globals.assign(Ext.begin(), Ext.end()); // ID-ordered by VariableSet
      Width[PI] = S.FormalCount + unsigned(S.Globals.size());
    }
  }

  bool tripped() const { return Guard && Guard->tripped(); }

  /// FNV-1a over (proc, tagged slot values): the memo key for exact
  /// entry vectors.
  static uint64_t hashVector(unsigned PI, const LatticeValue *V, unsigned N) {
    uint64_t H = 1469598103934665603ull;
    auto Mix = [&H](uint64_t X) {
      for (unsigned B = 0; B != 8; ++B) {
        H ^= (X >> (B * 8)) & 0xff;
        H *= 1099511628211ull;
      }
    };
    Mix(PI);
    for (unsigned I = 0; I != N; ++I) {
      if (V[I].isTop()) {
        Mix(0);
      } else if (V[I].isBottom()) {
        Mix(2);
      } else {
        Mix(1);
        Mix(uint64_t(V[I].getConstant()));
      }
    }
    return H;
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
    CtxQueued.push_back(1);
    Entries.insert(Entries.end(), V, V + N);
    Queue.push_back(C);
    return C;
  }

  /// Routes one derived entry vector: reuse an identical tabulated
  /// context, spawn a fresh one while the budget lasts, else meet into
  /// the target procedure's summary context.
  void dispatch(unsigned QI, const std::vector<LatticeValue> &V) {
    unsigned N = Width[QI];
    uint64_t H = hashVector(QI, V.data(), N);
    auto It = Memo.find(H);
    if (It != Memo.end())
      for (uint32_t C : It->second)
        if (sameVector(C, QI, V.data(), N)) {
          ++Reused;
          return;
        }
    if (CtxProc.size() < Opts.MaxContexts) {
      uint32_t C = createContext(QI, V.data(), N, /*Summary=*/false);
      Memo[H].push_back(C);
      return;
    }
    // Budget exhausted: degrade this procedure toward caller-merging.
    BudgetTripped = true;
    ++Merges;
    int32_t S = SummaryOf[QI];
    if (S < 0) {
      SummaryOf[QI] = int32_t(createContext(QI, V.data(), N, /*Summary=*/true));
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
    if (Lowered && !CtxQueued[size_t(S)]) {
      CtxQueued[size_t(S)] = 1;
      Queue.push_back(uint32_t(S));
    }
  }

  /// The virtual entry edge, exactly as the jump engine seeds it: the
  /// entry procedure starts with top formals and zero-valued globals.
  void seedRoot() {
    for (Procedure *P : CG.procedures())
      if (P->getName() == Opts.EntryProcedure) {
        unsigned PI = CG.procIndex(P);
        const ProcSlots &S = Slots[PI];
        std::vector<LatticeValue> Root(Width[PI], LatticeValue::top());
        for (unsigned I = 0, E = unsigned(S.Globals.size()); I != E; ++I)
          Root[S.FormalCount + I] = LatticeValue::constant(0);
        dispatch(PI, Root);
        return;
      }
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
    std::vector<LatticeValue> U(Entries.begin() + CtxBase[C],
                                Entries.begin() + CtxBase[C] + Width[PI]);
    Procedure *P = CG.procedures()[PI];
    const ProcSlots &PS = Slots[PI];
    auto Lookup = [&U, &PS](Variable *Var) {
      if (Var->isFormal())
        return U[Var->getFormalIndex()];
      unsigned Slot = globalSlot(PS, Var);
      return Slot == ~0u ? LatticeValue::top() : U[Slot];
    };

    for (CallInst *Site : CG.callSitesIn(P)) {
      if (tripped())
        return;
      Procedure *Q = Site->getCallee();
      unsigned QI = CG.procIndex(Q);
      const CallSiteJumpFunctions &JFs = FJFs.at(Site);
      const ProcSlots &QS = Slots[QI];

      std::vector<LatticeValue> V(Width[QI], LatticeValue::top());
      for (unsigned I = 0,
                    E = std::min(unsigned(JFs.Formals.size()), Width[QI]);
           I != E; ++I) {
        V[I] = JFs.Formals[I].evaluateVia(Lookup);
        noteEvaluation();
      }
      for (const auto &[G, JF] : JFs.Globals) {
        unsigned Slot = globalSlot(QS, G);
        assert(Slot != ~0u &&
               "call-site global jump function outside callee numbering");
        if (Slot == ~0u)
          continue;
        V[Slot] = JF.evaluateVia(Lookup);
        noteEvaluation();
      }
      dispatch(QI, V);
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
    while (Head < Queue.size() && !tripped()) {
      uint32_t C = Queue[Head++];
      CtxQueued[C] = 0;
      processContext(C);
    }
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

  /// Meets each procedure's tabulated contexts, refines top slots from
  /// the baseline (adopting its sound conclusion wherever the tabulation
  /// has no evidence — this is what makes the engine's CONSTANTS sets a
  /// superset of the jump engine's on every program), and packages the
  /// rows zero-copy.
  ConstantsMap package(const ConstantsMap &Base) {
    size_t N = CG.procedures().size();
    std::vector<std::vector<LatticeValue>> Final(N);
    for (unsigned PI = 0; PI != N; ++PI)
      Final[PI].assign(Width[PI], LatticeValue::top());
    for (uint32_t C = 0, E = uint32_t(CtxProc.size()); C != E; ++C) {
      unsigned PI = CtxProc[C];
      const LatticeValue *U = Entries.data() + CtxBase[C];
      for (unsigned I = 0, W = Width[PI]; I != W; ++I)
        Final[PI][I] = meet(Final[PI][I], U[I]);
    }

    ConstantsMap CM;
    for (Procedure *P : CG.procedures()) {
      unsigned PI = CG.procIndex(P);
      ProcSlots &S = Slots[PI];
      const ConstantsMap::Row &BR = Base.row(P);
      if (BR.Vals.size() == Final[PI].size())
        for (unsigned I = 0, W = Width[PI]; I != W; ++I)
          if (Final[PI][I].isTop())
            Final[PI][I] = BR.Vals[I];
      std::vector<Variable *> Vars;
      Vars.reserve(Final[PI].size());
      Vars.insert(Vars.end(), P->formals().begin(), P->formals().end());
      Vars.insert(Vars.end(), S.Globals.begin(), S.Globals.end());
      CM.adoptRow(P, std::move(Vars), std::move(Final[PI]));
    }
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

  std::vector<ProcSlots> Slots;
  std::vector<unsigned> Width;

  // Context tables (SoA): per-context proc index, span base into the
  // flat entry-value vector, summary/queued flags.
  std::vector<uint32_t> CtxProc;
  std::vector<size_t> CtxBase;
  std::vector<char> CtxIsSummary;
  std::vector<char> CtxQueued;
  std::vector<LatticeValue> Entries;
  std::vector<int32_t> SummaryOf;
  std::unordered_map<uint64_t, std::vector<uint32_t>> Memo;
  std::unordered_set<uint32_t> VisitedSummary;

  std::vector<uint32_t> Queue;
  size_t Head = 0;

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
