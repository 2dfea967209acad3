//===- core/Pipeline.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "analysis/SCCP.h"
#include "core/SummaryCache.h"
#include "support/Casting.h"
#include "support/StableHash.h"
#include "support/Trace.h"

#include <algorithm>
#include <numeric>
#include <optional>

using namespace ipcp;

namespace {

/// Installs the SCCP CallOut hook, the paper's substitution-time
/// evaluation: a CallOut evaluates its return jump function over the
/// current lattice values of the support at the call, where a callee
/// formal reads the call's actual and a global its CallIn value.
void setCallOutHook(SCCPOptions &Opts, const ReturnJumpFunctions *RJFs,
                    const SSAResult *SSA) {
  if (!RJFs)
    return;
  Opts.BindCallOut = [RJFs, SSA](const CallOutInst *Out) {
    const JumpFunction *RJF = RJFs->forCallOut(Out);
    if (!RJF)
      return CallOutBinding();
    const CallInst *Call = Out->getCall();
    CallOutBinding B;
    for (Variable *Support : RJF->support()) {
      const Value *In = nullptr;
      if (Support->isFormal() && Support->getParent() == Call->getCallee()) {
        unsigned Index = Support->getFormalIndex();
        if (Index < Call->getNumActuals())
          In = Call->getActualValue(Index);
      } else if (Support->isGlobal()) {
        In = SSA->callIn(Call, Support);
      }
      // A support value with no source here is bottom, and so is the
      // return jump function's value.
      if (!In)
        return CallOutBinding();
      B.Inputs.push_back(In);
    }
    B.Evaluate = [RJF](std::span<const LatticeValue> Values) {
      const std::vector<Variable *> &Support = RJF->support();
      return RJF->evaluateVia([&](const Variable *Var) {
        return Values[std::find(Support.begin(), Support.end(), Var) -
                      Support.begin()];
      });
    };
    return B;
  };
}

} // namespace

namespace {

/// Copies the guard's latched outcome into \p Result and emits the
/// degradation counters (guard_limit_trips / guard_deadline_trips).
void recordGuardOutcome(IPCPResult &Result, const ResourceGuard &Guard) {
  Result.Status = Guard.status();
  if (Guard.tripped()) {
    Result.Stats.add(Counter::guard_limit_trips);
    if (Guard.deadlineTripped())
      Result.Stats.add(Counter::guard_deadline_trips);
  }
}

} // namespace

namespace ipcp {

/// The summary-cache hooks of one cached run (docs/INCREMENTAL.md).
/// buildJumpFunctions calls hashBodies, mayAdopt, tryAdopt and
/// finishComponent from its sweep; runIPCP then calls buildPlan for the
/// propagation adoption closure, replay/noteRecord in the record stage,
/// and finish to commit. Every per-procedure table is indexed by module
/// index and every key is an integer; nothing touches the cache's entries
/// before finish commits.
class IncrementalEngine {
public:
  IncrementalEngine(SummaryCache &Cache, const CallGraph &CG,
                    const ModRefInfo &MRI, const IPCPOptions &Opts,
                    StatisticSet &Stats, ResourceGuard &Guard,
                    JumpFunctionTables &Tables)
      : Cache(Cache), CG(CG), MRI(MRI), Opts(Opts), Stats(Stats),
        Guard(Guard), Tables(Tables) {
    for (Counter C : {Counter::cache_hits, Counter::cache_misses,
                      Counter::cache_invalidations, Counter::cache_val_adopted,
                      Counter::cache_record_reused})
      Stats.add(C, 0);
    // Read before beginRun clears it: only the first run after a failed
    // load counts that failure.
    Stats.add(Counter::cache_load_failures,
              uint64_t(Cache.loadFailed() ? 1 : 0));
    Cache.beginRun();
  }

  /// Body and caller hashes of every procedure, and its entry, looked up
  /// once per run.
  void hashBodies() {
    const std::vector<Procedure *> &Procs = CG.procedures();
    size_t N = Procs.size();
    Body.resize(N);
    Callers.resize(N);
    Content.assign(N, 0);
    Entry.resize(N);
    Fresh.resize(N);
    Rebuilt.assign(N, 0);
    Records.resize(N);
    Recorded.assign(N, 0);
    for (size_t I = 0; I != N; ++I)
      Body[I] = hashProcedureBody(*Procs[I]);

    // Keys list procedures in name order.
    std::vector<unsigned> ByName(N);
    std::iota(ByName.begin(), ByName.end(), 0u);
    std::sort(ByName.begin(), ByName.end(), [&Procs](unsigned A, unsigned B) {
      return Procs[A]->getName() < Procs[B]->getName();
    });
    Rank.resize(N);
    for (unsigned R = 0; R != N; ++R)
      Rank[ByName[R]] = R;

    std::vector<unsigned> Sorted;
    for (size_t I = 0; I != N; ++I) {
      Sorted.clear();
      for (Procedure *Q : CG.callers(Procs[I]))
        Sorted.push_back(Q->getModuleIndex());
      sortByName(Sorted);
      StableHasher H;
      H.u32(uint32_t(Sorted.size()));
      for (unsigned Q : Sorted) {
        H.str(Procs[Q]->getName());
        H.str(stableHashDigits(Body[Q]).view());
      }
      Callers[I] = H.result();
      Entry[I] = Cache.entry(Cache.findName(Procs[I]->getName()));
    }

    // The run's global table: adoption re-binds a global leaf through it.
    GlobalByName.assign(Cache.nameCount(), nullptr);
    if (N)
      for (Variable *G : Procs[0]->getModule()->globals()) {
        uint32_t Name = Cache.findName(G->getName());
        if (Name != SummaryCache::NoName && !GlobalByName[Name])
          GlobalByName[Name] = G;
      }

    SCCKey.resize(CG.sccsBottomUp().size());
    HitSCC.assign(CG.sccsBottomUp().size(), 0);
  }

  /// False when \p P's own body hash already rules out adoption.
  bool mayAdopt(Procedure *P) const {
    const CacheEntry *E = Entry[P->getModuleIndex()];
    return E && E->BodyHash == Body[P->getModuleIndex()];
  }

  /// Keys component \p C and adopts its cached summaries wholesale, or
  /// returns false and leaves the component to be rebuilt.
  bool tryAdopt(const std::vector<Procedure *> &Members, size_t C) {
    SCCKey[C] = sccKey(Members, C);
    HitSCC[C] = tryAdoptSummaries(Members, C) ? 1 : 0;
    if (HitSCC[C]) {
      Stats.add(Counter::cache_hits, Members.size());
      return true;
    }
    Stats.add(Counter::cache_misses, Members.size());
    for (Procedure *P : Members)
      if (Entry[P->getModuleIndex()])
        Stats.add(Counter::cache_invalidations);
    return false;
  }

  /// Content hashes only exist for finished components, which is all
  /// later (caller) components ever look at. A member whose summaries
  /// were adopted as stored keeps its entry's hash; every other member
  /// gets a fresh entry from the run's tables, whose MOD summary and
  /// return jump functions are final here.
  void finishComponent(const std::vector<Procedure *> &Members, size_t C) {
    for (Procedure *P : Members) {
      unsigned I = P->getModuleIndex();
      if (HitSCC[C] && !Rebuilt[I]) {
        Content[I] = Entry[I]->ContentHash;
        continue;
      }
      Fresh[I] = freshSummary(P, C);
      Content[I] = Fresh[I]->ContentHash;
    }
  }

  /// The adoption closure for propagation (see Propagator.h). Walks
  /// components caller-first (descending index) so each component can
  /// require that every external caller component was itself adopted.
  /// Also lays out the cached VAL row of every procedure whose component
  /// hit, which replay compares against the fresh fixpoint.
  const IncrementalPropagationPlan *buildPlan() {
    if (Guard.tripped())
      return nullptr;
    const std::vector<Procedure *> &Procs = CG.procedures();
    Plan.Layout = ValLayout(CG, MRI);
    const ValLayout &Layout = Plan.Layout;
    Plan.CachedVal.assign(Layout.size(), LatticeValue::top());
    HasCachedVal.assign(Procs.size(), 0);
    for (unsigned I = 0; I != Procs.size(); ++I)
      if (HitSCC[CG.sccIndex(Procs[I])])
        HasCachedVal[I] = Cache.readVal(
            *Entry[I], Procs[I]->formals().size(),
            MRI.extendedGlobals(Procs[I]),
            std::span(Plan.CachedVal).subspan(Layout.base(I),
                                              Layout.width(I)));

    const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
    Plan.AdoptSCC.assign(SCCs.size(), 0);
    uint64_t Adopted = 0;
    for (size_t C = SCCs.size(); C-- != 0;) {
      if (!HitSCC[C])
        continue;
      auto Adoptable = [&](Procedure *P) {
        unsigned I = P->getModuleIndex();
        if (!HasCachedVal[I] || Entry[I]->Run.CallersHash != Callers[I])
          return false;
        for (Procedure *Q : CG.callers(P))
          if (CG.sccIndex(Q) != C && !Plan.AdoptSCC[CG.sccIndex(Q)])
            return false;
        return true;
      };
      if (!std::all_of(SCCs[C].begin(), SCCs[C].end(), Adoptable))
        continue;
      Plan.AdoptSCC[C] = 1;
      Adopted += SCCs[C].size();
    }
    Stats.add(Counter::cache_val_adopted, Adopted);
    Planned = true;
    return &Plan;
  }

  /// Replays the record stage of \p P from its cached counts when none of
  /// its inputs changed: its component hit (body, SSA, MOD/REF and the
  /// callees' return jump functions are the cached ones) and its fresh
  /// VAL row equals the cached one (so CONSTANTS(p) does too). The entry
  /// constants are recomputed from the live fixpoint; substitution facts
  /// are deliberately not replayed — see IPCPResult::UsedCache. Returns
  /// false when \p P must run the real record stage.
  bool replay(Procedure *P, const ConstantsMap &CM, IPCPResult &Result) {
    unsigned I = P->getModuleIndex();
    // A solve that tripped its budget left no fresh rows at all.
    if (!Planned || Guard.tripped() || !HasCachedVal[I] ||
        !Entry[I]->Run.HasRecord)
      return false;
    ConstantsMap::Row Row = CM.row(P);
    std::span<const LatticeValue> Cached(
        Plan.CachedVal.data() + Plan.Layout.base(I), Plan.Layout.width(I));
    if (!std::equal(Row.Vals.begin(), Row.Vals.end(), Cached.begin(),
                    Cached.end()))
      return false;
    const CacheEntry::RecordCounts &R = Entry[I]->Run.Record;
    traceEvent("record.proc", P->getName());
    Result.Stats.add(Counter::sccp_runs);
    Result.Stats.add(Counter::sccp_constant_values, R.SCCPConstantValues);
    Result.Stats.add(Counter::sccp_executable_blocks, R.SCCPExecutableBlocks);
    Result.Stats.add(Counter::cache_record_reused);

    ProcedureResult PR;
    PR.Name = P->getName();
    for (const auto &[Var, Value] : CM.constantsOf(P))
      PR.EntryConstants.push_back({std::string(Var->getName()), Value});
    PR.ConstantRefs = unsigned(R.ConstantRefs);
    PR.IrrelevantConstants = unsigned(R.IrrelevantConstants);
    Result.TotalEntryConstants += PR.EntryConstants.size();
    Result.TotalConstantRefs += PR.ConstantRefs;
    noteRecord(P, R);
    Result.Procs.push_back(std::move(PR));
    return true;
  }

  /// Remembers one procedure's record-stage counts for the commit.
  void noteRecord(Procedure *P, const CacheEntry::RecordCounts &R) {
    Records[P->getModuleIndex()] = R;
    Recorded[P->getModuleIndex()] = 1;
  }

  /// Commits this run iff it finished un-degraded — a tripped budget
  /// must never poison the store. A procedure whose summaries were
  /// adopted as stored carries its entry forward; only its callers hash,
  /// VAL row and record counts change.
  void finish(const ConstantsMap &CM, bool Commit) {
    if (!Commit)
      return;
    const std::vector<Procedure *> &Procs = CG.procedures();
    std::vector<SummaryCache::CommittedProc> Committed(Procs.size());
    for (unsigned I = 0; I != Procs.size(); ++I) {
      Procedure *P = Procs[I];
      SummaryCache::CommittedProc &U = Committed[I];
      U.Name = Cache.intern(P->getName());
      if (Fresh[I]) {
        addForwardJFs(*Fresh[I], P);
        U.Fresh = std::move(Fresh[I]);
      }
      U.Run.CallersHash = Callers[I];
      SummaryCache::writeVal(CM.row(P).Vals, P->formals().size(),
                             MRI.extendedGlobals(P), U.Run);
      U.Run.HasRecord = Recorded[I] != 0;
      U.Run.Record = Records[I];
    }
    Cache.commit(std::move(Committed));
  }

private:
  /// Sorts module indices by procedure name.
  void sortByName(std::vector<unsigned> &Procs) const {
    std::sort(Procs.begin(), Procs.end(),
              [this](unsigned A, unsigned B) { return Rank[A] < Rank[B]; });
  }

  std::vector<unsigned> modFormalsOf(Procedure *P) const {
    std::vector<unsigned> Out;
    for (unsigned I = 0, N = unsigned(P->formals().size()); I != N; ++I)
      if (MRI.formalMayBeModified(P, I))
        Out.push_back(I);
    return Out;
  }

  /// A fresh entry's keys and summaries, from the run's tables; the
  /// forward jump functions follow at commit.
  std::unique_ptr<CacheEntry> freshSummary(Procedure *P, size_t C) {
    auto E = std::make_unique<CacheEntry>();
    E->BodyHash = Body[P->getModuleIndex()];
    E->SCCKey = SCCKey[C];
    E->ModFormals = modFormalsOf(P);
    E->ModGlobals = Cache.globalNames(MRI.modifiedGlobals(P));
    E->ExtGlobals = Cache.globalNames(MRI.extendedGlobals(P));
    if (Tables.RJFs)
      if (const auto *Entries = Tables.RJFs->entriesOf(P))
        for (const auto &[Var, JF] : *Entries)
          E->ReturnJFs.push_back(
              {Cache.var(Var), Cache.addExpr(*E, JF.expr())});
    Cache.seal(*E);
    return E;
  }

  void addForwardJFs(CacheEntry &E, Procedure *P) {
    for (CallInst *Site : CG.callSitesIn(P)) {
      const CallSiteJumpFunctions &JFs = Tables.FJFs.at(Site);
      CacheEntry::SiteJFs S;
      S.Callee = Cache.intern(Site->getCallee()->getName());
      for (const JumpFunction &JF : JFs.Formals)
        S.Formals.push_back(Cache.addExpr(E, JF.expr()));
      for (const auto &[G, JF] : JFs.Globals)
        S.Globals.push_back({Cache.var(G), Cache.addExpr(E, JF.expr())});
      E.ForwardJFs.push_back(std::move(S));
    }
  }

  /// SCCKey: the member bodies plus the *content* of every external
  /// direct callee (all finalized — bottom-up order).
  uint64_t sccKey(const std::vector<Procedure *> &Members, size_t C) {
    const std::vector<Procedure *> &Procs = CG.procedures();
    std::vector<unsigned> Sorted;
    for (Procedure *P : Members)
      Sorted.push_back(P->getModuleIndex());
    sortByName(Sorted);
    StableHasher H;
    H.u8(0x53); // 'S'
    H.u32(uint32_t(Sorted.size()));
    for (unsigned I : Sorted) {
      H.str(Procs[I]->getName());
      H.str(stableHashDigits(Body[I]).view());
    }
    Sorted.clear();
    for (Procedure *P : Members)
      for (Procedure *Q : CG.callees(P))
        if (CG.sccIndex(Q) != C)
          Sorted.push_back(Q->getModuleIndex());
    sortByName(Sorted);
    Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
    H.u8(0x45); // 'E'
    H.u32(uint32_t(Sorted.size()));
    for (unsigned I : Sorted) {
      H.str(Procs[I]->getName());
      H.str(stableHashDigits(Content[I]).view());
    }
    return H.result();
  }

  /// Validates and re-binds every member's entry, committing into the
  /// live tables only when the whole component succeeds (all-or-nothing:
  /// a partially restored component could leave a lift consulting a
  /// half-built table).
  bool tryAdoptSummaries(const std::vector<Procedure *> &Members, size_t C) {
    struct Restored {
      Procedure *P = nullptr;
      std::vector<std::pair<Variable *, JumpFunction>> RJFEntries;
      std::vector<CallSiteJumpFunctions> Sites;
      bool AsStored = true;
    };
    std::vector<Restored> Pending;
    for (Procedure *P : Members) {
      const CacheEntry *E = Entry[P->getModuleIndex()];
      if (!E || E->BodyHash != Body[P->getModuleIndex()] ||
          E->SCCKey != SCCKey[C])
        return false;
      Restored &R = Pending.emplace_back();
      R.P = P;
      if (!matchesModule(*E, P) ||
          !rebind(*E, P, R.RJFEntries, R.Sites, R.AsStored))
        return false;
    }
    for (Restored &R : Pending) {
      if (Tables.RJFs)
        for (auto &[Var, JF] : R.RJFEntries)
          Tables.RJFs->insert(R.P, Var, std::move(JF));
      for (CallSiteJumpFunctions &S : R.Sites)
        Tables.FJFs.insert(std::move(S));
      Rebuilt[R.P->getModuleIndex()] = !R.AsStored;
    }
    return true;
  }

  /// The variable \p V names in \p Owner, or null.
  Variable *resolve(SummaryVar V, Procedure *Owner) const {
    switch (V.K) {
    case SummaryVar::Kind::Formal:
      return V.Index < Owner->formals().size() ? Owner->formals()[V.Index]
                                               : nullptr;
    case SummaryVar::Kind::Global:
      return V.Index < GlobalByName.size() ? GlobalByName[V.Index] : nullptr;
    case SummaryVar::Kind::Local: {
      Variable *L = Owner->findVariable(Cache.name(V.Index));
      return L && L->isLocal() ? L : nullptr;
    }
    }
    return nullptr;
  }

  /// Whether \p Names (distinct) name exactly the globals of \p Set.
  bool sameGlobals(const std::vector<uint32_t> &Names,
                   const VariableSet &Set) const {
    if (Names.size() != Set.size())
      return false;
    for (uint32_t N : Names) {
      Variable *G = N < GlobalByName.size() ? GlobalByName[N] : nullptr;
      if (!G || !Set.count(G))
        return false;
    }
    return true;
  }

  /// Cross-checks \p E's MOD summary against the fresh ModRef results
  /// (implied by the keys, but a corrupted store must degrade, not
  /// mislead), its return jump functions against the modifiable set the
  /// table would have been seeded with, and its forward records 1:1
  /// against \p P's call sites.
  bool matchesModule(const CacheEntry &E, Procedure *P) const {
    size_t K = 0;
    for (unsigned I = 0, N = unsigned(P->formals().size()); I != N; ++I)
      if (MRI.formalMayBeModified(P, I) &&
          (K == E.ModFormals.size() || E.ModFormals[K++] != I))
        return false;
    if (K != E.ModFormals.size() ||
        !sameGlobals(E.ModGlobals, MRI.modifiedGlobals(P)) ||
        !sameGlobals(E.ExtGlobals, MRI.extendedGlobals(P)))
      return false;

    if (!Tables.RJFs) {
      if (!E.ReturnJFs.empty())
        return false;
    } else {
      if (E.ReturnJFs.size() != E.ModFormals.size() + E.ModGlobals.size())
        return false;
      for (const auto &[Ref, Root] : E.ReturnJFs) {
        Variable *Var = resolve(Ref, P);
        bool Modifiable =
            Var && (Var->isFormal()
                        ? std::binary_search(E.ModFormals.begin(),
                                             E.ModFormals.end(),
                                             Var->getFormalIndex())
                        : MRI.modifiedGlobals(P).count(Var) != 0);
        if (!Modifiable)
          return false;
      }
    }

    const std::vector<CallInst *> &SiteList = CG.callSitesIn(P);
    if (E.ForwardJFs.size() != SiteList.size())
      return false;
    for (size_t I = 0; I != SiteList.size(); ++I) {
      const CallInst *Site = SiteList[I];
      const CacheEntry::SiteJFs &SE = E.ForwardJFs[I];
      Procedure *Callee = Site->getCallee();
      if (!Callee || Cache.name(SE.Callee) != Callee->getName() ||
          SE.Formals.size() != size_t(Site->getNumActuals()))
        return false;
      const VariableSet &Ext = MRI.extendedGlobals(Callee);
      if (SE.Globals.size() != Ext.size())
        return false;
      for (size_t G = 0; G != Ext.size(); ++G)
        if (resolve(SE.Globals[G].first, P) != Ext.begin()[G])
          return false;
    }
    return true;
  }

  /// Re-interns \p E's expression pool into the run's context and builds
  /// the jump functions of \p P from it. \p AsStored turns false when the
  /// context re-canonicalized some node (variable numbering decides the
  /// order of commutative operands, and it may differ from the run that
  /// stored the entry); the entry then no longer spells what the tables
  /// hold, and the commit rebuilds it. A node the context refuses is
  /// corrupt, not bottom.
  bool rebind(const CacheEntry &E, Procedure *P,
              std::vector<std::pair<Variable *, JumpFunction>> &RJFEntries,
              std::vector<CallSiteJumpFunctions> &Sites, bool &AsStored) {
    SymExprContext &Ctx = Tables.Ctx;
    Bound.resize(E.Nodes.size());
    for (size_t K = 0; K != E.Nodes.size(); ++K) {
      const SummaryNode &N = E.Nodes[K];
      const SymExpr *X = nullptr;
      switch (N.K) {
      case SymExpr::Kind::Const:
        X = Ctx.getConst(N.C);
        break;
      case SymExpr::Kind::Formal:
        if (Variable *Var = resolve(N.Var, P))
          X = Ctx.getFormal(Var);
        break;
      case SymExpr::Kind::Binary:
        X = Ctx.getBinary(N.BinOp, Bound[N.L], Bound[N.R]);
        AsStored &= X && X->getKind() == N.K && X->getBinaryOp() == N.BinOp &&
                    X->getLHS() == Bound[N.L] && X->getRHS() == Bound[N.R];
        break;
      case SymExpr::Kind::Unary:
        X = Ctx.getUnary(N.UnOp, Bound[N.L]);
        AsStored &= X && X->getKind() == N.K && X->getUnaryOp() == N.UnOp &&
                    X->getLHS() == Bound[N.L];
        break;
      }
      if (!X)
        return false;
      Bound[K] = X;
    }
    auto JF = [this](uint32_t Root) {
      return JumpFunction(Root == CacheEntry::Bottom ? nullptr : Bound[Root]);
    };
    for (const auto &[Ref, Root] : E.ReturnJFs)
      RJFEntries.push_back({resolve(Ref, P), JF(Root)});
    const std::vector<CallInst *> &SiteList = CG.callSitesIn(P);
    for (size_t I = 0; I != SiteList.size(); ++I) {
      const CacheEntry::SiteJFs &SE = E.ForwardJFs[I];
      CallSiteJumpFunctions &JFs = Sites.emplace_back();
      JFs.Site = SiteList[I];
      JFs.Caller = P;
      for (uint32_t Root : SE.Formals)
        JFs.Formals.push_back(JF(Root));
      const VariableSet &Ext = MRI.extendedGlobals(SiteList[I]->getCallee());
      for (size_t G = 0; G != Ext.size(); ++G)
        JFs.Globals.push_back({Ext.begin()[G], JF(SE.Globals[G].second)});
    }
    return true;
  }

  SummaryCache &Cache;
  const CallGraph &CG;
  const ModRefInfo &MRI;
  const IPCPOptions &Opts;
  StatisticSet &Stats;
  ResourceGuard &Guard;
  JumpFunctionTables &Tables;

  // By module index.
  std::vector<uint64_t> Body;
  std::vector<uint64_t> Callers;
  std::vector<uint64_t> Content;
  std::vector<unsigned> Rank; ///< position in name order
  std::vector<const CacheEntry *> Entry;
  /// Fresh entries: every member of a missed component, and every
  /// adopted member whose entry the context re-canonicalized (Rebuilt).
  std::vector<std::unique_ptr<CacheEntry>> Fresh;
  std::vector<char> Rebuilt;
  std::vector<char> HasCachedVal;
  std::vector<CacheEntry::RecordCounts> Records;
  std::vector<char> Recorded;

  // By SCC index.
  std::vector<uint64_t> SCCKey;
  std::vector<char> HitSCC;

  /// By cache name index: the module's global of that name.
  std::vector<Variable *> GlobalByName;
  /// Scratch of rebind: the context node of each pool node.
  std::vector<const SymExpr *> Bound;

  IncrementalPropagationPlan Plan;
  bool Planned = false;
};

} // namespace ipcp

namespace {

/// Microseconds since \p T started; restarts it.
uint64_t lapUs(Timer &T) {
  uint64_t Us = uint64_t(T.seconds() * 1e6);
  T.restart();
  return Us;
}

} // namespace

ModuleAnalysis::ModuleAnalysis(const Module &M, const IPCPOptions &Opts)
    : CG(M), CallGraphUs(lapUs(Clock)),
      MRI(Opts.UseModInformation ? ModRefInfo::compute(M, CG)
                                 : ModRefInfo::worstCase(M)),
      ModRefUs(lapUs(Clock)), Tables(Opts.MaxExprNodes) {}

const SSAResult &JumpFunctionTables::ssaOf(Procedure *P,
                                           const ModRefInfo &MRI) {
  auto It = SSA.find(P);
  if (It != SSA.end())
    return It->second;
  traceEvent("ssa.proc", P->getName());
  return SSA.emplace(P, constructSSA(*P, MRI)).first->second;
}

void ipcp::buildJumpFunctions(ModuleAnalysis &A, const IPCPOptions &Opts,
                              ResourceGuard *Guard) {
  const CallGraph &CG = A.CG;
  const ModRefInfo &MRI = A.MRI;
  JumpFunctionTables &Tables = A.Tables;
  IncrementalEngine *Cache = Tables.Incremental;
  Timer IntraTimer;
  double LiftSeconds = 0;

  // Intraprocedural analysis: SSA per procedure, in module order. The
  // paper observes this dominates total analysis cost; bench_costs.cpp
  // confirms. On a cached run, procedures whose bodies still match their
  // entries wait: the sweep builds their SSA only if the component
  // misses.
  {
    ScopedTraceSpan SSASpan("ssa-construction");
    // First fill every procedure's lazy caches that SSA reads: the
    // instruction stream and the entry values of its formals and extended
    // globals. They outlive the run, so creating them in one sweep keeps
    // these small allocations out of the gaps the freed SSA tables leave;
    // interleaved, they fragmented the heap enough to slow the next parse
    // and lowering by up to 1.6x on cold-scale's modules.
    for (Procedure *P : CG.procedures()) {
      P->instStream();
      for (Variable *F : P->formals())
        if (F->isScalar())
          P->getEntryValue(F);
      for (Variable *G : MRI.extendedGlobals(P))
        if (G->isScalar())
          P->getEntryValue(G);
    }
    if (Cache)
      Cache->hashBodies();
    for (Procedure *P : CG.procedures())
      if (!Cache || !Cache->mayAdopt(P))
        Tables.ssaOf(P, MRI);
  }

  // Stage 1: return jump functions, bottom-up over the SCCs. Callees are
  // final before their callers; inside a recursive component the seeded
  // bottoms stand in for members not yet lifted.
  const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
  std::vector<char> Adopted(SCCs.size(), 0);
  if (Opts.UseReturnJumpFunctions && !Opts.IntraproceduralOnly)
    Tables.RJFs = std::make_unique<ReturnJumpFunctions>();
  ReturnJumpFunctions *RJFs = Tables.RJFs.get();
  if (!Opts.IntraproceduralOnly) {
    ScopedTraceSpan RJFSpan("return-jf");
    for (size_t C = 0; C != SCCs.size(); ++C) {
      if (Guard && !Guard->checkDeadline("analysis"))
        break;
      const std::vector<Procedure *> &Members = SCCs[C];
      Adopted[C] = Cache && Cache->tryAdopt(Members, C);
      if (!Adopted[C]) {
        for (Procedure *P : Members)
          Tables.ssaOf(P, MRI);
        if (RJFs) {
          Timer LiftTimer;
          for (Procedure *P : Members)
            RJFs->seedBottoms(P, MRI);
          for (Procedure *P : Members)
            RJFs->liftProcedure(P, Tables.SSA.at(P), Tables.Ctx,
                                Opts.UseGatedSSA);
          LiftSeconds += LiftTimer.seconds();
        }
      }
      if (Cache)
        Cache->finishComponent(Members, C);
    }
  }
  Tables.Stats.add(Counter::time_intraprocedural_us,
                   uint64_t((IntraTimer.seconds() - LiftSeconds) * 1e6));
  Tables.Stats.add(Counter::time_return_jf_us, uint64_t(LiftSeconds * 1e6));
  if (RJFs) {
    Tables.Stats.add(Counter::rjf_known, RJFs->knownCount());
    Tables.Stats.add(Counter::rjf_entries, RJFs->entryCount());
  }

  // Stage 2: forward jump functions of every procedure the cache did not
  // supply, in module order, against the final return jump functions.
  if (Guard)
    Guard->checkDeadline("analysis");
  if (Opts.IntraproceduralOnly || (Guard && Guard->tripped()))
    return;
  Timer FJFTimer;
  {
    ScopedTraceSpan FJFSpan("forward-jf");
    for (Procedure *P : CG.procedures())
      if (!Adopted[CG.sccIndex(P)])
        Tables.FJFs.buildProcedure(P, CG, MRI, Tables.SSA.at(P), RJFs,
                                   Tables.Ctx, Opts.ForwardKind,
                                   Opts.UseGatedSSA);
  }
  Tables.Stats.add(Counter::time_forward_jf_us,
                   uint64_t(FJFTimer.seconds() * 1e6));
}

IPCPResult ipcp::runIPCP(const Module &M, const IPCPOptions &Opts,
                         ResourceGuard *Guard, SummaryCache *Cache) {
  IPCPResult Result;
  Timer Total;
  ScopedTraceSpan RunSpan("ipcp");

  // A run without an external guard still budgets itself from the
  // options; a guard that already tripped (earlier stage, shared
  // deadline) short-circuits to an empty degraded result.
  ResourceGuard LocalGuard(Opts.Limits);
  if (!Guard)
    Guard = &LocalGuard;
  Guard->checkIRInstructions(M.instructionCount(), "analysis");
  Guard->checkDeadline("analysis");
  if (Guard->tripped()) {
    recordGuardOutcome(Result, *Guard);
    return Result;
  }

  // Stage 0: structural analyses, on the module itself.
  ModuleAnalysis A(M, Opts);
  const CallGraph &CG = A.CG;
  Result.Stats.add(Counter::time_callgraph_us, A.CallGraphUs);
  Result.Stats.add(Counter::cg_procedures, CG.procedures().size());
  uint64_t CallSites = 0, RecursiveProcs = 0;
  for (Procedure *P : CG.procedures()) {
    CallSites += CG.callSitesIn(P).size();
    if (CG.isRecursive(P))
      ++RecursiveProcs;
  }
  Result.Stats.add(Counter::cg_call_sites, CallSites);
  Result.Stats.add(Counter::cg_sccs, CG.sccsBottomUp().size());
  Result.Stats.add(Counter::cg_recursive_procs, RecursiveProcs);
  Result.Stats.add(Counter::time_modref_us, A.ModRefUs);
  const ModRefInfo &MRI = A.MRI;

  if (!SummaryCache::models(Opts))
    Cache = nullptr;
  Result.UsedCache = Cache != nullptr;

  // Stages 1 + 2: SSA, return and forward jump functions.
  JumpFunctionTables &Tables = A.Tables;
  std::optional<IncrementalEngine> Inc;
  if (Cache)
    Tables.Incremental =
        &Inc.emplace(*Cache, CG, MRI, Opts, Result.Stats, *Guard, Tables);
  buildJumpFunctions(A, Opts, Guard);
  Result.Stats.merge(Tables.Stats);

  // Stage 3: propagation.
  ConstantsMap CM;
  if (!Opts.IntraproceduralOnly && !Guard->tripped()) {
    const ForwardJumpFunctions &FJFs = Tables.FJFs;
    ForwardJumpFunctions::Stats JS = FJFs.stats();
    Result.Stats.add(Counter::jf_bottom, JS.Bottom);
    Result.Stats.add(Counter::jf_constant, JS.Constant);
    Result.Stats.add(Counter::jf_passthrough, JS.PassThrough);
    Result.Stats.add(Counter::jf_polynomial, JS.Polynomial);

    Timer PropTimer;
    PropagatorStats PS;
    const IncrementalPropagationPlan *Plan = Inc ? Inc->buildPlan() : nullptr;
    if (Opts.Engine == PropagationEngine::Contexts)
      CM = propagateConstantsContexts(CG, MRI, FJFs, Opts, &PS, Guard,
                                      &Result.ContextStudy);
    else
      CM = propagateConstants(CG, MRI, FJFs, &PS, Guard, Plan);
    Result.Stats.add(Counter::time_propagation_us,
                     uint64_t(PropTimer.seconds() * 1e6));
    Result.Stats.add(Counter::prop_visits, PS.ProcVisits);
    Result.Stats.add(Counter::prop_evaluations, PS.JumpFunctionEvaluations);
    Result.Stats.add(Counter::prop_lowerings, PS.Lowerings);
    Result.Stats.add(Counter::prop_revisits, PS.Revisits);
    Result.Stats.add(Counter::prop_val_entries, CM.totalEntries());
    Result.Stats.add(Counter::prop_val_constants, CM.totalConstants());
    if (Result.ContextStudy.Enabled) {
      const ContextEngineStats &CS = Result.ContextStudy;
      Result.Stats.add(Counter::ctx_contexts, CS.Contexts);
      Result.Stats.add(Counter::ctx_summary_contexts, CS.SummaryContexts);
      Result.Stats.add(Counter::ctx_evaluations, CS.Evaluations);
      Result.Stats.add(Counter::ctx_reused, CS.Reused);
      Result.Stats.add(Counter::ctx_merges, CS.Merges);
      Result.Stats.add(Counter::ctx_entry_bytes, CS.EntryBytes);
      Result.Stats.add(Counter::ctx_budget_trips,
                       uint64_t(CS.BudgetTripped ? 1 : 0));
      Result.Stats.add(Counter::ctx_baseline_val_constants,
                       CS.BaselineValConstants);
    }
  }

  // Stage 4: record the results — seed each procedure's SCCP with its
  // CONSTANTS set, count constant variable references, and emit
  // substitution facts for the original module.
  Timer RecordTimer;
  ScopedTraceSpan RecordSpan("record-results");
  for (const std::unique_ptr<Procedure> &P : M.procedures()) {
    // A deadline interrupts recording between procedures (the tail of
    // Result.Procs is simply missing); other budget trips — propagation
    // evaluations — still let recording finish, yielding sound
    // intraprocedural-quality results for every procedure.
    if (!Guard->tripped())
      Guard->checkDeadline("record");
    if (Guard->deadlineTripped())
      break;
    if (Inc && Inc->replay(P.get(), CM, Result))
      continue;
    const SSAResult &ProcSSA = Tables.ssaOf(P.get(), MRI);

    std::vector<std::pair<Variable *, ConstantValue>> Constants =
        CM.constantsOf(P.get());
    SCCPOptions SCCPOpts;
    for (const auto &[Var, Value] : Constants)
      SCCPOpts.EntrySeeds[Var] = LatticeValue::constant(Value);
    setCallOutHook(SCCPOpts, Tables.RJFs.get(), &ProcSSA);
    traceEvent("record.proc", P->getName());
    SCCPResult SCCP = runSCCP(*P, ProcSSA, SCCPOpts);
    Result.Stats.add(Counter::sccp_runs);
    Result.Stats.add(Counter::sccp_constant_values, SCCP.constantValueCount());
    uint64_t ExecBlocks = 0;
    for (BasicBlock *BB : P->blocks())
      if (SCCP.isExecutable(BB))
        ++ExecBlocks;
    Result.Stats.add(Counter::sccp_executable_blocks, ExecBlocks);

    // Each promoted load is one source-level variable reference: note
    // which entry constants the body references, and count (and record
    // as facts) the references SCCP proved constant.
    ProcedureResult PR;
    PR.Name = P->getName();
    std::vector<char> Referenced(Constants.size(), 0);
    for (Instruction *Inst : P->instStream().Insts) {
      const auto *Load = dyn_cast<LoadInst>(Inst);
      if (!Load || !ProcSSA.isPromotedAccess(Load))
        continue;
      for (size_t C = 0; C != Constants.size(); ++C)
        Referenced[C] |= Constants[C].first == Load->getVariable();
      if (!SCCP.isExecutable(Load->getParent()))
        continue;
      LatticeValue LV = SCCP.valueOf(Load);
      if (!LV.isConstant())
        continue;
      ++PR.ConstantRefs;
      Result.Facts.ConstantLoads[Load->getId()] = LV.getConstant();
    }
    Result.TotalConstantRefs += PR.ConstantRefs;

    for (size_t C = 0; C != Constants.size(); ++C) {
      PR.EntryConstants.push_back(
          {std::string(Constants[C].first->getName()), Constants[C].second});
      // "Known but irrelevant": the constant variable is never
      // referenced in this procedure's body.
      if (!Referenced[C])
        ++PR.IrrelevantConstants;
    }
    Result.TotalEntryConstants += PR.EntryConstants.size();

    for (BasicBlock *BB : P->blocks()) {
      if (!SCCP.isExecutable(BB))
        continue;
      const auto *CBr = dyn_cast_or_null<CondBranchInst>(BB->getTerminator());
      if (!CBr)
        continue;
      LatticeValue Cond = SCCP.valueOf(CBr->getCond());
      if (Cond.isConstant())
        Result.Facts.FoldedBranches[CBr->getId()] = Cond.getConstant() != 0;
    }

    if (Inc)
      Inc->noteRecord(P.get(), {PR.ConstantRefs, PR.IrrelevantConstants,
                                SCCP.constantValueCount(), ExecBlocks});
    Result.Procs.push_back(std::move(PR));
  }
  if (Inc)
    Inc->finish(CM, !Guard->tripped());
  Result.Stats.add(Counter::time_record_us,
                   uint64_t(RecordTimer.seconds() * 1e6));
  Result.Stats.add(Counter::time_total_us, uint64_t(Total.seconds() * 1e6));
  Result.Stats.add(Counter::constants_found, Result.TotalEntryConstants);
  Result.Stats.add(Counter::constant_refs, Result.TotalConstantRefs);
  for (const ProcedureResult &PR : Result.Procs)
    Result.Stats.add(Counter::constants_known_irrelevant,
                     PR.IrrelevantConstants);
  Result.Stats.add(Counter::unique_exprs, Tables.Ctx.uniqueExprCount());
  recordGuardOutcome(Result, *Guard);

  return Result;
}

/// Round cap for the analyze-substitute loop (the paper's
/// complete-propagation experiment converged after one extra round; the
/// cap only guards adversarial inputs).
constexpr unsigned MaxSubstitutionRounds = 8;

SubstitutionResult ipcp::substituteConstants(Module &M,
                                             const IPCPOptions &Opts,
                                             bool UntilNoDeadCode,
                                             ResourceGuard &Guard) {
  SubstitutionResult Result;
  while (Result.Rounds < MaxSubstitutionRounds) {
    ScopedTraceSpan RoundSpan("round", std::to_string(++Result.Rounds));
    Result.LastRound = runIPCP(M, Opts, &Guard);
    Result.Stats.merge(Result.LastRound.Stats);
    TransformStats TS = applyFacts(M, Result.LastRound.Facts);
    Result.Applied.LoadsReplaced += TS.LoadsReplaced;
    Result.Applied.BranchesFolded += TS.BranchesFolded;
    Result.Applied.BlocksRemoved += TS.BlocksRemoved;
    Result.Applied.InstsRemoved += TS.InstsRemoved;
    Result.Applied.ExprsFolded += TS.ExprsFolded;
    if (Guard.tripped() ||
        !(UntilNoDeadCode ? TS.foundDeadCode() : TS.changedAnything()))
      break;
  }
  return Result;
}

CompletePropagationResult
ipcp::runCompletePropagation(const Module &M, const IPCPOptions &Opts,
                             ResourceGuard *Guard) {
  CompletePropagationResult Result;
  ScopedTraceSpan CompleteSpan("complete-propagation");
  std::unique_ptr<Module> Working = M.clone();

  // One guard spans every round, so a deadline bounds the whole
  // experiment rather than restarting per round.
  ResourceGuard LocalGuard(Opts.Limits);
  if (!Guard)
    Guard = &LocalGuard;
  // Paper: "In each case, only one pass of dead code elimination was
  // needed" — the loop runs until a round finds none anyway.
  SubstitutionResult SR = substituteConstants(*Working, Opts, true, *Guard);
  Result.Rounds = SR.Rounds;
  Result.TotalConstantRefs = SR.Applied.LoadsReplaced;
  Result.BlocksRemoved = SR.Applied.BlocksRemoved;
  Result.Stats = std::move(SR.Stats);
  Result.Stats.add(Counter::cp_rounds, SR.Rounds);
  Result.Stats.add(Counter::cp_loads_replaced, SR.Applied.LoadsReplaced);
  Result.Stats.add(Counter::cp_branches_folded, SR.Applied.BranchesFolded);
  Result.Stats.add(Counter::cp_blocks_removed, SR.Applied.BlocksRemoved);
  Result.Stats.add(Counter::cp_insts_removed, SR.Applied.InstsRemoved);
  Result.FinalRound = std::move(SR.LastRound);
  // A tripped budget ends the experiment with the rounds completed so far
  // (the facts already applied stay sound).
  if (Guard->tripped())
    Result.Status = Guard->status();
  return Result;
}
