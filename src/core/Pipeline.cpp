//===- core/Pipeline.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "analysis/SCCP.h"
#include "core/BindingGraph.h"
#include "core/SummaryCache.h"
#include "support/Casting.h"
#include "support/StableHash.h"
#include "support/Trace.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

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
/// and finish to restock the cache.
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

  /// Body and caller hashes of every procedure.
  void hashBodies() {
    for (Procedure *P : CG.procedures())
      BodyHex.emplace(P, stableHashHex(hashProcedureBody(*P)));
    for (Procedure *P : CG.procedures()) {
      std::vector<std::pair<std::string, std::string>> Callers;
      for (Procedure *Q : CG.callers(P))
        Callers.push_back({Q->getName(), BodyHex.at(Q)});
      std::sort(Callers.begin(), Callers.end());
      StableHasher H;
      H.u32(uint32_t(Callers.size()));
      for (const auto &[Name, Hex] : Callers) {
        H.str(Name);
        H.str(Hex);
      }
      CallersHex.emplace(P, stableHashHex(H.result()));
    }
    SCCKeyHex.resize(CG.sccsBottomUp().size());
    HitSCC.assign(CG.sccsBottomUp().size(), 0);
  }

  /// False when \p P's own body hash already rules out adoption.
  bool mayAdopt(Procedure *P) const {
    const CacheEntry *E = Cache.find(P->getName());
    return E && E->BodyHash == BodyHex.at(P);
  }

  /// Keys component \p C and adopts its cached summaries wholesale, or
  /// returns false and leaves the component to be rebuilt.
  bool tryAdopt(const std::vector<Procedure *> &Members, size_t C) {
    SCCKeyHex[C] = sccKey(Members, C);
    HitSCC[C] = tryAdoptSummaries(Members, C) ? 1 : 0;
    if (HitSCC[C]) {
      Stats.add(Counter::cache_hits, Members.size());
      return true;
    }
    Stats.add(Counter::cache_misses, Members.size());
    for (Procedure *P : Members)
      if (Cache.find(P->getName()))
        Stats.add(Counter::cache_invalidations);
    return false;
  }

  /// Content hashes only exist for finished components, which is all
  /// later (caller) components ever look at.
  void finishComponent(const std::vector<Procedure *> &Members) {
    for (Procedure *P : Members)
      ContentHex.emplace(P, contentHash(P));
  }

  /// The adoption closure for propagation (see Propagator.h). Walks
  /// components caller-first (descending index) so each component can
  /// require that every external caller component was itself adopted.
  const IncrementalPropagationPlan *buildPlan() {
    if (Opts.Schedule != PropagationSchedule::SCC || Guard.tripped())
      return nullptr;
    const std::vector<std::vector<Procedure *>> &SCCs = CG.sccsBottomUp();
    Plan.AdoptSCC.assign(SCCs.size(), 0);
    uint64_t Adopted = 0;
    for (size_t C = SCCs.size(); C-- != 0;) {
      if (!HitSCC[C])
        continue;
      bool Ok = true;
      std::vector<std::pair<Procedure *,
                            std::vector<std::pair<Variable *, LatticeValue>>>>
          Vals;
      for (Procedure *P : SCCs[C]) {
        const CacheEntry *E = Cache.find(P->getName());
        if (!E || !E->HasVal || E->CallersHash != CallersHex.at(P)) {
          Ok = false;
          break;
        }
        for (Procedure *Q : CG.callers(P))
          if (CG.sccIndex(Q) != C && !Plan.AdoptSCC[CG.sccIndex(Q)]) {
            Ok = false;
            break;
          }
        if (!Ok)
          break;
        std::vector<std::pair<Variable *, LatticeValue>> V;
        if (!parseVal(*E, P, V)) {
          Ok = false;
          break;
        }
        Vals.push_back({P, std::move(V)});
      }
      if (!Ok)
        continue;
      Plan.AdoptSCC[C] = 1;
      Adopted += SCCs[C].size();
      for (auto &[P, V] : Vals) {
        Plan.CachedVal.emplace(P, std::move(V));
        const CacheEntry *E = Cache.find(P->getName());
        if (E->HasRecord)
          ReplaySet.insert(P);
      }
    }
    Stats.add(Counter::cache_val_adopted, Adopted);
    return &Plan;
  }

  /// Replays the record stage for an adopted procedure from its cached
  /// counts. The entry constants are recomputed from the (identical)
  /// fixpoint; substitution facts are deliberately not replayed — see
  /// IPCPResult::UsedCache. Returns false when \p P must run the real
  /// record stage.
  bool replay(Procedure *P, const ConstantsMap &CM, IPCPResult &Result) {
    if (!ReplaySet.count(P))
      return false;
    const CacheEntry *E = Cache.find(P->getName());
    traceEvent("record.proc", P->getName());
    Result.Stats.add(Counter::sccp_runs);
    Result.Stats.add(Counter::sccp_constant_values, E->SCCPConstantValues);
    Result.Stats.add(Counter::sccp_executable_blocks, E->SCCPExecutableBlocks);
    Result.Stats.add(Counter::cache_record_reused);

    ProcedureResult PR;
    PR.Name = P->getName();
    for (const auto &[Var, Value] : CM.constantsOf(P))
      PR.EntryConstants.push_back({Var->getName(), Value});
    PR.ConstantRefs = unsigned(E->ConstantRefs);
    PR.IrrelevantConstants = unsigned(E->IrrelevantConstants);
    Result.TotalEntryConstants += PR.EntryConstants.size();
    Result.TotalConstantRefs += PR.ConstantRefs;
    noteRecord(P, E->ConstantRefs, E->IrrelevantConstants,
               E->SCCPConstantValues, E->SCCPExecutableBlocks);
    Result.Procs.push_back(std::move(PR));
    return true;
  }

  /// Remembers one procedure's record-stage counts for staging.
  void noteRecord(Procedure *P, uint64_t Refs, uint64_t Irrelevant,
                  uint64_t SCCPValues, uint64_t SCCPBlocks) {
    Records[P] = {Refs, Irrelevant, SCCPValues, SCCPBlocks};
  }

  /// Stages this run's entries and commits them iff the run finished
  /// un-degraded — a tripped budget must never poison the store.
  void finish(const ConstantsMap &CM, bool Commit) {
    if (!Commit) {
      Cache.finishRun(false);
      return;
    }
    for (Procedure *P : CG.procedures()) {
      CacheEntry E;
      E.Name = P->getName();
      E.BodyHash = BodyHex.at(P);
      E.SCCKey = SCCKeyHex[CG.sccIndex(P)];
      E.CallersHash = CallersHex.at(P);
      E.ModFormals = modFormalsOf(P);
      E.ModGlobals = globalNames(MRI.modifiedGlobals(P));
      E.ExtGlobals = globalNames(MRI.extendedGlobals(P));
      E.ReturnJFs = rjfPairsOf(P);
      for (CallInst *Site : CG.callSitesIn(P)) {
        const CallSiteJumpFunctions &JFs = Tables.FJFs.at(Site);
        CacheEntry::SiteJFs S;
        S.Callee = Site->getCallee()->getName();
        for (const JumpFunction &JF : JFs.Formals)
          S.Formals.push_back(SummaryCache::exprString(JF.expr()));
        for (const auto &[G, JF] : JFs.Globals)
          S.Globals.push_back(
              {SummaryCache::varRef(G), SummaryCache::exprString(JF.expr())});
        E.ForwardJFs.push_back(std::move(S));
      }
      E.HasVal = true;
      ConstantsMap::Row Row = CM.row(P);
      for (size_t I = 0, N = Row.Vars.size(); I != N; ++I) {
        LatticeValue LV = Row.Vals[I];
        if (LV.isTop())
          continue;
        E.Val.push_back({SummaryCache::varRef(Row.Vars[I]),
                         SummaryCache::valueString(LV)});
      }
      std::sort(E.Val.begin(), E.Val.end());
      auto RC = Records.find(P);
      if (RC != Records.end()) {
        E.HasRecord = true;
        E.ConstantRefs = RC->second.Refs;
        E.IrrelevantConstants = RC->second.Irrelevant;
        E.SCCPConstantValues = RC->second.SCCPValues;
        E.SCCPExecutableBlocks = RC->second.SCCPBlocks;
      }
      Cache.stage(std::move(E));
    }
    Cache.finishRun(true);
  }

private:
  struct RecordCounts {
    uint64_t Refs = 0;
    uint64_t Irrelevant = 0;
    uint64_t SCCPValues = 0;
    uint64_t SCCPBlocks = 0;
  };

  std::vector<unsigned> modFormalsOf(Procedure *P) const {
    std::vector<unsigned> Out;
    for (unsigned I = 0, N = unsigned(P->formals().size()); I != N; ++I)
      if (MRI.formalMayBeModified(P, I))
        Out.push_back(I);
    return Out;
  }

  static std::vector<std::string> globalNames(const VariableSet &Set) {
    std::vector<std::string> Out;
    for (Variable *G : Set)
      Out.push_back(G->getName());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  std::vector<std::pair<std::string, std::string>>
  rjfPairsOf(Procedure *P) const {
    std::vector<std::pair<std::string, std::string>> Out;
    if (!Tables.RJFs)
      return Out;
    if (const auto *Entries = Tables.RJFs->entriesOf(P))
      for (const auto &[Var, JF] : *Entries)
        Out.push_back(
            {SummaryCache::varRef(Var), SummaryCache::exprString(JF.expr())});
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// What callers consume of \p P: the MOD summary and the return jump
  /// functions — deliberately *not* the body hash, so an edit that leaves
  /// them unchanged stops invalidating at the direct callers (early
  /// cutoff).
  std::string contentHash(Procedure *P) const {
    StableHasher H;
    H.u8(0x4d); // 'M'
    std::vector<unsigned> Mod = modFormalsOf(P);
    H.u32(uint32_t(Mod.size()));
    for (unsigned I : Mod)
      H.u32(I);
    for (const std::vector<std::string> &Names :
         {globalNames(MRI.modifiedGlobals(P)),
          globalNames(MRI.extendedGlobals(P))}) {
      H.u32(uint32_t(Names.size()));
      for (const std::string &Name : Names)
        H.str(Name);
    }
    H.u8(0x52); // 'R'
    std::vector<std::pair<std::string, std::string>> RJF = rjfPairsOf(P);
    H.u32(uint32_t(RJF.size()));
    for (const auto &[Ref, Expr] : RJF) {
      H.str(Ref);
      H.str(Expr);
    }
    return stableHashHex(H.result());
  }

  /// SCCKey: the member bodies plus the *content* of every external
  /// direct callee (all finalized — bottom-up order).
  std::string sccKey(const std::vector<Procedure *> &Members, size_t C) {
    std::vector<std::pair<std::string, std::string>> Bodies;
    for (Procedure *P : Members)
      Bodies.push_back({P->getName(), BodyHex.at(P)});
    std::sort(Bodies.begin(), Bodies.end());
    std::vector<std::pair<std::string, std::string>> External;
    for (Procedure *P : Members)
      for (Procedure *Q : CG.callees(P))
        if (CG.sccIndex(Q) != C)
          External.push_back({Q->getName(), ContentHex.at(Q)});
    std::sort(External.begin(), External.end());
    External.erase(std::unique(External.begin(), External.end()),
                   External.end());
    StableHasher H;
    H.u8(0x53); // 'S'
    H.u32(uint32_t(Bodies.size()));
    for (const auto &[Name, Hex] : Bodies) {
      H.str(Name);
      H.str(Hex);
    }
    H.u8(0x45); // 'E'
    H.u32(uint32_t(External.size()));
    for (const auto &[Name, Hex] : External) {
      H.str(Name);
      H.str(Hex);
    }
    return stableHashHex(H.result());
  }

  /// Validates and deserializes every member's entry, committing into the
  /// live tables only when the whole component succeeds (all-or-nothing:
  /// a partially restored component could leave a lift consulting a
  /// half-built table).
  bool tryAdoptSummaries(const std::vector<Procedure *> &Members, size_t C) {
    struct Restored {
      Procedure *P = nullptr;
      std::vector<std::pair<Variable *, JumpFunction>> RJFEntries;
      std::vector<CallSiteJumpFunctions> Sites;
    };
    std::vector<Restored> Pending;
    for (Procedure *P : Members) {
      const CacheEntry *E = Cache.find(P->getName());
      if (!E || E->BodyHash != BodyHex.at(P) || E->SCCKey != SCCKeyHex[C])
        return false;
      Restored R;
      R.P = P;
      if (!deserializeEntry(*E, P, R.RJFEntries, R.Sites))
        return false;
      Pending.push_back(std::move(R));
    }
    for (Restored &R : Pending) {
      if (Tables.RJFs)
        for (auto &[Var, JF] : R.RJFEntries)
          Tables.RJFs->insert(R.P, Var, std::move(JF));
      for (CallSiteJumpFunctions &S : R.Sites)
        Tables.FJFs.insert(std::move(S));
    }
    return true;
  }

  /// Resolves one entry against the current module, also cross-checking
  /// the cached MOD summary against the fresh ModRef results (they are
  /// implied by the keys, but a corrupted store must degrade, not
  /// mislead).
  bool deserializeEntry(
      const CacheEntry &E, Procedure *P,
      std::vector<std::pair<Variable *, JumpFunction>> &RJFEntries,
      std::vector<CallSiteJumpFunctions> &Sites) const {
    if (E.ModFormals != modFormalsOf(P) ||
        E.ModGlobals != globalNames(MRI.modifiedGlobals(P)) ||
        E.ExtGlobals != globalNames(MRI.extendedGlobals(P)))
      return false;

    if (Tables.RJFs) {
      // The entry set must be exactly the modifiable set the table would
      // have been seeded with.
      std::vector<std::string> Expected;
      for (unsigned I : E.ModFormals)
        Expected.push_back(SummaryCache::varRef(P->formals()[I]));
      for (Variable *G : MRI.modifiedGlobals(P))
        Expected.push_back(SummaryCache::varRef(G));
      std::sort(Expected.begin(), Expected.end());
      std::vector<std::string> Got;
      for (const auto &[Ref, Text] : E.ReturnJFs)
        Got.push_back(Ref);
      std::sort(Got.begin(), Got.end());
      if (Got != Expected)
        return false;
      for (const auto &[Ref, Text] : E.ReturnJFs) {
        Variable *Var = SummaryCache::resolveVarRef(Ref, P);
        if (!Var)
          return false;
        bool Ok = false;
        const SymExpr *Expr = SummaryCache::parseExpr(Text, P, Tables.Ctx, &Ok);
        if (!Ok)
          return false;
        RJFEntries.push_back({Var, JumpFunction(Expr)});
      }
    } else if (!E.ReturnJFs.empty()) {
      return false;
    }

    const std::vector<CallInst *> &SiteList = CG.callSitesIn(P);
    if (E.ForwardJFs.size() != SiteList.size())
      return false;
    for (size_t I = 0; I != SiteList.size(); ++I) {
      CallInst *Site = SiteList[I];
      const CacheEntry::SiteJFs &SE = E.ForwardJFs[I];
      Procedure *Callee = Site->getCallee();
      if (!Callee || SE.Callee != Callee->getName())
        return false;
      if (SE.Formals.size() != size_t(Site->getNumActuals()))
        return false;
      CallSiteJumpFunctions JFs;
      JFs.Site = Site;
      JFs.Caller = P;
      for (const std::string &Text : SE.Formals) {
        bool Ok = false;
        const SymExpr *Expr = SummaryCache::parseExpr(Text, P, Tables.Ctx, &Ok);
        if (!Ok)
          return false;
        JFs.Formals.push_back(JumpFunction(Expr));
      }
      const VariableSet &Ext = MRI.extendedGlobals(Callee);
      if (SE.Globals.size() != Ext.size())
        return false;
      size_t GI = 0;
      for (Variable *G : Ext) {
        const auto &[Ref, Text] = SE.Globals[GI++];
        if (SummaryCache::resolveVarRef(Ref, P) != G)
          return false;
        bool Ok = false;
        const SymExpr *Expr = SummaryCache::parseExpr(Text, P, Tables.Ctx, &Ok);
        if (!Ok)
          return false;
        JFs.Globals.push_back({G, JumpFunction(Expr)});
      }
      Sites.push_back(std::move(JFs));
    }
    return true;
  }

  /// Decodes one cached VAL set; every entry must be one of the owner's
  /// extended formals with a well-formed value.
  bool parseVal(const CacheEntry &E, Procedure *P,
                std::vector<std::pair<Variable *, LatticeValue>> &Out) const {
    const VariableSet &Ext = MRI.extendedGlobals(P);
    for (const auto &[Ref, Text] : E.Val) {
      Variable *Var = SummaryCache::resolveVarRef(Ref, P);
      if (!Var || Var->isLocal())
        return false;
      if (Var->isGlobal() && !Ext.count(Var))
        return false;
      LatticeValue LV;
      if (!SummaryCache::parseValue(Text, LV))
        return false;
      Out.push_back({Var, LV});
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

  std::unordered_map<Procedure *, std::string> BodyHex;
  std::unordered_map<Procedure *, std::string> CallersHex;
  std::unordered_map<Procedure *, std::string> ContentHex;
  std::vector<std::string> SCCKeyHex;
  std::vector<char> HitSCC;
  IncrementalPropagationPlan Plan;
  std::unordered_set<const Procedure *> ReplaySet;
  std::unordered_map<const Procedure *, RecordCounts> Records;
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
        Cache->finishComponent(Members);
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
      CM = Opts.UseBindingGraphPropagator
               ? propagateConstantsBindingGraph(CG, MRI, FJFs, Opts, &PS,
                                                Guard)
               : propagateConstants(CG, MRI, FJFs, Opts, &PS, Guard, Plan);
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
    for (const std::unique_ptr<BasicBlock> &BB : P->blocks())
      if (SCCP.isExecutable(BB.get()))
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
          {Constants[C].first->getName(), Constants[C].second});
      // "Known but irrelevant": the constant variable is never
      // referenced in this procedure's body.
      if (!Referenced[C])
        ++PR.IrrelevantConstants;
    }
    Result.TotalEntryConstants += PR.EntryConstants.size();

    for (const std::unique_ptr<BasicBlock> &BB : P->blocks()) {
      if (!SCCP.isExecutable(BB.get()))
        continue;
      const auto *CBr = dyn_cast_or_null<CondBranchInst>(BB->getTerminator());
      if (!CBr)
        continue;
      LatticeValue Cond = SCCP.valueOf(CBr->getCond());
      if (Cond.isConstant())
        Result.Facts.FoldedBranches[CBr->getId()] = Cond.getConstant() != 0;
    }

    if (Inc)
      Inc->noteRecord(P.get(), PR.ConstantRefs, PR.IrrelevantConstants,
                      SCCP.constantValueCount(), ExecBlocks);
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
