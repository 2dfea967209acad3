//===- core/Cloning.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Cloning.h"

#include "frontend/Sema.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>

using namespace ipcp;

namespace {

/// One cloning decision: retarget these call sites (by clone-stable call
/// instruction ID) from Procedure (by name) to a fresh copy.
struct CloneDecision {
  std::string ProcName;
  std::vector<uint64_t> SiteIds;
  std::string Signature; // for determinism / debugging
};

/// Renders the constant vector a call site would supply, or empty when
/// the site is not profitable (no constant that the merged VAL lost).
/// Top values (sites inside never-invoked procedures) are treated as
/// bottom: cloning for them wins nothing.
std::string signatureFor(const CallSiteJumpFunctions &JFs,
                         const ConstantsMap &CM, Procedure *Caller,
                         Procedure *Callee, bool &Profitable) {
  std::string Sig;
  Profitable = false;
  auto CallerLookup = [&](Variable *Var) {
    return CM.valueOf(Caller, Var);
  };
  // The k-th jump function targets slot k of the callee's row.
  std::span<const LatticeValue> Merged = CM.row(Callee).Vals;
  assert(Merged.size() == JFs.Formals.size() + JFs.Globals.size() &&
         "jump functions out of step with the callee's row");
  size_t Slot = 0;
  auto Append = [&](const JumpFunction &JF) {
    LatticeValue V = JF.evaluateVia(CallerLookup);
    bool MergedConstant = Merged[Slot++].isConstant();
    if (!V.isConstant()) {
      Sig += "_,";
      return;
    }
    Sig += std::to_string(V.getConstant());
    Sig += ',';
    if (!MergedConstant)
      Profitable = true;
  };
  for (const JumpFunction &JF : JFs.Formals)
    Append(JF);
  for (const auto &[G, JF] : JFs.Globals)
    Append(JF);
  return Sig;
}

/// Plans one round of cloning decisions against a planning analysis of
/// \p M, charged to the experiment's \p Guard. A round whose planning
/// trips decides nothing.
std::vector<CloneDecision> planRound(const Module &M,
                                     const CloningOptions &Opts,
                                     ResourceGuard &Guard) {
  std::vector<CloneDecision> Decisions;

  // Planning reads the forward jump functions even when the measured
  // analysis is intraprocedural.
  IPCPOptions PlanOpts = Opts.Analysis;
  PlanOpts.IntraproceduralOnly = false;
  ModuleAnalysis A(M, PlanOpts);
  buildJumpFunctions(A, PlanOpts, &Guard);
  if (Guard.tripped())
    return Decisions;
  const CallGraph &CG = A.CG;
  const ModRefInfo &MRI = A.MRI;
  const ForwardJumpFunctions &FJFs = A.Tables.FJFs;
  ConstantsMap CM = propagateConstants(CG, MRI, FJFs, nullptr, &Guard);
  // A tripped solve returns an empty map, on which every literal-argument
  // site would look profitable.
  if (Guard.tripped())
    return Decisions;

  for (Procedure *Q : CG.procedures()) {
    if (Q->getName() == EntryProcedureName || CG.isRecursive(Q))
      continue;

    // Gather every call site targeting Q, grouped by constant signature.
    // std::map keeps group iteration deterministic.
    std::map<std::string, std::vector<uint64_t>> Groups;
    std::map<std::string, bool> GroupProfitable;
    unsigned TotalSites = 0;
    for (Procedure *Caller : CG.procedures()) {
      for (CallInst *Site : CG.callSitesIn(Caller)) {
        if (Site->getCallee() != Q)
          continue;
        ++TotalSites;
        bool Profitable = false;
        std::string Sig =
            signatureFor(FJFs.at(Site), CM, Caller, Q, Profitable);
        Groups[Sig].push_back(Site->getId());
        GroupProfitable[Sig] = GroupProfitable[Sig] || Profitable;
      }
    }
    if (Groups.size() < 2 || TotalSites < 2)
      continue;

    // Keep the original for the largest group; clone for the other
    // profitable groups, respecting the per-procedure cap.
    std::string Largest;
    size_t LargestSize = 0;
    for (const auto &[Sig, Sites] : Groups)
      if (Sites.size() > LargestSize) {
        Largest = Sig;
        LargestSize = Sites.size();
      }
    unsigned Budget = Opts.MaxClonesPerProcedure - 1;
    for (const auto &[Sig, Sites] : Groups) {
      if (Sig == Largest || !GroupProfitable[Sig] || Budget == 0)
        continue;
      Decisions.push_back({Q->getName(), Sites, Sig});
      --Budget;
    }
  }
  return Decisions;
}

} // namespace

CloningResult ipcp::cloneForConstants(Module &M, const CloningOptions &Opts,
                                      ResourceGuard *Guard) {
  ScopedTraceSpan CloneSpan("cloning");
  CloningResult Result;
  ResourceGuard LocalGuard(Opts.Analysis.Limits);
  if (!Guard)
    Guard = &LocalGuard;
  Result.InstructionsBefore = M.instructionCount();
  {
    IPCPResult Before = runIPCP(M, Opts.Analysis, Guard);
    Result.RefsBefore = Before.TotalConstantRefs;
    Result.ConstantsBefore = Before.TotalEntryConstants;
  }

  // The per-procedure budget counts every copy of one original across
  // all rounds; clones of clones share the original's budget.
  auto RootOf = [](const std::string &Name) {
    size_t Pos = Name.find(".clone");
    return Pos == std::string::npos ? Name : Name.substr(0, Pos);
  };
  std::unordered_map<std::string, unsigned> CopiesPerRoot;

  unsigned CloneCounter = 0;
  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    ScopedTraceSpan RoundSpan("cloning-round", std::to_string(Round + 1));
    // Budget gate: the deadline and the absolute IR-size budget both end
    // the experiment between rounds, leaving the module consistent.
    if (Guard->tripped() || !Guard->checkDeadline("cloning") ||
        !Guard->checkIRInstructions(M.instructionCount(), "cloning"))
      break;
    if (M.instructionCount() >
        Result.InstructionsBefore * Opts.MaxGrowthFactor)
      break;
    std::vector<CloneDecision> Decisions = planRound(M, Opts, *Guard);
    if (Decisions.empty())
      break;
    ++Result.RoundsRun;

    // Index the real module's call sites by ID once per round.
    std::unordered_map<uint64_t, CallInst *> SitesById;
    for (const std::unique_ptr<Procedure> &P : M.procedures())
      for (CallInst *Site : P->callSites())
        SitesById[Site->getId()] = Site;

    for (const CloneDecision &Decision : Decisions) {
      Procedure *Original = M.findProcedure(Decision.ProcName);
      if (!Original)
        continue; // name vanished (shouldn't happen)
      std::string Root = RootOf(Decision.ProcName);
      if (CopiesPerRoot[Root] + 2 > Opts.MaxClonesPerProcedure)
        continue; // original + copies would exceed the cap
      if (M.instructionCount() + Original->instructionCount() >
          Result.InstructionsBefore * Opts.MaxGrowthFactor)
        break;
      ++CopiesPerRoot[Root];
      Procedure *Copy = M.cloneProcedure(
          *Original,
          Original->getName() + ".clone" + std::to_string(++CloneCounter));
      ++Result.ClonesCreated;
      for (uint64_t SiteId : Decision.SiteIds) {
        auto It = SitesById.find(SiteId);
        if (It != SitesById.end())
          It->second->setCallee(Copy);
      }
    }
  }

  {
    IPCPResult After = runIPCP(M, Opts.Analysis, Guard);
    Result.RefsAfter = After.TotalConstantRefs;
    Result.ConstantsAfter = After.TotalEntryConstants;
  }
  Result.InstructionsAfter = M.instructionCount();
  Result.Status = Guard->status();
  return Result;
}
