//===- analysis/SSAConstruction.cpp ---------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SSAConstruction.h"

#include "ir/Dominators.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace ipcp;

std::span<Value *const> SSAResult::callInRow(const CallInst *Call) const {
  auto It = std::lower_bound(Calls.begin(), Calls.end(), Call->getLocalIdx());
  if (It == Calls.end() || *It != Call->getLocalIdx())
    return {};
  size_t Width = numGlobals();
  return {CallIns.data() + size_t(It - Calls.begin()) * Width, Width};
}

Value *SSAResult::callIn(const CallInst *Call, const Variable *G) const {
  int32_t Idx = indexOf(G);
  if (Idx < 0 || uint32_t(Idx) < FirstGlobal)
    return nullptr;
  std::span<Value *const> Row = callInRow(Call);
  return Row.empty() ? nullptr : Row[Idx - FirstGlobal];
}

namespace {

/// One SSA construction run. Promoted variables get dense indices
/// (position in SSAResult::PromotedVars), definition stacks live in a
/// flat vector-of-vectors over those indices, and every table is flat
/// over the procedure's instruction stream or dense block positions.
class SSABuilder {
public:
  SSABuilder(const Procedure &P, const ModRefInfo &MRI)
      : P(P), Stream(P.instStream()), MRI(MRI) {}

  SSAResult run();

private:
  void collectPromotedVars();
  void placeCallOutsAndPhis(const DominatorTree &DT,
                            const DominanceFrontier &DF);
  void rename(const DominatorTree &DT);
  void renameBlock(BasicBlock *BB,
                   std::vector<std::pair<uint32_t, Value *>> &Popped);

  Value *currentDef(uint32_t Idx) {
    assert(!Defs[Idx].empty() &&
           "promoted variable without a reaching definition");
    return Defs[Idx].back();
  }

  void pushDef(uint32_t Idx, Value *V,
               std::vector<std::pair<uint32_t, Value *>> &Popped) {
    Defs[Idx].push_back(V);
    Popped.push_back({Idx, V});
  }

  const Procedure &P;
  const Procedure::InstStream &Stream;
  const ModRefInfo &MRI;
  SSAResult Result;
  std::vector<std::vector<Value *>> Defs; ///< by promoted-var index
};

} // namespace

void SSABuilder::collectPromotedVars() {
  auto Add = [&](Variable *Var) {
    if (Var->isScalar() &&
        Result.VarIndex.emplace(Var, uint32_t(Result.PromotedVars.size()))
            .second)
      Result.PromotedVars.push_back(Var);
  };
  for (Variable *F : P.formals())
    Add(F);
  for (Variable *L : P.locals())
    Add(L);
  Result.FirstGlobal = uint32_t(Result.PromotedVars.size());
  for (Variable *G : MRI.extendedGlobals(&P))
    Add(G);
}

void SSABuilder::placeCallOutsAndPhis(const DominatorTree &DT,
                                      const DominanceFrontier &DF) {
  size_t NumVars = Result.PromotedVars.size();
  size_t NumBlocks = Stream.numBlocks();
  size_t StreamSize = Stream.size();

  // One walk over the reachable blocks gathers each variable's
  // definition sites (entry, stores, killing calls) and lays out the
  // CallOuts and CallIn rows in stream order.
  std::vector<std::vector<BasicBlock *>> DefBlocks(NumVars);
  for (uint32_t I = 0; I != NumVars; ++I)
    DefBlocks[I].push_back(P.getEntryBlock());
  auto NoteDef = [&](int32_t Idx, BasicBlock *BB) {
    if (DefBlocks[Idx].back() != BB)
      DefBlocks[Idx].push_back(BB);
  };
  std::vector<std::pair<CallInst *, Variable *>> Outs;
  Result.OutBegin.assign(NumBlocks + 1, 0);
  for (size_t BI = 0; BI != NumBlocks; ++BI) {
    BasicBlock *BB = P.blocks()[BI];
    Result.OutBegin[BI] = uint32_t(Outs.size());
    if (!DT.isReachable(BB))
      continue;
    const Procedure::InstStream::Span &Span = Stream.Spans[BI];
    for (uint32_t I = Span.Begin; I != Span.End; ++I) {
      Instruction *Inst = Stream.Insts[I];
      if (const auto *Store = dyn_cast<StoreInst>(Inst)) {
        int32_t Idx = Result.indexOf(Store->getVariable());
        if (Idx >= 0)
          NoteDef(Idx, BB);
      } else if (auto *Call = dyn_cast<CallInst>(Inst)) {
        Result.Calls.push_back(I);
        for (Variable *Killed : MRI.callKills(Call)) {
          int32_t Idx = Result.indexOf(Killed);
          if (Idx < 0)
            continue;
          NoteDef(Idx, BB);
          Outs.push_back({Call, Killed});
        }
      }
    }
  }
  Result.OutBegin[NumBlocks] = uint32_t(Outs.size());
  Result.CallIns.resize(Result.Calls.size() * Result.numGlobals());

  // Iterated dominance frontier per variable. The HasPhi / queued marks
  // are generation-stamped by variable index so the flat tables are
  // allocated once. Placements are recorded as (block, variable) and
  // laid out per block afterwards.
  std::vector<std::pair<uint32_t, uint32_t>> Placed;
  std::vector<uint32_t> HasPhi(NumBlocks, ~0u), Queued(HasPhi);
  std::vector<BasicBlock *> Work;
  for (uint32_t VI = 0; VI != NumVars; ++VI) {
    Work.assign(DefBlocks[VI].begin(), DefBlocks[VI].end());
    for (BasicBlock *BB : Work)
      Queued[BB->getDensePos()] = VI;
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      for (BasicBlock *Frontier : DF.frontier(BB)) {
        uint32_t Pos = Frontier->getDensePos();
        if (HasPhi[Pos] == VI)
          continue;
        HasPhi[Pos] = VI;
        Placed.push_back({Pos, VI});
        if (Queued[Pos] != VI) {
          Queued[Pos] = VI;
          Work.push_back(Frontier);
        }
      }
    }
  }

  // Group the phis by block, latest placement first, and number every
  // side value after the stream: phis, then CallOuts. Their IDs, which
  // only printing reads, start past every ID the module handed out.
  Result.PhiBegin.assign(NumBlocks + 1, 0);
  for (const auto &[Pos, VI] : Placed)
    ++Result.PhiBegin[Pos + 1];
  for (size_t BI = 0; BI != NumBlocks; ++BI)
    Result.PhiBegin[BI + 1] += Result.PhiBegin[BI];
  std::vector<uint32_t> Slot(Placed.size());
  std::vector<uint32_t> Cursor(Result.PhiBegin.begin(),
                               Result.PhiBegin.end() - 1);
  for (size_t I = Placed.size(); I-- != 0;)
    Slot[Cursor[Placed[I].first]++] = Placed[I].second;
  uint64_t SideId = P.getModule()->instIdBound();
  Result.Phis.reserve(Placed.size());
  for (size_t BI = 0; BI != NumBlocks; ++BI)
    for (uint32_t I = Result.PhiBegin[BI]; I != Result.PhiBegin[BI + 1]; ++I) {
      PhiInst &Phi = Result.Phis.emplace_back(SideId + I, SourceLoc(),
                                              Result.PromotedVars[Slot[I]]);
      Phi.setParent(P.blocks()[BI]);
      Phi.setLocalIdx(uint32_t(StreamSize + I));
    }

  Result.CallOuts.reserve(Outs.size());
  for (const auto &[Call, Killed] : Outs) {
    uint32_t I = uint32_t(Placed.size() + Result.CallOuts.size());
    CallOutInst &Out = Result.CallOuts.emplace_back(SideId + I, Call->getLoc(),
                                                    Call, Killed);
    Out.setParent(Call->getParent());
    Out.setLocalIdx(uint32_t(StreamSize + I));
  }
}

void SSABuilder::renameBlock(
    BasicBlock *BB, std::vector<std::pair<uint32_t, Value *>> &Popped) {
  uint32_t Pos = BB->getDensePos();
  for (uint32_t I = Result.PhiBegin[Pos]; I != Result.PhiBegin[Pos + 1]; ++I) {
    PhiInst &Phi = Result.Phis[I];
    pushDef(Result.indexOf(Phi.getVariable()), &Phi, Popped);
  }

  // This block's calls and CallOuts are contiguous runs of the stream-
  // ordered tables.
  const Procedure::InstStream::Span &Span = Stream.Spans[Pos];
  size_t Row = std::lower_bound(Result.Calls.begin(), Result.Calls.end(),
                                Span.Begin) -
               Result.Calls.begin();
  uint32_t NextOut = Result.OutBegin[Pos];
  size_t Width = Result.numGlobals();
  for (uint32_t I = Span.Begin; I != Span.End; ++I) {
    Instruction *Inst = Stream.Insts[I];
    if (auto *Load = dyn_cast<LoadInst>(Inst)) {
      int32_t Idx = Result.indexOf(Load->getVariable());
      if (Idx >= 0)
        Result.Replacements[I] = currentDef(Idx);
    } else if (auto *Store = dyn_cast<StoreInst>(Inst)) {
      int32_t Idx = Result.indexOf(Store->getVariable());
      if (Idx < 0)
        continue;
      Value *Stored = Result.resolve(Store->getValueOperand());
      Result.Replacements[I] = Stored;
      pushDef(Idx, Stored, Popped);
    } else if (auto *Call = dyn_cast<CallInst>(Inst)) {
      // Snapshot the globals' reaching definitions at the call, before its
      // own effects (CallOuts) are pushed.
      Value **CallIn = Result.CallIns.data() + Row++ * Width;
      for (size_t G = 0; G != Width; ++G)
        CallIn[G] = currentDef(uint32_t(Result.FirstGlobal + G));
      for (; NextOut != Result.OutBegin[Pos + 1] &&
             Result.CallOuts[NextOut].getCall() == Call;
           ++NextOut) {
        CallOutInst &Out = Result.CallOuts[NextOut];
        pushDef(Result.indexOf(Out.getVariable()), &Out, Popped);
      }
    }
  }

  // Feed phi operands of successors.
  for (unsigned SI = 0, SE = BB->getNumSuccessors(); SI != SE; ++SI) {
    uint32_t Succ = BB->getSuccessor(SI)->getDensePos();
    for (uint32_t I = Result.PhiBegin[Succ]; I != Result.PhiBegin[Succ + 1];
         ++I) {
      PhiInst &Phi = Result.Phis[I];
      Phi.addIncoming(currentDef(Result.indexOf(Phi.getVariable())), BB);
    }
  }

  if (BB == P.getExitBlock()) {
    Result.ExitValues.resize(Result.PromotedVars.size());
    for (uint32_t VI = 0, E = Result.PromotedVars.size(); VI != E; ++VI)
      Result.ExitValues[VI] = currentDef(VI);
  }
}

void SSABuilder::rename(const DominatorTree &DT) {
  Result.Replacements.assign(Stream.size(), nullptr);

  // Initialize reaching definitions at entry.
  Defs.resize(Result.PromotedVars.size());
  for (uint32_t VI = 0, E = Result.PromotedVars.size(); VI != E; ++VI) {
    Variable *Var = Result.PromotedVars[VI];
    Value *Init = Var->isLocal()
                      ? static_cast<Value *>(P.getModule()->getUndef())
                      : static_cast<Value *>(P.getEntryValue(Var));
    Defs[VI].push_back(Init);
  }

  // Iterative pre-order walk of the dominator tree with scoped def stacks.
  struct Frame {
    BasicBlock *BB;
    size_t NextChild = 0;
    std::vector<std::pair<uint32_t, Value *>> Pushed;
    bool Entered = false;
  };
  std::vector<Frame> Stack;
  Stack.push_back({P.getEntryBlock(), 0, {}, false});
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (!F.Entered) {
      F.Entered = true;
      renameBlock(F.BB, F.Pushed);
    }
    const std::vector<BasicBlock *> &Kids = DT.children(F.BB);
    if (F.NextChild < Kids.size()) {
      BasicBlock *Child = Kids[F.NextChild++];
      Stack.push_back({Child, 0, {}, false});
      continue;
    }
    // Leaving this block: pop its definitions (in reverse).
    for (auto It = F.Pushed.rbegin(); It != F.Pushed.rend(); ++It) {
      std::vector<Value *> &VarStack = Defs[It->first];
      assert(!VarStack.empty() && VarStack.back() == It->second &&
             "definition stack corrupted");
      VarStack.pop_back();
    }
    Stack.pop_back();
  }
}

SSAResult SSABuilder::run() {
  collectPromotedVars();
  auto DT = std::make_shared<DominatorTree>(P);
  DominanceFrontier DF(P, *DT);
  placeCallOutsAndPhis(*DT, DF);
  rename(*DT);
  Result.DomTree = std::move(DT);
  return std::move(Result);
}

SSAResult ipcp::constructSSA(const Procedure &P, const ModRefInfo &MRI) {
  SSABuilder Builder(P, MRI);
  return Builder.run();
}

void ipcp::verifySSA(const Procedure &P, const SSAResult &SSA,
                     std::vector<std::string> &Errors) {
  auto Report = [&](const std::string &Message) {
    Errors.push_back("proc '" + P.getName() + "': " + Message);
  };
  const Procedure::InstStream &Stream = P.instStream();
  if (SSA.Replacements.size() != Stream.size() ||
      SSA.PhiBegin.size() != Stream.numBlocks() + 1 ||
      SSA.OutBegin.size() != Stream.numBlocks() + 1 || !SSA.DomTree) {
    Report("SSA tables do not match the instruction stream");
    return;
  }
  const DominatorTree &DT = *SSA.DomTree;
  for (size_t BI = 0; BI != Stream.numBlocks(); ++BI) {
    const BasicBlock *BB = P.blocks()[BI];
    bool Reachable = DT.isReachable(BB);
    for (uint32_t I = Stream.Spans[BI].Begin; I != Stream.Spans[BI].End;
         ++I) {
      const Instruction *Inst = Stream.Insts[I];
      const Variable *Var = nullptr;
      if (const auto *Load = dyn_cast<LoadInst>(Inst))
        Var = Load->getVariable();
      else if (const auto *Store = dyn_cast<StoreInst>(Inst))
        Var = Store->getVariable();
      bool Promoted = Var && SSA.indexOf(Var) >= 0 && Reachable;
      Value *Def = SSA.Replacements[I];
      if (Promoted != (Def != nullptr))
        Report("scalar load/store %" + std::to_string(Inst->getId()) +
               (Promoted ? " is promoted but has no SSA value"
                         : " has an SSA value but is not promoted"));
      else if (Def && (SSA.resolve(Def) != Def || !Def->producesValue()))
        Report("load/store %" + std::to_string(Inst->getId()) +
               " resolves to something other than an SSA value");
      if (const auto *Call = dyn_cast<CallInst>(Inst)) {
        std::span<Value *const> Row = SSA.callInRow(Call);
        if (Reachable && SSA.numGlobals() &&
            (Row.empty() || std::count(Row.begin(), Row.end(), nullptr)))
          Report("call %" + std::to_string(Call->getId()) +
                 " has no complete CallIn row");
      }
    }

    std::vector<const BasicBlock *> Preds;
    for (const BasicBlock *Pred : BB->predecessors())
      if (DT.isReachable(Pred))
        Preds.push_back(Pred);
    std::sort(Preds.begin(), Preds.end());
    for (const PhiInst &Phi : SSA.phisOf(BB)) {
      std::vector<const BasicBlock *> Incoming;
      for (unsigned I = 0, E = Phi.getNumIncoming(); I != E; ++I) {
        Incoming.push_back(Phi.getIncomingBlock(I));
        const Value *V = Phi.getIncomingValue(I);
        if (!V || SSA.resolve(V) != V || !V->producesValue())
          Report("phi for '" + std::string(Phi.getVariable()->getName()) +
                 "' in '" + std::string(BB->getName()) +
                 "' has an incoming non-SSA value");
      }
      std::sort(Incoming.begin(), Incoming.end());
      if (Phi.getParent() != BB || Incoming != Preds)
        Report("phi for '" + std::string(Phi.getVariable()->getName()) +
               "' in '" + std::string(BB->getName()) +
               "' disagrees with the block's reachable predecessors");
    }
    for (const CallOutInst &Out : SSA.callOutsOf(BB))
      if (Out.getParent() != BB || Out.getCall()->getParent() != BB)
        Report("CallOut of '" + std::string(Out.getVariable()->getName()) +
               "' is not in its call's block '" + std::string(BB->getName()) +
               "'");
  }

  const BasicBlock *Exit = P.getExitBlock();
  bool ExitReachable = Exit && DT.isReachable(Exit);
  if (SSA.ExitValues.size() !=
      (ExitReachable ? SSA.PromotedVars.size() : size_t(0)))
    Report("exit values do not match the exit block's reachability");
}
