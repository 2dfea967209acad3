//===- analysis/SCCP.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SCCP.h"

#include "support/Casting.h"
#include "support/Trace.h"

#include <cassert>

using namespace ipcp;

LatticeValue SCCPResult::valueOf(const Value *V) const {
  V = SSA->resolve(V);
  if (const auto *Inst = dyn_cast<Instruction>(V)) {
    assert(Inst->getLocalIdx() < InstValues.size() &&
           "instruction outside the analyzed procedure");
    return InstValues[Inst->getLocalIdx()];
  }
  if (const auto *C = dyn_cast<ConstantInt>(V))
    return LatticeValue::constant(C->getValue());
  if (const auto *Entry = dyn_cast<EntryValue>(V)) {
    auto It = EntrySeeds.find(Entry->getVariable());
    return It == EntrySeeds.end() ? LatticeValue::bottom() : It->second;
  }
  assert(isa<UndefValue>(V) && "unexpected value kind");
  return LatticeValue::bottom(); // defensive: undef is never constant
}

unsigned SCCPResult::constantValueCount() const {
  unsigned Count = 0;
  for (LatticeValue LV : InstValues)
    if (LV.isConstant())
      ++Count;
  return Count;
}

namespace {

/// One SCCP fixpoint computation, writing straight into the result's
/// dense tables. Def-use chains are a CSR adjacency over local value
/// indices (the stream, then the side phis and CallOuts); worklists are
/// plain index vectors (duplicates allowed — each pop re-checks
/// executability and monotonicity). Promoted loads and stores are never
/// pushed: their cells stay top.
class SCCPSolverImpl {
public:
  SCCPSolverImpl(const Procedure &P, const SSAResult &SSA,
                 const SCCPOptions &Options, const SCCPResult &R,
                 std::vector<LatticeValue> &InstValues,
                 std::vector<char> &ExecBlocks,
                 std::vector<std::array<char, 2>> &ExecEdges)
      : P(P), Stream(P.instStream()), SSA(SSA), Options(Options), R(R),
        InstValues(InstValues), ExecBlocks(ExecBlocks), ExecEdges(ExecEdges) {
    assert(SSA.Replacements.size() == Stream.size() &&
           "SSA form of a different instruction stream");
  }

  void solve();

private:
  const Instruction *instAt(uint32_t I) const {
    return I < Stream.size() ? Stream.Insts[I] : SSA.sideValue(I);
  }
  const CallOutBinding &bindingOf(const Instruction *Out) const {
    return Bindings[Out->getLocalIdx() - Stream.size() - SSA.Phis.size()];
  }
  void pushPhis(const BasicBlock *BB) {
    for (const PhiInst &Phi : SSA.phisOf(BB))
      InstWork.push_back(Phi.getLocalIdx());
  }
  void buildUses();
  void markBlockExecutable(const BasicBlock *BB);
  void markEdgeExecutable(const BasicBlock *From, unsigned Slot);
  void setValue(const Instruction *Inst, LatticeValue NewVal);
  LatticeValue evaluate(const Instruction *Inst);

  const Procedure &P;
  const Procedure::InstStream &Stream;
  const SSAResult &SSA;
  const SCCPOptions &Options;
  const SCCPResult &R;
  std::vector<LatticeValue> &InstValues;
  std::vector<char> &ExecBlocks;
  std::vector<std::array<char, 2>> &ExecEdges;

  /// CSR def-use chains: users of value i live in
  /// UseList[UseOffsets[i] .. UseOffsets[i+1]).
  std::vector<uint32_t> UseOffsets;
  std::vector<uint32_t> UseList;

  std::vector<uint32_t> InstWork; ///< local instruction indices (LIFO)
  std::vector<uint32_t> EdgeWork; ///< (block pos << 1) | successor slot

  /// BindCallOut's answer for each side CallOut, in SSA.CallOuts order.
  std::vector<CallOutBinding> Bindings;
  std::vector<LatticeValue> InputValues; ///< scratch for one evaluation
};

} // namespace

void SCCPSolverImpl::buildUses() {
  size_t N = SSA.numValues();
  UseOffsets.assign(N + 1, 0);

  Bindings.resize(SSA.CallOuts.size());
  if (Options.BindCallOut)
    for (size_t I = 0; I != SSA.CallOuts.size(); ++I)
      Bindings[I] = Options.BindCallOut(&SSA.CallOuts[I]);

  // Pass 1: count uses per definition; pass 2: fill the CSR list. Both
  // walk every visited value's resolved operands; a CallOut (which has
  // none) depends on its binding's inputs instead.
  auto ForEachDep = [&](const Instruction *Inst, auto Fn) {
    auto DependOn = [&](const Value *Op) {
      const Value *Def = Op ? SSA.resolve(Op) : nullptr;
      if (Def && Def->isInstruction())
        Fn(static_cast<const Instruction *>(Def));
    };
    for (const Value *Op : Inst->operands())
      DependOn(Op);
    if (isa<CallOutInst>(Inst))
      for (const Value *In : bindingOf(Inst).Inputs)
        DependOn(In);
  };
  // Every visited value: the stream minus promoted accesses, then the
  // side phis and CallOuts.
  auto ForEachUser = [&](auto Fn) {
    for (uint32_t I = 0; I != N; ++I)
      if (I >= Stream.size() || !SSA.Replacements[I])
        Fn(I, instAt(I));
  };

  ForEachUser([&](uint32_t, const Instruction *Inst) {
    ForEachDep(Inst, [&](const Instruction *Def) {
      ++UseOffsets[Def->getLocalIdx() + 1];
    });
  });
  for (size_t I = 0; I != N; ++I)
    UseOffsets[I + 1] += UseOffsets[I];

  UseList.resize(UseOffsets[N]);
  std::vector<uint32_t> Cursor(UseOffsets.begin(), UseOffsets.end() - 1);
  ForEachUser([&](uint32_t User, const Instruction *Inst) {
    ForEachDep(Inst, [&](const Instruction *Def) {
      UseList[Cursor[Def->getLocalIdx()]++] = User;
    });
  });
}

void SCCPSolverImpl::markBlockExecutable(const BasicBlock *BB) {
  if (ExecBlocks[BB->getDensePos()])
    return;
  ExecBlocks[BB->getDensePos()] = 1;
  pushPhis(BB);
  const Procedure::InstStream::Span &Span = Stream.Spans[BB->getDensePos()];
  for (uint32_t I = Span.Begin; I != Span.End; ++I)
    if (!SSA.Replacements[I])
      InstWork.push_back(I);
  for (const CallOutInst &Out : SSA.callOutsOf(BB))
    InstWork.push_back(Out.getLocalIdx());
}

void SCCPSolverImpl::markEdgeExecutable(const BasicBlock *From,
                                        unsigned Slot) {
  if (ExecEdges[From->getDensePos()][Slot])
    return;
  ExecEdges[From->getDensePos()][Slot] = 1;
  const BasicBlock *To = From->getSuccessor(Slot);
  if (ExecBlocks[To->getDensePos()]) {
    // Only the phis can change when an additional edge becomes live.
    pushPhis(To);
    return;
  }
  markBlockExecutable(To);
}

void SCCPSolverImpl::setValue(const Instruction *Inst, LatticeValue NewVal) {
  LatticeValue &Cell = InstValues[Inst->getLocalIdx()];
  // Monotonicity: only ever lower.
  LatticeValue Lowered = meet(Cell, NewVal);
  if (Lowered == Cell)
    return;
  Cell = Lowered;
  uint32_t Idx = Inst->getLocalIdx();
  for (uint32_t U = UseOffsets[Idx], E = UseOffsets[Idx + 1]; U != E; ++U)
    InstWork.push_back(UseList[U]);
}

LatticeValue SCCPSolverImpl::evaluate(const Instruction *Inst) {
  auto Get = [&](const Value *V) { return R.valueOf(V); };
  std::span<Value *const> Op = Inst->operands();

  switch (Inst->getKind()) {
  case ValueKind::Binary: {
    const auto *Bin = cast<BinaryInst>(Inst);
    LatticeValue L = Get(Op[0]);
    LatticeValue Rv = Get(Op[1]);
    if (L.isBottom() || Rv.isBottom())
      return LatticeValue::bottom();
    if (L.isTop() || Rv.isTop())
      return LatticeValue::top();
    if (auto Folded =
            foldBinary(Bin->getOp(), L.getConstant(), Rv.getConstant()))
      return LatticeValue::constant(*Folded);
    return LatticeValue::bottom(); // overflow / divide by zero
  }
  case ValueKind::Unary: {
    const auto *Un = cast<UnaryInst>(Inst);
    LatticeValue V = Get(Op[0]);
    if (V.isBottom())
      return LatticeValue::bottom();
    if (V.isTop())
      return LatticeValue::top();
    if (auto Folded = foldUnary(Un->getOp(), V.getConstant()))
      return LatticeValue::constant(*Folded);
    return LatticeValue::bottom();
  }
  case ValueKind::Phi: {
    const auto *Phi = cast<PhiInst>(Inst);
    LatticeValue Merged = LatticeValue::top();
    for (unsigned In = 0, E = Phi->getNumIncoming(); In != E; ++In) {
      const BasicBlock *Pred = Phi->getIncomingBlock(In);
      if (!R.isExecutableEdge(Pred, Inst->getParent()))
        continue;
      Merged = meet(Merged, Get(Op[In]));
      if (Merged.isBottom())
        break;
    }
    return Merged;
  }
  case ValueKind::ArrayLoad:
  case ValueKind::Read:
    return LatticeValue::bottom();
  case ValueKind::CallOut: {
    const CallOutBinding &B = bindingOf(Inst);
    if (!B.Evaluate)
      return LatticeValue::bottom();
    InputValues.clear();
    for (const Value *In : B.Inputs)
      InputValues.push_back(Get(In));
    return B.Evaluate(InputValues);
  }
  case ValueKind::Load:
    // Only loads of non-promoted scalars are visited; treat as opaque.
    return LatticeValue::bottom();
  default:
    assert(!Inst->producesValue() && "unhandled value-producing inst");
    return LatticeValue::bottom();
  }
}

void SCCPSolverImpl::solve() {
  buildUses();
  markBlockExecutable(P.getEntryBlock());

  auto PushEdge = [&](const BasicBlock *From, const BasicBlock *To) {
    unsigned Slot = From->getSuccessor(0) == To ? 0 : 1;
    EdgeWork.push_back((From->getDensePos() << 1) | Slot);
  };

  while (!InstWork.empty() || !EdgeWork.empty()) {
    while (!EdgeWork.empty()) {
      uint32_t Enc = EdgeWork.back();
      EdgeWork.pop_back();
      markEdgeExecutable(P.blocks()[Enc >> 1], Enc & 1);
    }
    if (InstWork.empty())
      break;
    const Instruction *Inst = instAt(InstWork.back());
    InstWork.pop_back();
    if (!R.isExecutable(Inst->getParent()))
      continue;

    if (Inst->producesValue()) {
      setValue(Inst, evaluate(Inst));
      continue;
    }

    if (const auto *Br = dyn_cast<BranchInst>(Inst)) {
      PushEdge(Inst->getParent(), Br->getTarget());
      continue;
    }
    if (const auto *CBr = dyn_cast<CondBranchInst>(Inst)) {
      LatticeValue Cond = R.valueOf(CBr->getCond());
      if (Cond.isTop())
        continue; // not enough evidence yet
      if (Cond.isConstant()) {
        const BasicBlock *Taken = Cond.getConstant() != 0
                                      ? CBr->getTrueTarget()
                                      : CBr->getFalseTarget();
        PushEdge(Inst->getParent(), Taken);
      } else {
        PushEdge(Inst->getParent(), CBr->getTrueTarget());
        PushEdge(Inst->getParent(), CBr->getFalseTarget());
      }
      continue;
    }
    // Stores (non-promoted), prints, calls, rets: no lattice effect.
  }
}

SCCPResult ipcp::runSCCP(const Procedure &P, const SSAResult &SSA,
                         const SCCPOptions &Options) {
  ScopedTraceSpan SolveSpan("sccp", P.getName());
  SCCPResult Result;
  Result.SSA = &SSA;
  Result.EntrySeeds = Options.EntrySeeds;
  const Procedure::InstStream &Stream = P.instStream();
  Result.InstValues.assign(SSA.numValues(), LatticeValue::top());
  Result.ExecBlocks.assign(Stream.numBlocks(), 0);
  Result.ExecEdges.assign(Stream.numBlocks(), {0, 0});
  SCCPSolverImpl Solver(P, SSA, Options, Result, Result.InstValues,
                        Result.ExecBlocks, Result.ExecEdges);
  Solver.solve();
  return Result;
}
