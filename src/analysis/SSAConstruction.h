//===- analysis/SSAConstruction.h - Scalar promotion ------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the SSA form of one procedure from its pre-SSA body (scalar
/// Load/Store), following Cytron et al. [8 in the paper]: phi placement at
/// iterated dominance frontiers of definition sites, then a renaming walk
/// over the dominator tree.
///
/// Promoted variables are the procedure's formals, its scalar locals, and
/// the extended globals supplied by MOD/REF analysis. Three kinds of
/// definitions exist:
///
///  - StoreInst — ordinary assignment;
///  - procedure entry — formals and globals start at their EntryValue
///    (the unknowns jump functions range over);
///  - CallInst — a call defines every location in its kill set (the
///    MOD-bound by-reference actuals and the callee's modified globals);
///    SSA construction materializes these as CallOutInst definitions,
///    which the jump-function builders resolve through return jump
///    functions.
///
/// The body is only read. SSA form lives in side tables over it, keyed by
/// the flat instruction stream (Instruction::getLocalIdx()) and dense
/// block positions:
///
///  - each promoted load maps to its reaching definition, and each
///    promoted store to the value it stores (resolve() applies the first;
///    readers skip both kinds of access);
///  - phis and CallOuts are PhiInst/CallOutInst values owned by the
///    result and never inserted into a block. Their parent pointer names
///    the block they belong to, and their local indices continue the
///    stream: phis from instStream().size() on, then the CallOuts, so one
///    dense table can hold a lattice cell for every SSA value;
///  - exit values form one vector over PromotedVars;
///  - each call in a reachable block has one CallIn row: the SSA value of
///    every promoted global just before the call.
///
/// The tables stay valid as long as the procedure's instruction stream
/// does (no instruction or block mutation).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_SSACONSTRUCTION_H
#define IPCP_ANALYSIS_SSACONSTRUCTION_H

#include "ir/Dominators.h"
#include "analysis/ModRef.h"
#include "ir/Module.h"

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// Output of SSA construction for one procedure. Move-only: the side
/// values point at one another.
struct SSAResult {
  SSAResult() = default;
  SSAResult(SSAResult &&) = default;
  SSAResult &operator=(SSAResult &&) = default;
  SSAResult(const SSAResult &) = delete;
  SSAResult &operator=(const SSAResult &) = delete;

  /// The variables that were promoted, in deterministic order: formals,
  /// scalar locals, then the extended globals from FirstGlobal on.
  std::vector<Variable *> PromotedVars;
  uint32_t FirstGlobal = 0;

  /// Position of \p Var in PromotedVars, or -1 when it is not promoted.
  int32_t indexOf(const Variable *Var) const {
    auto It = VarIndex.find(Var);
    return It == VarIndex.end() ? -1 : int32_t(It->second);
  }

  /// By Instruction::getLocalIdx(): a promoted load's reaching
  /// definition, or the value a promoted store stores. Null for every
  /// other instruction and for accesses in unreachable blocks. Its size
  /// is the stream size the side values' indices continue from.
  std::vector<Value *> Replacements;

  /// True for a promoted load or store, which SSA form drops.
  bool isPromotedAccess(const Instruction *Inst) const {
    return Inst->getLocalIdx() < Replacements.size() &&
           Replacements[Inst->getLocalIdx()];
  }

  /// The value \p V stands for in SSA form: a promoted load's reaching
  /// definition, otherwise \p V itself.
  Value *resolve(Value *V) const {
    const auto *Load = dyn_cast<LoadInst>(V);
    Value *Def = Load && Load->getLocalIdx() < Replacements.size()
                     ? Replacements[Load->getLocalIdx()]
                     : nullptr;
    return Def ? Def : V;
  }
  const Value *resolve(const Value *V) const {
    return resolve(const_cast<Value *>(V));
  }

  /// Side phis grouped by block: those of the block at dense position B
  /// are Phis[PhiBegin[B] .. PhiBegin[B + 1]).
  std::vector<PhiInst> Phis;
  std::vector<uint32_t> PhiBegin;

  /// Side CallOuts in stream order: those of the block at dense position
  /// B are CallOuts[OutBegin[B] .. OutBegin[B + 1]), each call's in its
  /// kill-set order.
  std::vector<CallOutInst> CallOuts;
  std::vector<uint32_t> OutBegin;

  std::span<const PhiInst> phisOf(const BasicBlock *BB) const {
    uint32_t Pos = BB->getDensePos();
    return {Phis.data() + PhiBegin[Pos], Phis.data() + PhiBegin[Pos + 1]};
  }
  std::span<const CallOutInst> callOutsOf(const BasicBlock *BB) const {
    uint32_t Pos = BB->getDensePos();
    return {CallOuts.data() + OutBegin[Pos],
            CallOuts.data() + OutBegin[Pos + 1]};
  }

  /// Number of lattice cells a solver needs: the stream plus every side
  /// value.
  size_t numValues() const {
    return Replacements.size() + Phis.size() + CallOuts.size();
  }

  /// The side value with local index \p Idx (at least the stream size).
  const Instruction *sideValue(uint32_t Idx) const {
    size_t I = Idx - Replacements.size();
    return I < Phis.size()
               ? static_cast<const Instruction *>(&Phis[I])
               : static_cast<const Instruction *>(&CallOuts[I - Phis.size()]);
  }

  /// The calls of reachable blocks in stream order (by local index), with
  /// their CallIn rows: CallIns[Row * numGlobals() ..] for Calls[Row].
  std::vector<uint32_t> Calls;
  std::vector<Value *> CallIns;

  size_t numGlobals() const { return PromotedVars.size() - FirstGlobal; }

  /// The globals' SSA values just before \p Call, one per promoted
  /// global; empty for a call in an unreachable block.
  std::span<Value *const> callInRow(const CallInst *Call) const;

  /// SSA value of global \p G just before \p Call (excluding the call's
  /// own effects), or null when \p G is not promoted here. Forward jump
  /// functions for globals read "the value of g at call site s" from
  /// here, and return jump function substitution uses it for globals in
  /// the callee's support.
  Value *callIn(const CallInst *Call, const Variable *G) const;

  /// SSA value of each promoted variable at the Ret, by PromotedVars
  /// index; empty when the procedure has no reachable exit (it can only
  /// loop forever).
  std::vector<Value *> ExitValues;

  /// \p Var's value at the Ret, or null when it is not promoted or the
  /// exit is unreachable.
  Value *exitValue(const Variable *Var) const {
    int32_t Idx = indexOf(Var);
    return Idx < 0 || ExitValues.empty() ? nullptr : ExitValues[Idx];
  }

  /// The dominator tree used during construction; the gated-SSA jump
  /// function generator uses it to resolve phis whose controlling branch
  /// condition is constant.
  std::shared_ptr<const DominatorTree> DomTree;

  /// PromotedVars positions, for indexOf().
  std::unordered_map<const Variable *, uint32_t> VarIndex;
};

/// Builds the SSA form of \p P as side tables. \p MRI supplies call kill
/// sets and the extended-global set. \p P is not modified; the only state
/// it fills in is its lazy instruction stream and entry values.
SSAResult constructSSA(const Procedure &P, const ModRefInfo &MRI);

/// Checks \p SSA against \p P: every promoted access in a reachable block
/// is marked and every promoted load resolves to a value that is not a
/// load, phis match their block's reachable predecessors, CallOuts sit
/// with their call, every reachable call has a complete CallIn row, and
/// exit values exist exactly when the exit is reachable. Appends
/// human-readable violations to \p Errors.
void verifySSA(const Procedure &P, const SSAResult &SSA,
               std::vector<std::string> &Errors);

} // namespace ipcp

#endif // IPCP_ANALYSIS_SSACONSTRUCTION_H
