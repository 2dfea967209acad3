//===- ir/CloneUtil.h - Reusable instruction cloning ------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mapping tables and per-instruction cloning used by Module::clone,
/// Module::cloneProcedure, and the inliner. Pre-SSA instructions only
/// (no phis, entry values, or call-outs).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_CLONEUTIL_H
#define IPCP_IR_CLONEUTIL_H

#include "ir/Module.h"

#include <cassert>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// Identity maps for one cloning operation. Variables and instructions
/// are keyed by their module-unique IDs into dense vectors sized from the
/// source module's ID bounds — pointer-keyed hash maps dominated the
/// profile of whole-module clones. Procedures and blocks are few; they
/// stay in small hash maps.
///
/// Populate vars/procs/blocks before cloning instructions; values fill as
/// instructions are cloned in def-before-use order.
struct IRCloneMaps {
  /// Sizes the dense tables from \p Src's ID counters. Every key passed
  /// to mapVar/mapValue must be owned by \p Src (its ID is below the
  /// bound at construction time).
  explicit IRCloneMaps(const Module &Src)
      : Vars(Src.varIdBound(), nullptr), Values(Src.instIdBound(), nullptr) {}

  std::vector<Variable *> Vars;       ///< by source Variable::getId()
  std::vector<Value *> Values;        ///< by source Instruction::getId()
  std::vector<Instruction *> Clones;  ///< every mapped clone, in order
  std::unordered_map<const Procedure *, Procedure *> Procs;
  std::unordered_map<const BasicBlock *, BasicBlock *> Blocks;
  /// Reused while cloning each call's actual list.
  std::vector<CallActual> ActualScratch;

  void mapVar(const Variable *Old, Variable *New) {
    assert(Old->getId() < Vars.size() && "variable outside the source module");
    Vars[Old->getId()] = New;
  }

  void mapValue(const Instruction *Old, Instruction *New) {
    assert(Old->getId() < Values.size() &&
           "instruction outside the source module");
    Values[Old->getId()] = New;
    Clones.push_back(New);
  }

  Variable *var(const Variable *Old) const {
    if (!Old)
      return nullptr;
    assert(Old->getId() < Vars.size() && Vars[Old->getId()] &&
           "unmapped variable in clone");
    return Vars[Old->getId()];
  }

  BasicBlock *block(const BasicBlock *Old) const {
    auto It = Blocks.find(Old);
    assert(It != Blocks.end() && "unmapped block in clone");
    return It->second;
  }

  /// The clone of \p Old, or null when \p Old is not a mapped source
  /// instruction (fresh-ID clones land outside the table by design).
  Value *valueOrNull(const Value *Old) const {
    const auto *Inst = dyn_cast<Instruction>(Old);
    if (!Inst || Inst->getId() >= Values.size())
      return nullptr;
    return Values[Inst->getId()];
  }
};

/// Clones \p Inst into \p NewP's arena, mapping operands/variables/blocks
/// through \p Maps (constants are re-uniqued in NewP's module). The clone
/// belongs to no block yet. Instruction-valued operands whose clone does
/// not exist yet are left pointing at the *original* value; run
/// patchClonedOperands over all clones afterwards. The clone keeps the
/// original's instruction ID; callers wanting fresh identity must setId
/// afterwards.
Instruction *cloneInstructionWithMaps(const Instruction *Inst,
                                      Procedure &NewP, IRCloneMaps &Maps);

/// Second pass of a cloning operation: rewrites every instruction-valued
/// operand of the cloned instructions through Maps.Values. Every such
/// operand must have been cloned (asserts otherwise) — block order inside
/// the source no longer matters.
void patchClonedOperands(IRCloneMaps &Maps);

} // namespace ipcp

#endif // IPCP_IR_CLONEUTIL_H
