//===- analysis/SCCP.h - Sparse conditional constant prop -------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wegman–Zadeck sparse conditional constant propagation over one
/// procedure's SSA form (analysis/SSAConstruction.h): it reads operands
/// through SSAResult::resolve and visits each block's side phis, its
/// instructions minus the promoted loads and stores, then its calls'
/// side CallOuts. This is the `gcp(y, s)` machinery of the paper:
/// intraprocedural constant propagation coupled with interprocedural MOD
/// information (already folded into the SSA form as CallOut definitions).
///
/// Two hooks make it serve every configuration of the study:
///  - \c EntrySeeds injects interprocedural constants for formals and
///    globals (the CONSTANTS(p) sets); a missing seed means bottom, and
///    an empty map yields the plain intraprocedural baseline of Table 3;
///  - \c BindCallOut resolves the value of a location after a call,
///    implemented by the core library through return jump functions; the
///    default declines (bottom), modeling the no-return-jump-function
///    configurations.
///
/// Branch conditions with constant values keep the untaken edge
/// non-executable, which is also how dead code is detected for the
/// "complete propagation" experiment.
///
/// The solver is data-oriented: lattice cells live in one flat vector
/// indexed by the procedure's flat instruction stream
/// (Instruction::getLocalIdx(), which the side values continue),
/// executable-block and executable-edge
/// flags are bitmaps over dense block positions, and def-use chains are a
/// CSR adjacency built in two passes. The result stays valid as long as
/// the procedure's stream and its SSAResult do.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_SCCP_H
#define IPCP_ANALYSIS_SCCP_H

#include "analysis/SSAConstruction.h"
#include "core/Lattice.h"
#include "ir/Module.h"

#include <array>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// How one CallOut's value is computed: the SSA values it reads and a
/// function of their lattice values, passed in the same order. Evaluate
/// sees nothing but Inputs, so re-evaluating the CallOut whenever one of
/// them changes is exact.
struct CallOutBinding {
  std::vector<const Value *> Inputs;
  /// Null means the CallOut is bottom.
  std::function<LatticeValue(std::span<const LatticeValue>)> Evaluate;
};

/// Configuration for one SCCP run.
struct SCCPOptions {
  /// Lattice values of EntryValues; variables not present are bottom.
  std::unordered_map<Variable *, LatticeValue> EntrySeeds;

  /// Binds each CallOut once, before solving. Null means every CallOut
  /// is bottom.
  std::function<CallOutBinding(const CallOutInst *)> BindCallOut;
};

/// Fixpoint result of one SCCP run.
class SCCPResult {
public:
  /// Lattice value of \p V at fixpoint; a promoted load reports its
  /// reaching definition's. Values in never-executed blocks report top.
  /// Instructions must belong to the analyzed procedure or its SSAResult.
  LatticeValue valueOf(const Value *V) const;

  /// Whether any path from the entry can reach \p BB.
  bool isExecutable(const BasicBlock *BB) const {
    return ExecBlocks[BB->getDensePos()] != 0;
  }

  /// Whether the CFG edge \p From -> \p To can ever be taken.
  bool isExecutableEdge(const BasicBlock *From, const BasicBlock *To) const {
    const std::array<char, 2> &Slots = ExecEdges[From->getDensePos()];
    for (unsigned I = 0, E = From->getNumSuccessors(); I != E; ++I)
      if (Slots[I] && From->getSuccessor(I) == To)
        return true;
    return false;
  }

  /// Number of lattice cells that ended as constants (for statistics).
  unsigned constantValueCount() const;

private:
  friend SCCPResult runSCCP(const Procedure &P, const SSAResult &SSA,
                            const SCCPOptions &Options);

  const SSAResult *SSA = nullptr;
  std::vector<LatticeValue> InstValues;    ///< by Instruction::getLocalIdx()
  std::vector<char> ExecBlocks;            ///< by dense block pos
  std::vector<std::array<char, 2>> ExecEdges; ///< by (block pos, succ slot)
  std::unordered_map<Variable *, LatticeValue> EntrySeeds;
};

/// Runs SCCP on \p P's SSA form \p SSA (constructSSA of \p P).
SCCPResult runSCCP(const Procedure &P, const SSAResult &SSA,
                   const SCCPOptions &Options = {});

} // namespace ipcp

#endif // IPCP_ANALYSIS_SCCP_H
