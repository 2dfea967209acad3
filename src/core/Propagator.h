//===- core/Propagator.h - Interprocedural propagation ----------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interprocedural propagation phase (paper Section 2): iterate the
/// VAL sets over the call graph with "a simple worklist iterative
/// scheme" until no parameter changes. VAL maps each procedure's extended
/// formals (formals plus referenced globals) to lattice values,
/// initialized to top; each call edge lowers the callee's VAL entries by
/// meeting them with the edge's jump function values evaluated in the
/// caller's VAL environment.
///
/// Every solver — this call-graph worklist, the binding multigraph
/// (BindingGraph.h) and value contexts (ValueContexts.h) — numbers VAL
/// through one ValLayout: each procedure's extended formals (formals
/// positionally, then its extended globals in ID order) get consecutive
/// slots, the procedures lie back to back in module order, and VAL is one
/// flat lattice vector over those slots that becomes the ConstantsMap by
/// move. This solver schedules its work over the SCC condensation of the
/// call graph in reverse post-order: each component iterates an inner
/// worklist to its local fixpoint before the sweep moves on, so acyclic
/// regions converge in exactly one visit per procedure and only members
/// of cyclic components ever re-enter a worklist. propagateConstantsFIFO
/// runs the naive all-procedures FIFO worklist instead; both reach the
/// same fixpoint (bench_scaling.cpp measures the visit/evaluation gap).
///
/// The meet runs over every edge of G, including edges inside procedures
/// that are themselves never invoked (their VAL stays top, so their
/// support-carrying jump functions evaluate to top and lower nothing —
/// but their constant jump functions do lower the callee, exactly the
/// conservatism the complete-propagation experiment removes with dead
/// code elimination). The entry procedure, `main`, receives a virtual
/// edge that sets every global to its initial value (zero in MiniFort).
///
/// Because the lattice has depth two, each VAL entry lowers at most
/// twice, bounding total work by O(sum over jump functions of cost(J) *
/// |support(J)|) — the complexity claim of Section 3.1.5, which
/// bench/bench_propagation.cpp measures.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_PROPAGATOR_H
#define IPCP_CORE_PROPAGATOR_H

#include "core/ForwardJumpFunctions.h"
#include "support/ResourceGuard.h"

#include <span>
#include <vector>

namespace ipcp {

/// The extended-formal numbering (paper Section 2) that every VAL solver,
/// ConstantsMap and cloning share. Row PI is the procedure with
/// Procedure::getModuleIndex() == PI: its formals positionally, then its
/// extended globals (MRI.extendedGlobals) in ID order. The rows lie back
/// to back in one flat slot space. A call site's forward jump functions
/// are its actuals in order, then the callee's extended globals in the
/// same order, so the k-th jump function of a site targets slot k of its
/// callee's row. Building a layout costs O(procedures + extended
/// formals).
class ValLayout {
public:
  /// The empty layout: no rows.
  ValLayout() = default;

  /// Numbers every procedure of \p CG. The virtual entry edge starts
  /// the globals of `main` (EntryProcedureName) at zero.
  ValLayout(const CallGraph &CG, const ModRefInfo &MRI);

  /// Procedure rows.
  unsigned rows() const { return unsigned(Procs.size()); }

  /// Slots in all rows together.
  uint32_t size() const { return uint32_t(Vars.size()); }

  /// The procedure of row \p PI.
  const Procedure *procedure(unsigned PI) const { return Procs[PI]; }

  /// First slot of row \p PI.
  uint32_t base(unsigned PI) const { return Base[PI]; }

  /// Slots in row \p PI: its formals plus its extended globals.
  uint32_t width(unsigned PI) const { return Base[PI + 1] - Base[PI]; }

  /// Row \p PI's variables in slot order.
  std::span<Variable *const> vars(unsigned PI) const {
    return {Vars.data() + Base[PI], width(PI)};
  }

  /// Slot of \p Var in row \p PI, or ~0u when it is none of that
  /// procedure's extended formals (its value is then top).
  uint32_t slot(unsigned PI, const Variable *Var) const;

  /// Row of `main`, or ~0u when the module has none.
  unsigned entryRow() const { return Entry; }

  /// The virtual entry edge: VAL before any call edge is evaluated. Every
  /// slot is top except the entry procedure's globals, which hold their
  /// initial value (zero in MiniFort).
  std::vector<LatticeValue> initialVal() const;

private:
  std::vector<const Procedure *> Procs; ///< by row
  std::vector<uint32_t> Base;           ///< by row, plus an end sentinel
  std::vector<uint32_t> FirstGlobal;    ///< by row: its first global's slot
  std::vector<Variable *> Vars;         ///< by slot
  unsigned Entry = ~0u;
};

/// The VAL sets at fixpoint; CONSTANTS(p) is derived from them.
///
/// A ValLayout plus one flat lattice vector over it: the solver's own VAL
/// vector, handed over by move. Slots may hold top; every query treats
/// top as the implicit default, and a procedure the map has no row for
/// reads top throughout. The empty map of a tripped solve or an
/// intraprocedural-only run has no rows at all.
class ConstantsMap {
public:
  /// One procedure's VAL row, in slot order.
  struct Row {
    std::span<Variable *const> Vars;
    std::span<const LatticeValue> Vals;
  };

  /// The empty map: "no interprocedural constants".
  ConstantsMap() = default;

  /// A fixpoint over \p Layout; \p Vals holds one value per slot.
  ConstantsMap(ValLayout Layout, std::vector<LatticeValue> Vals);

  const ValLayout &layout() const { return Layout; }

  /// Every slot's value, in layout order.
  std::span<const LatticeValue> values() const { return Vals; }

  /// VAL(p, var); top when never lowered.
  LatticeValue valueOf(const Procedure *P, const Variable *Var) const;

  /// The row of \p P (empty when the map has none). Report emission and
  /// the summary cache iterate this directly.
  Row row(const Procedure *P) const;

  /// CONSTANTS(p): the (variable, value) pairs that always hold on entry,
  /// ID-ordered.
  std::vector<std::pair<Variable *, ConstantValue>>
  constantsOf(const Procedure *P) const;

  /// Sum of |CONSTANTS(p)| over all procedures.
  unsigned totalConstants() const;

  /// Non-top VAL entries at fixpoint (the prop_val_entries counter).
  unsigned totalEntries() const;

  /// Structural equality of two fixpoints of one module (same non-top
  /// entries).
  bool equals(const ConstantsMap &Other) const;

private:
  /// Row index of \p P, or ~0u when the map has no row for it.
  unsigned rowOf(const Procedure *P) const;

  ValLayout Layout;
  std::vector<LatticeValue> Vals; ///< by slot
};

/// Work counters substantiating the complexity discussion.
struct PropagatorStats {
  uint64_t ProcVisits = 0;
  uint64_t JumpFunctionEvaluations = 0;
  uint64_t Lowerings = 0;
  /// Visits beyond the first per procedure — zero for acyclic call graphs
  /// under the SCC schedule.
  uint64_t Revisits = 0;
};

/// What the incremental pipeline tells the propagator about cached VAL
/// sets (docs/INCREMENTAL.md). An SCC may be *adopted* only when the
/// pipeline proved its cached fixpoint still applies: every member's
/// summary hit, its callers are unchanged (callers hash), and — applied
/// transitively — every external caller SCC was itself adopted. Under
/// that closure, no jump function ever needs to be evaluated *into* an
/// adopted component: its VAL is preloaded from the cache and the solver
/// skips those edges, which is exactly where the warm-run savings in
/// prop_evaluations come from. Edges *out of* adopted components into
/// dirty ones are still evaluated (dirty procedures restart from top and
/// need every caller's contribution).
struct IncrementalPropagationPlan {
  /// The run's VAL numbering, over the same call graph and MOD/REF the
  /// solver is given; the solver numbers VAL by it instead of building
  /// its own.
  ValLayout Layout;

  /// Indexed by SCC index (CallGraph::sccIndex). Non-zero = adopted.
  std::vector<char> AdoptSCC;

  /// Cached fixpoint VAL rows, one value per slot of Layout. The rows of
  /// adopted components are preloaded; a top slot holds no cached value.
  std::vector<LatticeValue> CachedVal;

  bool adopted(size_t SCC) const {
    return SCC < AdoptSCC.size() && AdoptSCC[SCC];
  }
};

/// Runs the worklist propagation to fixpoint over the SCC schedule.
/// \p Guard, when non-null, budgets jump-function evaluations and the
/// wall-clock deadline: on a trip the solver stops early and returns an
/// EMPTY map (a cut-short iteration leaves VAL entries too high —
/// optimistically wrong — so the only sound partial answer is "no
/// interprocedural constants"); the caller observes Guard->tripped() and
/// reports degradation. \p Plan, when non-null, preloads adopted SCCs
/// from cached VAL sets.
ConstantsMap propagateConstants(const CallGraph &CG, const ModRefInfo &MRI,
                                const ForwardJumpFunctions &FJFs,
                                PropagatorStats *Stats = nullptr,
                                ResourceGuard *Guard = nullptr,
                                const IncrementalPropagationPlan *Plan =
                                    nullptr);

/// propagateConstants over the naive FIFO schedule: every procedure
/// starts pending and lowering a callee re-queues it. The same fixpoint
/// with more visits; the baseline bench_scaling measures the SCC schedule
/// against.
ConstantsMap propagateConstantsFIFO(const CallGraph &CG, const ModRefInfo &MRI,
                                    const ForwardJumpFunctions &FJFs,
                                    PropagatorStats *Stats = nullptr);

} // namespace ipcp

#endif // IPCP_CORE_PROPAGATOR_H
