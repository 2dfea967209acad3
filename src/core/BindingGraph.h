//===- core/BindingGraph.h - Binding multigraph propagation -----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alternative propagation formulation the paper points at:
/// "Alternative formulations based on the binding multi-graph are
/// possible [7]. The method presented by Callahan et al. essentially
/// models the binding graph computation on the call graph."
///
/// Nodes of the binding multigraph are (procedure, extended formal)
/// pairs, numbered by the slots of the ValLayout every solver shares
/// (Propagator.h); each forward jump function J_s^y contributes one edge
/// from every element of support(J_s^y) to the callee pair (q, y). The
/// worklist then runs over *pairs*: when VAL(p, v) lowers, only the jump
/// functions whose support actually mentions v are re-evaluated —
/// realizing the O(sum of cost(J) * |support(J)|) bound of Section 3.1.5
/// directly, instead of re-scanning every call site of a procedure.
///
/// Both propagators compute the same (greatest) fixpoint; the property
/// tests check they agree exactly, and bench_propagation.cpp compares
/// their evaluation counts. The analyzer runs propagateConstants; this
/// formulation is kept as the reference the tests, ipcp_fuzz and
/// bench_propagation check it against.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_BINDINGGRAPH_H
#define IPCP_CORE_BINDINGGRAPH_H

#include "core/Propagator.h"

namespace ipcp {

/// Runs the binding-multigraph worklist propagation to fixpoint.
/// Produces exactly the same ConstantsMap as propagateConstants, and
/// degrades the same way under a tripped ResourceGuard budget (stops
/// early and returns the empty — soundly constant-free — map).
ConstantsMap propagateConstantsBindingGraph(const CallGraph &CG,
                                            const ModRefInfo &MRI,
                                            const ForwardJumpFunctions &FJFs,
                                            PropagatorStats *Stats = nullptr,
                                            ResourceGuard *Guard = nullptr);

} // namespace ipcp

#endif // IPCP_CORE_BINDINGGRAPH_H
