//===- ir/Verifier.h - IR well-formedness checks ----------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural invariant checker for the IR, run by tests after lowering
/// and after every transform. Returns a list of violation messages
/// (empty means well-formed) rather than asserting, so tests can report
/// precisely what broke. Modules are always in pre-SSA form; SSA form
/// lives in side tables (analysis/SSAConstruction.h has its own check).
///
/// Checked:
///  - every block ends in exactly one terminator, which is its last
///    instruction, and contains no other terminator;
///  - predecessor lists exactly mirror successor edges (as multisets);
///  - all blocks are reachable from the entry;
///  - exactly one Ret, located in the designated exit block;
///  - call arity matches the callee, and by-ref actuals are scalars;
///  - no block holds a Phi or CallOut;
///  - instruction operands are defined earlier in the block-order walk
///    (the def-before-use discipline Module::clone relies on).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_VERIFIER_H
#define IPCP_IR_VERIFIER_H

#include "ir/Module.h"

#include <string>
#include <vector>

namespace ipcp {

/// Verifies one procedure; appends human-readable violations.
void verifyProcedure(const Procedure &P, std::vector<std::string> &Errors);

/// Verifies the whole module; returns all violations.
std::vector<std::string> verifyModule(const Module &M);

} // namespace ipcp

#endif // IPCP_IR_VERIFIER_H
