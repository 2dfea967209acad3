//===- workload/Oracle.h - Soundness oracle ---------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-checks an analysis result against real executions: every pair in
/// CONSTANTS(p) must hold on every dynamic entry to p that the reference
/// interpreter records (paper Section 2's definition of correctness). A
/// procedure that is never invoked is vacuously satisfied — the paper's
/// "x retains the value T only if the procedure containing x is never
/// called". The result's substitution facts are checked the same way:
/// every executed load in Facts.ConstantLoads must read the stated value
/// and every executed branch in Facts.FoldedBranches must go the stated
/// way, so a wrong record stage fails here even without a transform.
///
/// Used by the property tests over random generated programs and by the
/// suite validation tests; strictly stronger than the paper's informal
/// validation.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_WORKLOAD_ORACLE_H
#define IPCP_WORKLOAD_ORACLE_H

#include "core/Pipeline.h"
#include "interp/Interpreter.h"

#include <string>
#include <vector>

namespace ipcp {

/// Outcome of one oracle run.
struct OracleReport {
  bool Sound = true;
  std::vector<std::string> Violations;
  unsigned CheckedPairs = 0;
  unsigned DynamicEntries = 0;
  ExecutionResult::Status ExecStatus = ExecutionResult::Status::Ok;

  std::string str() const;
};

/// Executes \p M and validates \p R against the recorded entries and
/// against its facts (Opts.Facts is set to \p R's). A trapped or
/// out-of-fuel execution still validates what ran before the stop.
OracleReport checkSoundness(const Module &M, const IPCPResult &R,
                            const ExecutionOptions &Opts = {});

} // namespace ipcp

#endif // IPCP_WORKLOAD_ORACLE_H
