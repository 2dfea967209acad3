//===- interp/Interpreter.h - MiniFort reference interpreter ----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a pre-SSA module directly, with exact MiniFort semantics:
/// zero-initialized globals/locals/arrays, by-reference parameter cells,
/// checked 64-bit arithmetic (traps on overflow and division by zero),
/// and array bounds checking.
///
/// Besides producing the program's `print` output, the interpreter records
/// a snapshot of every procedure entry: the values of the formals and of
/// every scalar global at the moment of the call. These snapshots are the
/// ground truth that the soundness oracle checks CONSTANTS(p) against —
/// every (name, value) pair the analysis reports must hold on every
/// recorded entry (paper Section 2: "a pair (x, v) in CONSTANTS(p)
/// indicates that x always has value v when p is invoked"). Given an
/// analysis' substitution facts, it also checks each executed load and
/// branch those facts speak about.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_INTERP_INTERPRETER_H
#define IPCP_INTERP_INTERPRETER_H

#include "ir/Module.h"
#include "support/ConstantMath.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

struct TransformFacts;

/// Knobs for one execution.
struct ExecutionOptions {
  /// Instruction budget; exceeded -> Status::OutOfFuel.
  uint64_t MaxSteps = 10'000'000;

  /// Bound on the depth of MiniFort calls; exceeded -> Status::OutOfFuel.
  /// Calls run on an explicit stack, so the bound holds in every build.
  unsigned MaxCallDepth = 2'000;

  /// Values returned by `read`, in order. When exhausted (or empty), a
  /// deterministic xorshift stream seeded with InputSeed supplies small
  /// pseudo-random values.
  std::vector<ConstantValue> Inputs;
  uint64_t InputSeed = 1;

  /// Record procedure-entry snapshots (disable for pure benchmarking).
  bool RecordEntrySnapshots = true;

  /// Facts to check as the program runs: every executed load named in
  /// ConstantLoads must read the stated value, and every executed branch
  /// named in FoldedBranches must go the stated way. Null checks nothing.
  const TransformFacts *Facts = nullptr;
};

/// Values of the formals and scalar globals at one dynamic procedure entry.
struct EntrySnapshot {
  const Procedure *Proc = nullptr;
  /// Value per scalar variable; includes every formal of Proc and every
  /// scalar global of the module.
  std::unordered_map<const Variable *, ConstantValue> Values;
};

/// Outcome of one execution.
struct ExecutionResult {
  enum class Status {
    Ok,        ///< main returned normally
    Trap,      ///< runtime error (overflow, div by zero, bounds)
    OutOfFuel, ///< step or depth budget exhausted
  };

  Status TheStatus = Status::Ok;
  std::string TrapMessage;
  uint64_t Steps = 0;

  /// Chronological `print` output.
  std::vector<ConstantValue> Output;

  /// Chronological procedure-entry snapshots (including main's).
  std::vector<EntrySnapshot> Entries;

  /// One message per fact of ExecutionOptions::Facts this run
  /// contradicted, in the order first contradicted.
  std::vector<std::string> FactViolations;

  bool ok() const { return TheStatus == Status::Ok; }
};

/// Runs `main`. \p M must be in pre-SSA form and verify cleanly.
ExecutionResult interpret(const Module &M, const ExecutionOptions &Opts = {});

} // namespace ipcp

#endif // IPCP_INTERP_INTERPRETER_H
