//===- transform/Transform.h - Interprocedural optimization -----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transformation pipeline that closes the paper's loop: instead of
/// only *reporting* CONSTANTS(p), rewrite the program the way the paper's
/// Table 2/3 experiments imagine ("a transformed version of the original
/// source in which the interprocedural constants are textually
/// substituted into the code") and then run it.
///
/// Two passes, in order:
///
///  1. constant substitution + folding ("constants"): substituteConstants
///     (core/Pipeline.h) *on the module itself* (not a working copy)
///     until a round changes nothing — every load proven constant becomes
///     a literal, expressions over literals fold, constant branches
///     resolve, and unreachable blocks disappear. This is
///     runCompletePropagation made real: the rewritten module is the
///     result, not just the counters.
///
///  2. interprocedural copy propagation ("copyprop"): per-block
///     store-to-load forwarding over the flat instStream(), killing
///     forwarded values across calls only for the locations in
///     ModRefInfo::callKills — the interprocedural MOD information is
///     what lets a value survive a call (the subsumption observation of
///     "Copy Propagation subsumes Constant Propagation", arXiv
///     2207.03894: with precise kill sets, forwarding a stored value
///     generalizes forwarding a stored constant).
///
/// Both passes preserve observable behavior: optimized modules verify in
/// pre-SSA form and interpret to byte-identical output (the differential
/// test layer and `ipcp_fuzz --optimize` enforce this). See
/// docs/TRANSFORMS.md for the contract of each pass.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_TRANSFORM_TRANSFORM_H
#define IPCP_TRANSFORM_TRANSFORM_H

#include "core/Options.h"
#include "support/Statistics.h"

#include <string>
#include <vector>

namespace ipcp {

class Module;
class ModRefInfo;

/// Which passes optimizeModule runs. Both default on; the driver's
/// `--optimize=<passes>` spec (comma-separated pass names) narrows this.
struct TransformPassConfig {
  /// Run iterated constant substitution + folding ("constants").
  bool ConstantSubstitution = true;

  /// Run store-to-load copy propagation ("copyprop").
  bool CopyPropagation = true;
};

/// Parses a comma-separated pass list ("constants", "copyprop", or
/// "constants,copyprop" in any order) into \p Config, which is reset so
/// only the named passes run. Returns false (and fills \p Error) on an
/// unknown or empty pass name.
bool parsePassSpec(const std::string &Spec, TransformPassConfig &Config,
                   std::string *Error = nullptr);

/// Wall time of one executed pass, for the report's optimization block.
struct PassTiming {
  std::string Pass;
  uint64_t Us = 0;
};

/// What optimizeModule did to the module.
struct OptimizationResult {
  /// Analysis+substitution rounds executed by the constants pass.
  unsigned Rounds = 0;

  /// Loads of proven-constant locations rewritten into literals.
  unsigned Substitutions = 0;

  /// Binary/Unary instructions over literals folded away.
  unsigned Folds = 0;

  /// Conditional branches with proven-constant conditions rewritten into
  /// unconditional branches.
  unsigned BranchesResolved = 0;

  /// Blocks deleted as unreachable after branch resolution.
  unsigned BlocksRemoved = 0;

  /// Total instructions deleted (substituted loads, folded expressions,
  /// dead chains, forwarded loads — everything).
  unsigned InstsRemoved = 0;

  /// Loads forwarded to an earlier stored value by the copyprop pass.
  unsigned CopiesPropagated = 0;

  /// Module instruction counts on entry and exit of the pipeline.
  unsigned InstructionsBefore = 0;
  unsigned InstructionsAfter = 0;

  /// Passes that ran, in order, with their wall times.
  std::vector<PassTiming> PassTimings;

  /// Counters merged over every analysis round plus the opt_* totals.
  StatisticSet Stats;

  /// Degradation status across all rounds (first trip wins). A degraded
  /// optimization is still sound: facts already applied stay applied,
  /// remaining rounds are skipped.
  PipelineStatus Status;

  bool changedAnything() const {
    return Substitutions || Folds || BranchesResolved || BlocksRemoved ||
           InstsRemoved || CopiesPropagated;
  }
};

/// Optimizes \p M in place under analysis configuration \p Opts, without
/// a summary cache (replayed procedures carry no substitution facts).
/// When \p Guard is null a run-local guard is created from Opts.Limits;
/// pass an external guard to share one deadline with surrounding work.
OptimizationResult optimizeModule(Module &M, const IPCPOptions &Opts = {},
                                  const TransformPassConfig &Config = {},
                                  ResourceGuard *Guard = nullptr);

/// The copyprop pass alone: forwards each load of a scalar variable to
/// the value most recently stored to it in the same block, when no
/// intervening call may modify the location (per \p MRI's kill sets —
/// \p MRI must be computed over \p M itself). Forwarded loads are
/// deleted. Returns the number of loads forwarded.
unsigned propagateCopies(Module &M, const ModRefInfo &MRI);

} // namespace ipcp

#endif // IPCP_TRANSFORM_TRANSFORM_H
