//===- core/Options.h - Analysis configuration ------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of one interprocedural constant propagation run — the
/// axes of the paper's study: which forward jump function class to build
/// (Section 3.1), whether to use return jump functions (Section 3.2),
/// whether interprocedural MOD information is available (Table 3), and the
/// purely intraprocedural baseline.
///
/// This file is the one home of the option vocabulary: optionTable()
/// declares every IPCPOptions and ResourceLimits setting once, and the
/// tools' flag parsers and --help lines, the service request parser, the
/// report echo and the summary-cache fingerprint all walk it.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_OPTIONS_H
#define IPCP_CORE_OPTIONS_H

#include "support/ResourceGuard.h"

#include <cstdint>
#include <limits>
#include <span>
#include <string>

namespace ipcp {

class JsonValue;

/// The four forward jump function classes, in increasing order of power.
/// Each class propagates a superset of the constants of its predecessor
/// (paper Section 3.1) — a property the test suite checks on random
/// programs.
enum class JumpFunctionKind {
  /// `c` only when the actual is a literal constant at the call site.
  /// Propagates along single call-graph edges; misses globals entirely.
  Literal,
  /// `gcp(y, s)`: intraprocedural constant propagation + value numbering
  /// + MOD information. Still single-edge, but sees constant globals.
  IntraproceduralConstant,
  /// Additionally `z` when the actual is the unmodified entry value of
  /// caller formal z — constants flow through procedure bodies, along
  /// paths of any length. The paper's recommended cost/precision point.
  PassThrough,
  /// Additionally any polynomial over the caller's entry formals (all
  /// integer operations).
  Polynomial,
};

/// Printable name ("literal", "intra", "pass-through", "polynomial").
const char *jumpFunctionKindName(JumpFunctionKind Kind);

/// Which interprocedural propagation engine solves for the VAL sets.
/// Both are sound; they trade precision against context-table cost.
enum class PropagationEngine {
  /// The paper's 1986 framework: one VAL set per procedure, every
  /// caller's bindings met into it. Fast, and the baseline every other
  /// engine is measured against.
  Jump,
  /// Value contexts (Padhye & Khedker): tabulate (procedure, entry VAL
  /// vector) pairs so each distinct calling pattern is evaluated
  /// exactly, then meet the tabulated contexts per procedure. Never
  /// reports fewer constants than the jump engine (the final result is
  /// refined against a baseline jump-engine run), and strictly more on
  /// programs where caller-merging destroys correlated formals. See
  /// docs/CONTEXTS.md.
  Contexts,
};

/// One analysis configuration.
struct IPCPOptions {
  JumpFunctionKind ForwardKind = JumpFunctionKind::Polynomial;

  /// Build and use return jump functions (paper Section 3.2).
  bool UseReturnJumpFunctions = true;

  /// Use interprocedural MOD information. When false, every call is
  /// assumed to modify every by-reference actual and every global —
  /// Table 3 column 1.
  bool UseModInformation = true;

  /// Skip interprocedural propagation entirely; only intraprocedural
  /// constants (with MOD information) are found — Table 3 column 4.
  bool IntraproceduralOnly = false;

  /// Expression-tree size cap for polynomial jump functions.
  unsigned MaxExprNodes = 64;

  /// Build jump functions over a gated-single-assignment view of each
  /// procedure (paper Section 4.2): a two-way phi whose controlling
  /// branch condition is a known constant resolves to its live side,
  /// never considering the dead assignment. The paper observes this
  /// achieves the complete-propagation results in a single pass.
  bool UseGatedSSA = false;

  /// Which propagation engine to run (--engine=jump|contexts). The
  /// contexts engine runs without the summary cache
  /// (SummaryCache::models).
  PropagationEngine Engine = PropagationEngine::Jump;

  /// Context-count budget for the contexts engine. Once this many
  /// contexts have been tabulated, new entry vectors are met into one
  /// mutable summary context per procedure instead of spawning fresh
  /// contexts — precision degrades gracefully toward the 1986
  /// caller-merge behavior and termination stays guaranteed even for
  /// recursion that would otherwise enumerate unbounded entry vectors
  /// (f(n) calling f(n+1)). Reported as ctx_budget_trips.
  unsigned MaxContexts = 4096;

  /// Resource budgets for the run (all unlimited by default). When a
  /// budget trips, the pipeline degrades gracefully: it stops the
  /// offending stage, keeps whatever sound partial results exist, and
  /// tags IPCPResult::Status degraded instead of looping or crashing.
  /// Callers that span several pipeline calls under one deadline pass an
  /// external ResourceGuard instead (see runIPCP).
  ResourceLimits Limits;
};

//===----------------------------------------------------------------------===//
// The option table
//===----------------------------------------------------------------------===//

/// The surfaces that read a setting, as a bit set per row.
enum OptionSurface : unsigned {
  OnDriver = 1u << 0,     ///< an ipcp_driver flag
  OnServerd = 1u << 1,    ///< an ipcp_serverd default-budget flag
  OnSuitecheck = 1u << 2, ///< a suitecheck flag
  OnOptions = 1u << 3,    ///< a key of a service request's "options"
  /// A ResourceLimits budget: a key of a request's "limits", merged with
  /// the server default.
  OnLimits = 1u << 4,
  OnReport = 1u << 5, ///< echoed in the report's "options" object
};

enum class OptionType {
  Switch, ///< a boolean; its bare flag turns it away from its default
  Choice, ///< an enumerator, named by one of the row's spellings
  Count,  ///< an unsigned integer within [Min, Max]
};

/// One spelling of a Choice row's enumerator. The first spelling of each
/// enumerator is canonical (printed); later ones are accepted aliases.
struct OptionChoice {
  const char *Spelling;
  unsigned Value;
};

/// One setting. Get/Set reach its IPCPOptions field (a budget through
/// IPCPOptions::Limits) as an integer. The defaults are the member
/// initializers above.
struct OptionSpec {
  const char *Key;                      ///< request and report key
  const char *Flag = nullptr;           ///< flag without "=VALUE"
  const char *FingerprintTag = nullptr; ///< null: not fingerprinted
  unsigned Surfaces = 0;                ///< OptionSurface bits
  OptionType Type = OptionType::Switch;
  std::span<const OptionChoice> Choices = {};
  uint64_t Min = 0, Max = UINT64_MAX; ///< Count: the accepted range
  /// The flag's --help line; a Choice's is also the noun of its
  /// "unknown <help> 'x'" error.
  const char *Help = nullptr;
  uint64_t (*Get)(const IPCPOptions &) = nullptr;
  void (*Set)(IPCPOptions &, uint64_t) = nullptr;
};

/// Every setting once: the IPCPOptions fields in report-echo order, then
/// the ResourceLimits budgets.
std::span<const OptionSpec> optionTable();

/// A row's value as the fingerprint spells it: "1"/"0", a decimal count,
/// or the canonical spelling.
std::string optionText(const OptionSpec &Row, const IPCPOptions &Opts);

/// True when \p Arg is the flag of a row on \p Surface (OptionSurface
/// bits); its value goes into \p Opts, or, when invalid, its usage
/// message (without "error: ") into \p Error.
bool parseOptionFlag(const std::string &Arg, unsigned Surface,
                     IPCPOptions &Opts, std::string &Error);

/// parseOptionFlag for a tool's argument loop: an invalid value prints
/// "error: <message>" and exits 1, the tools' usage-error contract.
bool takeOptionFlag(const std::string &Arg, unsigned Surface,
                    IPCPOptions &Opts);

/// The tools' one numeric-flag parser: the decimal value of a --NAME=N
/// argument from \p PrefixLen on. A malformed value, or one above \p Max,
/// prints the usage error and exits 1.
uint64_t parseUintFlag(const std::string &Arg, size_t PrefixLen,
                       uint64_t Max);

/// parseUintFlag into the type \p T that stores the value: a value \p T
/// cannot hold is refused, never wrapped.
template <typename T = uint64_t>
T parseUintFlag(const std::string &Arg, size_t PrefixLen) {
  return T(parseUintFlag(Arg, PrefixLen, std::numeric_limits<T>::max()));
}

/// The --help lines of the flags on \p Surface whose rows are in
/// \p Group: OnOptions (the analysis options) or OnLimits (the budgets).
std::string optionHelp(unsigned Surface, unsigned Group);

/// Applies a service request's "options" and "limits" objects to
/// \p Opts, storing each requested budget as MergeLimit(current,
/// requested). Unknown keys, mistyped values and out-of-range counts
/// fail with a message in \p Error.
bool applyRequestOptions(const JsonValue &Request, IPCPOptions &Opts,
                         uint64_t (*MergeLimit)(uint64_t, uint64_t),
                         std::string *Error);

} // namespace ipcp

#endif // IPCP_CORE_OPTIONS_H
