//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, schedule-driven fault injection for the I/O layer
/// (docs/ROBUSTNESS.md, "Fault injection & recovery"). The substrate is
/// a process-wide \c FaultInjector holding a parsed *fault plan*: a
/// semicolon-separated list of rules, each a glob pattern over fault
/// point names plus trigger keys:
///
///   SPEC  := RULE (';' RULE)*
///   RULE  := PATTERN (':' KEY '=' N)*
///   KEY   := nth | period | start | times
///
///  * `nth=N`    — fail exactly the Nth matching operation (1-based).
///  * `period=P` — fail every Pth matching operation (P, 2P, 3P, ...).
///  * `start=N`  — first eligible match (defaults to `period` when a
///                 period is given, else 1).
///  * `times=K`  — cap the rule at K injections (0 = unlimited).
///  * no keys    — fail every matching operation.
///
/// Instrumented code brackets each fallible operation with a *named
/// fault point* (`store.write.object`, `store.read.ref`, `lineio.write`,
/// ...; the full table lives in docs/ROBUSTNESS.md) and asks
/// `faultInjector().shouldFail(point)`. Rules count their own matches,
/// so a plan is a pure function of the sequence of matching operations:
/// replaying the same request stream under the same plan injects the
/// same faults at the same places, byte-identically — which is what
/// lets the chaos suite diff a faulted run against a clean one.
///
/// When no plan is installed the check is a single relaxed atomic load;
/// the instrumented hot paths cost nothing in production.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_FAULTINJECTION_H
#define IPCP_SUPPORT_FAULTINJECTION_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ipcp {

/// One parsed rule of a fault plan, with its runtime counters.
struct FaultRule {
  std::string Pattern; ///< glob over fault point names (`*` = any run)
  uint64_t Nth = 0;    ///< fire exactly on this match (1-based), once
  uint64_t Period = 0; ///< fire every Period-th match
  uint64_t Start = 0;  ///< first eligible match; 0 = default
  uint64_t Times = 0;  ///< injection cap; 0 = unlimited
  uint64_t Matches = 0;
  uint64_t Injected = 0;
};

/// `*`-glob match of \p Point against \p Pattern (exposed for tests).
bool faultPatternMatches(const std::string &Pattern, const std::string &Point);

/// Process-wide fault scheduler. All mutation goes through a mutex; the
/// no-plan fast path is one atomic load.
class FaultInjector {
public:
  /// Parses and installs \p Spec, replacing any current plan and
  /// resetting all counters. An empty spec clears the plan. Returns
  /// false (leaving no plan installed) and fills \p Error on a
  /// malformed spec.
  bool installPlan(const std::string &Spec, std::string *Error = nullptr);

  /// Removes the plan and resets all counters.
  void clear();

  /// True when a plan with at least one rule is installed.
  bool active() const { return Active.load(std::memory_order_relaxed); }

  /// The instrumentation hook: counts a match against every rule whose
  /// pattern covers \p Point and reports whether one of them fires. On
  /// injection fills \p Message with a deterministic description
  /// (point, rule pattern, match ordinal) suitable for error bodies.
  bool shouldFail(const std::string &Point, std::string *Message = nullptr);

  struct Totals {
    uint64_t Checked = 0;  ///< shouldFail calls while a plan was active
    uint64_t Injected = 0; ///< checks that fired
  };
  Totals totals() const;

  /// The installed spec ("" when inactive).
  std::string planSpec() const;

  /// Counter snapshot for stats bodies and artifacts: plan, totals,
  /// per-rule match/injection counts, per-point injection counts.
  JsonValue statsJson() const;

private:
  mutable std::mutex Lock;
  std::atomic<bool> Active{false};
  std::string Spec;
  std::vector<FaultRule> Rules;
  uint64_t Checked = 0;
  uint64_t InjectedTotal = 0;
  std::vector<std::pair<std::string, uint64_t>> ByPoint; // insertion order
};

/// The process-wide injector every fault point consults.
FaultInjector &faultInjector();

/// Installs the plan from the IPCP_FAULT_PLAN environment variable, if
/// set and non-empty. Returns false and fills \p Error when the
/// variable holds a malformed spec; returns true (a no-op) when unset.
bool installFaultPlanFromEnv(std::string *Error = nullptr);

} // namespace ipcp

#endif // IPCP_SUPPORT_FAULTINJECTION_H
