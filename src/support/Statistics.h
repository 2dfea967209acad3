//===- support/Statistics.h - Counters and timers ---------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight named counters and a wall-clock timer used by the analysis
/// pipeline to report the cost numbers behind the paper's Section 3.1.5
/// discussion (jump-function construction cost vs. propagation cost).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_STATISTICS_H
#define IPCP_SUPPORT_STATISTICS_H

#include <array>
#include <bitset>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace ipcp {

class JsonValue;

/// Every analysis counter: one enumerator per row of support/Counters.def,
/// in registry order and spelled as the counter's registered name, so
/// emitting a counter the registry does not list fails to compile.
enum class Counter : unsigned {
#define IPCP_COUNTER(name, description) name,
#include "support/Counters.def"
#undef IPCP_COUNTER
};

/// How many counters support/Counters.def registers.
inline constexpr unsigned NumCounters = 0
#define IPCP_COUNTER(name, description) +1
#include "support/Counters.def"
#undef IPCP_COUNTER
    ;

/// The analysis counters of one run (or a merge of runs): a value per
/// Counter, and whether it was ever added. A counter added with zero is
/// present and reported; one never added is absent from toJson() and the
/// --stats table.
class StatisticSet {
public:
  /// Adds \p Delta to counter \p C and marks it present.
  void add(Counter C, uint64_t Delta = 1) {
    Values[unsigned(C)] += Delta;
    Present.set(unsigned(C));
  }

  /// Reads counter \p C (zero if never added).
  uint64_t get(Counter C) const { return Values[unsigned(C)]; }

  /// Reads the counter registered as \p Name, for callers that hold a
  /// name rather than a Counter (tests, the perfbench harness). Zero if
  /// never added, or if Counters.def registers no such name.
  uint64_t get(std::string_view Name) const;

  /// Whether counter \p C was ever added, with any delta.
  bool has(Counter C) const { return Present.test(unsigned(C)); }

  /// Merges all counters from \p Other into this set.
  void merge(const StatisticSet &Other) {
    for (unsigned I = 0; I != NumCounters; ++I)
      Values[I] += Other.Values[I];
    Present |= Other.Present;
  }

  /// Serializes the present counters as a flat JSON object, name-sorted.
  JsonValue toJson() const;

private:
  std::array<uint64_t, NumCounters> Values{};
  std::bitset<NumCounters> Present;
};

/// The registered name of \p C, as reports and the --stats table spell it.
const char *counterName(Counter C);

/// The registry's one-line description of \p C. Every registered counter
/// must also be documented in docs/OBSERVABILITY.md, which the
/// check_doc_index ctest enforces.
const char *describeCounter(Counter C);

/// Renders an aligned human-readable table of \p Stats in registry order
/// with the registry descriptions — the driver's --stats output.
std::string formatStatsTable(const StatisticSet &Stats);

/// Measures wall-clock time between construction (or restart) and stop.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the timer.
  void restart() { Start = Clock::now(); }

  /// Elapsed seconds since construction or the last restart.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace ipcp

#endif // IPCP_SUPPORT_STATISTICS_H
