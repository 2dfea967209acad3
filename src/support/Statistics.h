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

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ipcp {

class JsonValue;

/// A bag of named monotonically increasing counters.
class StatisticSet {
public:
  /// Adds \p Delta to counter \p Name (creating it at zero).
  void add(const std::string &Name, uint64_t Delta = 1) {
    Counters[Name] += Delta;
  }

  /// Reads counter \p Name (zero if never touched).
  uint64_t get(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  /// Merges all counters from \p Other into this set.
  void merge(const StatisticSet &Other) {
    for (const auto &[Name, Count] : Other.Counters)
      Counters[Name] += Count;
  }

  const std::map<std::string, uint64_t> &counters() const { return Counters; }

  /// Renders "name = value" lines sorted by name.
  std::string str() const;

  /// Serializes as a flat JSON object, name-sorted.
  JsonValue toJson() const;

private:
  std::map<std::string, uint64_t> Counters;
};

/// The registry in support/Counters.def: the one-line description of a
/// registered counter, or null for an unknown name. Every counter the
/// analyzer emits must be registered (StatisticsTests enforces this) and
/// documented in docs/OBSERVABILITY.md (the CI docs lint enforces that).
const char *describeCounter(const std::string &Name);

/// Whether \p Name appears in support/Counters.def.
bool isRegisteredCounter(const std::string &Name);

/// Renders an aligned human-readable table of \p Stats with the registry
/// descriptions — the driver's --stats output.
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
