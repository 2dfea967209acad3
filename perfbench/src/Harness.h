//===- perfbench/src/Harness.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the command
/// line, the clock, percentiles, peak memory, the per-unit span record
/// the traced run aggregates into per-layer metrics, and the two hard
/// stops (a counter the traced run needs is missing; a deterministic
/// count differs between repeats of one input). Both stops exit without
/// printing a result, so a broken layer can never read as a number.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "support/Json.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Seconds on the steady clock since an arbitrary fixed origin.
double now();

/// Process high-water resident set (VmHWM), in MB.
double peakRssMb();

/// Nearest-rank percentile, \p Q in (0, 1]; \p V need not be sorted.
double percentile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

/// The least of each input's samples (ms), one per input: the time a
/// workload reports for each of its distinct inputs. Other tenants of a
/// shared host slow a run in spells of seconds to minutes, by up to
/// half, and never speed it up, so an input's quietest repeat is the one
/// least disturbed by them; it moves only when a whole run is slowed.
std::vector<double>
quietPerInput(const std::map<std::string, std::vector<double>> &Samples);

/// Everything one run reports. Metrics are keyed by name; main() checks
/// the names against the fixed lists and fills absent per-layer metrics
/// (layers the workload does not run) with 0.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Notes;

  void fail(const std::string &Why);
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// A seed for input \p Salt of a run seeded with \p Seed (splitmix64), so
/// every generated input of a workload follows from the one --seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Salt);

/// One measured unit of work in a traced run: its end-to-end time and
/// the self time of every layer span inside it (ms).
struct UnitTrace {
  double EndToEndMs = 0;
  std::map<std::string, double> SelfMs;
  /// Layers the unit runs inside a call the benchmark cannot split,
  /// timed by a second call on the same input outside the unit. They
  /// count toward the layer's metrics but not toward the unit's time.
  std::map<std::string, double> ReplicaMs;
  /// Cold-scale only: the module's size class.
  int SizeClass = -1;
};

/// Adds `<span>.self_ms` (median per unit over the units where the span
/// ran) and `<span>.share` (summed span time / summed end-to-end time)
/// for every span seen in \p Units, plus `trace.unaccounted_frac`: the
/// share of end-to-end time no in-unit span covers.
void addSpanMetrics(const std::vector<UnitTrace> &Units, RunResult &R);

/// Adds `trace.overhead_ms` and `trace.overhead_frac`: traced minus
/// untraced end-to-end time per unit, from the medians of each input's
/// latencies (ms) in the untraced and traced phases of a traced run.
void addOverheadMetrics(
    const std::map<std::string, std::vector<double>> &Untraced,
    const std::map<std::string, std::vector<double>> &Traced, RunResult &R);

/// The runIPCP stage spans, in pipeline order, and the time_*_us counter
/// each is read from.
struct StageCounter {
  const char *Span;
  const char *Counter;
};
const std::vector<StageCounter> &runIpcpStages();

/// Fills the stage spans and `core.run_ipcp.unattributed` of \p U from a
/// run's counters (\p Counters is a report's "counters" object or a
/// StatisticSet's JSON). \p SpanMs is the caller-measured runIPCP wall
/// time; pass a negative value to use time_total_us instead. Exits with
/// code 3 when a counter is missing.
void addStageSpans(const ipcp::JsonValue &Counters, double SpanMs,
                   UnitTrace &U);

/// Reads counter \p Name; exits with code 3 (no result) when absent, so
/// a counter rename cannot silently zero a layer.
uint64_t requireCounter(const ipcp::JsonValue &Counters, const std::string &Name);

/// Remembers the deterministic counts of each distinct input and exits
/// with code 4 (no result) when a repeat of the input disagrees.
class DeterminismCheck {
public:
  void check(const std::string &Input, const std::string &Count,
             uint64_t Value);

private:
  std::map<std::string, uint64_t> Seen;
};

/// The report's result.counters object; exits with code 3 when absent.
const ipcp::JsonValue &reportCounters(const ipcp::JsonValue &Report);

/// Runs \p Fn \p Times times and returns the median wall time (seconds)
/// of one call: the benchmark's set-up time.
template <typename Fn> double medianSetup(unsigned Times, Fn &&SetUp) {
  std::vector<double> Secs;
  for (unsigned I = 0; I != Times; ++I) {
    double T0 = now();
    SetUp();
    Secs.push_back(now() - T0);
  }
  return median(std::move(Secs));
}

// The four workloads (one source file each).
RunResult runColdScale(const RunOptions &O);
RunResult runEditSession(const RunOptions &O);
RunResult runOptimizeRun(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
