//===- perfbench/src/Harness.cpp - Shared benchmark plumbing --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace ipcp;

namespace perfbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(Q * double(V.size()) + 0.999999);
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

std::vector<double>
quietPerInput(const std::map<std::string, std::vector<double>> &Samples) {
  std::vector<double> PerInput;
  for (const auto &[Input, Ms] : Samples)
    if (!Ms.empty())
      PerInput.push_back(*std::min_element(Ms.begin(), Ms.end()));
  return PerInput;
}

void RunResult::fail(const std::string &Why) {
  ++Failed;
  // Keep the log short when one defect repeats on every unit.
  if (Failed <= 5)
    std::fprintf(stderr, "perfbench: mismatch: %s\n", Why.c_str());
}

uint64_t deriveSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Salt + 1;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

void addSpanMetrics(const std::vector<UnitTrace> &Units, RunResult &R) {
  std::map<std::string, std::vector<double>> PerUnit;
  double TotalE2E = 0, Covered = 0;
  for (const UnitTrace &U : Units) {
    TotalE2E += U.EndToEndMs;
    for (const auto &[Span, Ms] : U.SelfMs) {
      PerUnit[Span].push_back(Ms);
      Covered += Ms;
    }
    for (const auto &[Span, Ms] : U.ReplicaMs)
      PerUnit[Span].push_back(Ms);
  }
  for (const auto &[Span, Ms] : PerUnit) {
    double Sum = 0;
    for (double V : Ms)
      Sum += V;
    R.Metrics[Span + ".self_ms"] = median(Ms);
    R.Metrics[Span + ".share"] = TotalE2E > 0 ? Sum / TotalE2E : 0;
  }
  R.Metrics["trace.unaccounted_frac"] =
      TotalE2E > 0 ? (TotalE2E - Covered) / TotalE2E : 0;
}

void addOverheadMetrics(
    const std::map<std::string, std::vector<double>> &Untraced,
    const std::map<std::string, std::vector<double>> &Traced, RunResult &R) {
  double Base = 0, With = 0;
  unsigned Inputs = 0;
  for (const auto &[Input, Ms] : Untraced) {
    auto It = Traced.find(Input);
    if (It == Traced.end())
      continue;
    Base += median(Ms);
    With += median(It->second);
    ++Inputs;
  }
  R.Metrics["trace.overhead_ms"] = Inputs ? (With - Base) / Inputs : 0;
  R.Metrics["trace.overhead_frac"] = Base > 0 ? (With - Base) / Base : 0;
  R.note("tracing overhead over " + std::to_string(Inputs) +
         " input(s): " + std::to_string(Inputs ? (With - Base) / Inputs : 0) +
         " ms per unit");
}

const std::vector<StageCounter> &runIpcpStages() {
  static const std::vector<StageCounter> Stages = {
      {"analysis.callgraph", "time_callgraph_us"},
      {"analysis.modref", "time_modref_us"},
      {"analysis.ssa", "time_intraprocedural_us"},
      {"core.return_jf", "time_return_jf_us"},
      {"core.forward_jf", "time_forward_jf_us"},
      {"core.propagate", "time_propagation_us"},
      {"analysis.sccp", "time_record_us"},
  };
  return Stages;
}

uint64_t requireCounter(const JsonValue &Counters, const std::string &Name) {
  const JsonValue *V = Counters.find(Name);
  if (!V || !V->isNumber()) {
    std::fprintf(stderr,
                 "perfbench: counter '%s' is missing from the run's "
                 "counters; the traced run cannot attribute its layer\n",
                 Name.c_str());
    std::exit(3);
  }
  return uint64_t(V->asInt());
}

void addStageSpans(const JsonValue &Counters, double SpanMs, UnitTrace &U) {
  double StageMs = 0;
  for (const StageCounter &S : runIpcpStages()) {
    double Ms = double(requireCounter(Counters, S.Counter)) / 1e3;
    U.SelfMs[S.Span] += Ms;
    StageMs += Ms;
  }
  if (SpanMs < 0)
    SpanMs = double(requireCounter(Counters, "time_total_us")) / 1e3;
  U.SelfMs["core.run_ipcp.unattributed"] += SpanMs - StageMs;
}

void DeterminismCheck::check(const std::string &Input, const std::string &Count,
                             uint64_t Value) {
  auto [It, Fresh] = Seen.emplace(Input + "/" + Count, Value);
  if (Fresh || It->second == Value)
    return;
  std::fprintf(stderr,
               "perfbench: deterministic count '%s' of input '%s' changed "
               "between repeats (%llu, then %llu)\n",
               Count.c_str(), Input.c_str(), (unsigned long long)It->second,
               (unsigned long long)Value);
  std::exit(4);
}

const JsonValue &reportCounters(const JsonValue &Report) {
  const JsonValue *Result = Report.find("result");
  const JsonValue *Counters = Result ? Result->find("counters") : nullptr;
  if (!Counters) {
    std::fprintf(stderr, "perfbench: report has no result.counters\n");
    std::exit(3);
  }
  return *Counters;
}

} // namespace perfbench
