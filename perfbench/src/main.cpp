//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
//   ipcp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (cold-scale, edit-session, optimize-run), checks
// its outputs, and prints as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, each layer a workload does not run reading 0. Exit
// codes: 0 result printed, 2 usage, 3 a counter the traced run needs is
// missing, 4 a deterministic count changed between repeats, 5 the
// metric set disagrees with the fixed lists below.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList &endToEndMetrics() {
  static const MetricList List = {
      {"throughput", "1/s"},      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},  {"peak_rss_mb", "MB"},
      {"constant_refs", "count"}, {"setup_s", "s"},
  };
  return List;
}

const MetricList &perLayerMetrics() {
  static const MetricList List = [] {
    // Spans measured on cold-scale, where module size varies.
    std::vector<std::string> Scaled = {"frontend.parse", "ir.lower",
                                       "ir.clone"};
    for (const StageCounter &S : runIpcpStages())
      Scaled.push_back(S.Span);
    for (const char *Span :
         {"core.run_ipcp.unattributed", "core.report", "support.json_dump"})
      Scaled.push_back(Span);
    std::vector<std::string> Spans = Scaled;
    for (const char *Span : {"service.decode", "service.analyze",
                             "transform.optimize", "interp.run"})
      Spans.push_back(Span);

    MetricList L;
    for (const std::string &Span : Spans) {
      L.push_back({Span + ".self_ms", "ms"});
      L.push_back({Span + ".share", "frac"});
    }
    for (const std::string &Span : Scaled) {
      for (const char *Size : {"256", "1024", "4096"})
        L.push_back({Span + ".ns_per_inst." + Size, "ns/inst"});
      L.push_back({Span + ".size_exp", "ratio"});
    }
    for (const char *Count :
         {"core.propagate.evaluations", "analysis.sccp.runs",
          "core.cache.hits", "core.cache.misses", "ir.insts",
          "transform.substitutions", "interp.steps"})
      L.push_back({Count, "count"});
    L.push_back({"core.cache.hit_ratio", "ratio"});
    L.push_back({"transform.steps_saved_frac", "frac"});
    L.push_back({"trace.overhead_ms", "ms"});
    L.push_back({"trace.overhead_frac", "frac"});
    L.push_back({"trace.unaccounted_frac", "frac"});
    return L;
  }();
  return List;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "ipcp_perfbench: %s\nusage: ipcp_perfbench --workload "
               "cold-scale|edit-session|optimize-run --seed N "
               "--seconds S --trace 0|1\n",
               Why);
  std::exit(2);
}

bool parseArgs(int Argc, char **Argv, RunOptions &O) {
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Value = Argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload")) {
      O.Workload = Value;
      HaveWorkload = true;
    } else if (!std::strcmp(Flag, "--seed")) {
      O.Seed = std::strtoull(Value, &End, 10);
    } else if (!std::strcmp(Flag, "--seconds")) {
      O.Seconds = std::strtod(Value, &End);
      if (!(O.Seconds > 0 && O.Seconds <= 120))
        return false;
    } else if (!std::strcmp(Flag, "--trace")) {
      O.Trace = std::strtol(Value, &End, 10) != 0;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return HaveWorkload && Argc % 2 == 1;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  if (!parseArgs(Argc, Argv, O))
    usage("bad arguments");

  RunResult R;
  if (O.Workload == "cold-scale")
    R = runColdScale(O);
  else if (O.Workload == "edit-session")
    R = runEditSession(O);
  else if (O.Workload == "optimize-run")
    R = runOptimizeRun(O);
  else
    usage("unknown workload");
  R.Metrics["peak_rss_mb"] = peakRssMb();

  // setup_s and peak_rss_mb are end-to-end metrics every run measures;
  // the traced run reports only the per-layer list.
  const MetricList &Wanted = O.Trace ? perLayerMetrics() : endToEndMetrics();
  if (O.Trace) {
    R.Metrics.erase("setup_s");
    R.Metrics.erase("peak_rss_mb");
  }
  std::string Json;
  for (const auto &[Name, Unit] : Wanted) {
    auto It = R.Metrics.find(Name);
    if (It == R.Metrics.end() && !O.Trace) {
      std::fprintf(stderr, "ipcp_perfbench: metric '%s' not measured\n",
                   Name.c_str());
      return 5;
    }
    double Value = It == R.Metrics.end() ? 0 : It->second;
    if (!std::isfinite(Value)) {
      std::fprintf(stderr, "ipcp_perfbench: metric '%s' is not finite\n",
                   Name.c_str());
      return 5;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Json += (Json.empty() ? "\"" : ", \"") + Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Unit + "\"}";
    if (It != R.Metrics.end())
      R.Metrics.erase(It);
  }
  if (!R.Metrics.empty()) {
    std::fprintf(stderr, "ipcp_perfbench: metric '%s' is not in the list\n",
                 R.Metrics.begin()->first.c_str());
    return 5;
  }

  for (const std::string &Line : R.Notes)
    std::printf("%s: %s\n", O.Workload.c_str(), Line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 ? "true" : "false",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              Json.c_str());
  return 0;
}
