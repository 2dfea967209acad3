//===- perfbench/src/ColdScale.cpp - Workload cold-scale -------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The one-shot analyzer at the sizes where parse, lowering and the
// scratch clone grow faster than the input: generated modules of 256,
// 1024 (both seeded) and 4096 procedures, each taken from source text to
// ipcp-report-v1 bytes on one thread (parseAndCheck -> lowerProgram ->
// runIPCP without a cache -> buildAnalysisReport -> dump), exactly the
// driver's path. Batch loop: whole rounds of the three modules until the
// time is up. The summary cache and the service do no work here.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Report.h"
#include "frontend/Parser.h"
#include "ir/AstLower.h"
#include "ir/Module.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace ipcp;

namespace perfbench {

namespace {

constexpr unsigned NumSizes = 3;
constexpr unsigned Sizes[NumSizes] = {256, 1024, 4096};
/// The largest module is the same for every --seed, which draws the two
/// smaller ones. It holds three quarters of the constant references, and
/// the count varies by a fifth between generator seeds, which would
/// drown any change in constant_refs.
constexpr uint64_t LargestModuleSeed = 1;

/// The last analysis of one module, kept for the untimed oracle check.
struct LastRun {
  std::unique_ptr<Module> M;
  IPCPResult Result;
};

/// Least-squares slope of log(Ms) against log(Insts): how a layer's time
/// grows with module size (1 = linear).
double sizeExponent(const double Insts[NumSizes], const double Ms[NumSizes]) {
  double SX = 0, SY = 0, SXX = 0, SXY = 0;
  unsigned N = 0;
  for (unsigned I = 0; I != NumSizes; ++I) {
    if (Ms[I] <= 0)
      continue;
    double X = std::log(Insts[I]), Y = std::log(Ms[I]);
    SX += X, SY += Y, SXX += X * X, SXY += X * Y, ++N;
  }
  double Den = N * SXX - SX * SX;
  return N >= 2 && Den != 0 ? (N * SXY - SX * SY) / Den : 0;
}

} // namespace

RunResult runColdScale(const RunOptions &O) {
  RunResult R;
  std::string Sources[NumSizes];
  R.Metrics["setup_s"] = medianSetup(25, [&] {
    for (unsigned I = 0; I != NumSizes; ++I) {
      GeneratorConfig Config;
      Config.Seed =
          I + 1 == NumSizes ? LargestModuleSeed : deriveSeed(O.Seed, I);
      Config.NumProcs = Sizes[I];
      Sources[I] = generateProgram(Config);
    }
  });

  DeterminismCheck Determinism;
  LastRun Last[NumSizes];
  uint64_t Insts[NumSizes] = {}, ConstantRefs[NumSizes] = {},
           Evaluations[NumSizes] = {}, SccpRuns[NumSizes] = {};
  std::vector<UnitTrace> Units;
  std::map<std::string, std::vector<double>> UntracedMs, TracedMs;

  // One module through the driver path; returns its wall time (s).
  auto RunUnit = [&](unsigned I, UnitTrace *T) {
    std::string Input = std::to_string(Sizes[I]);
    double T0 = now();
    DiagnosticsEngine Diags;
    std::optional<Program> Ast = parseAndCheck(Sources[I], Diags);
    double T1 = now();
    if (!Ast) {
      R.fail("module " + Input + " did not parse: " + Diags.str());
      return now() - T0;
    }
    std::unique_ptr<Module> M = lowerProgram(*Ast);
    double T2 = now();
    IPCPOptions Opts;
    IPCPResult Result = runIPCP(*M, Opts);
    double T3 = now();
    AnalysisReport Report;
    Report.SourceName = "cold-scale-" + Input;
    Report.M = M.get();
    Report.Opts = &Opts;
    Report.Single = &Result;
    Report.Status = &Result.Status;
    JsonValue Doc = buildAnalysisReport(Report);
    double T4 = now();
    std::string Bytes = Doc.dump(2);
    double T5 = now();

    if (Result.Status.Degraded || Bytes.size() < 64)
      R.fail("module " + Input + " degraded or produced no report");
    Insts[I] = M->instructionCount();
    ConstantRefs[I] = Result.TotalConstantRefs;
    Evaluations[I] = Result.Stats.get("prop_evaluations");
    SccpRuns[I] = Result.Stats.get("sccp_runs");
    Determinism.check(Input, "ir.insts", Insts[I]);
    Determinism.check(Input, "constant_refs", ConstantRefs[I]);
    Determinism.check(Input, "core.propagate.evaluations", Evaluations[I]);
    Determinism.check(Input, "analysis.sccp.runs", SccpRuns[I]);

    if (T) {
      T->EndToEndMs = (T5 - T0) * 1e3;
      T->SelfMs["frontend.parse"] = (T1 - T0) * 1e3;
      T->SelfMs["ir.lower"] = (T2 - T1) * 1e3;
      addStageSpans(Result.Stats.toJson(), (T3 - T2) * 1e3, *T);
      T->SelfMs["core.report"] = (T4 - T3) * 1e3;
      T->SelfMs["support.json_dump"] = (T5 - T4) * 1e3;
      // runIPCP clones the module internally; time one clone of the
      // same module from outside to size that hidden cost.
      double C0 = now();
      std::unique_ptr<Module> Copy = M->clone();
      T->ReplicaMs["ir.clone"] = (now() - C0) * 1e3;
      T->SizeClass = int(I);
    }
    Last[I].M = std::move(M);
    Last[I].Result = std::move(Result);
    return T5 - T0;
  };

  // Whole rounds only, so every size class has the same number of
  // samples. A traced run traces every other round; the rounds between
  // measure the tracing overhead.
  double Start = now();
  for (unsigned Round = 0; Round == 0 || now() - Start < O.Seconds; ++Round) {
    bool Traced = O.Trace && Round % 2 == 1;
    for (unsigned I = 0; I != NumSizes; ++I) {
      UnitTrace T;
      double Sec = RunUnit(I, Traced ? &T : nullptr);
      ++R.Attempted;
      std::string Input = std::to_string(Sizes[I]);
      (Traced ? TracedMs : UntracedMs)[Input].push_back(Sec * 1e3);
      if (Traced)
        Units.push_back(std::move(T));
    }
  }

  // Untimed correctness: the interpreter oracle on each distinct module.
  for (unsigned I = 0; I != NumSizes; ++I) {
    if (!Last[I].M)
      continue;
    OracleReport Oracle = checkSoundness(*Last[I].M, Last[I].Result);
    if (!Oracle.Sound)
      R.fail("module " + std::to_string(Sizes[I]) +
             " unsound: " + Oracle.str());
  }

  uint64_t SumRefs = 0, SumInsts = 0, SumEvals = 0, SumSccp = 0;
  std::vector<double> ModuleMs;
  double SumMs = 0;
  for (unsigned I = 0; I != NumSizes; ++I) {
    SumRefs += ConstantRefs[I];
    SumInsts += Insts[I];
    SumEvals += Evaluations[I];
    SumSccp += SccpRuns[I];
    const std::vector<double> &Ms = UntracedMs[std::to_string(Sizes[I])];
    ModuleMs.push_back(*std::min_element(Ms.begin(), Ms.end()));
    SumMs += ModuleMs.back();
    R.note("module " + std::to_string(Sizes[I]) + " procs: " +
           std::to_string(Insts[I]) + " insts, " +
           std::to_string(ConstantRefs[I]) + " constant refs, " +
           std::to_string(Ms.size()) + " runs, quietest " +
           std::to_string(ModuleMs.back()) + " ms, median " +
           std::to_string(median(Ms)) + " ms");
  }

  if (!O.Trace) {
    R.Metrics["throughput"] = double(SumInsts) / SumMs;
    R.Metrics["latency_p50_ms"] = median(ModuleMs);
    R.Metrics["latency_tail_ms"] = percentile(ModuleMs, 1.0);
    R.Metrics["constant_refs"] = double(SumRefs);
    R.note("throughput in kinst/s over one module of each size; latency "
           "per module: the middle (1024) and slowest (4096) module; each "
           "module's time is the quietest of its runs");
    return R;
  }

  addSpanMetrics(Units, R);
  addOverheadMetrics(UntracedMs, TracedMs, R);
  R.Metrics["ir.insts"] = double(SumInsts);
  R.Metrics["core.propagate.evaluations"] = double(SumEvals);
  R.Metrics["analysis.sccp.runs"] = double(SumSccp);

  // Per size class: ns per IR instruction and the size exponent.
  std::map<std::string, std::vector<double>> PerSize[NumSizes];
  for (const UnitTrace &U : Units) {
    for (const auto &[Span, Ms] : U.SelfMs)
      PerSize[U.SizeClass][Span].push_back(Ms);
    for (const auto &[Span, Ms] : U.ReplicaMs)
      PerSize[U.SizeClass][Span].push_back(Ms);
  }
  for (const auto &[Span, Unused] : PerSize[0]) {
    double X[NumSizes], Y[NumSizes];
    for (unsigned I = 0; I != NumSizes; ++I) {
      X[I] = double(Insts[I]);
      Y[I] = median(PerSize[I][Span]);
      R.Metrics[Span + ".ns_per_inst." + std::to_string(Sizes[I])] =
          X[I] > 0 ? Y[I] * 1e6 / X[I] : 0;
    }
    R.Metrics[Span + ".size_exp"] = sizeExponent(X, Y);
  }
  return R;
}

} // namespace perfbench
