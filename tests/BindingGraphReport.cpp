//===- tests/BindingGraphReport.cpp - Binding-graph golden reports --------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes what the binding-multigraph solver computes on one MiniFort
/// program as a JSON document, for the golden_binding_graph_* ctests:
///
///   binding_graph_report FILE.mf --report-json=OUT [--scrub-timings]
///
/// The document holds CONSTANTS(p) for every procedure (the report's
/// "constants" lists), whether the fixpoint equals the analyzer's
/// (propagateConstants on the same jump functions), and the solver's
/// prop_* counters. No product surface selects this solver, so its
/// output is pinned here rather than through ipcp_driver. The document
/// has no wall-clock fields; --scrub-timings is accepted so that
/// tests/golden/RunGolden.cmake drives this program like the driver.
///
//===----------------------------------------------------------------------===//

#include "core/BindingGraph.h"
#include "core/Report.h"
#include "ir/Module.h"
#include "support/FileIO.h"
#include "support/Json.h"

#include <cstdio>
#include <string>
#include <string_view>

using namespace ipcp;

int main(int Argc, char **Argv) {
  std::string Source, Out;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.rfind("--report-json=", 0) == 0)
      Out = Arg.substr(14);
    else if (Arg == "--scrub-timings")
      continue;
    else if (!Arg.empty() && Arg[0] != '-' && Source.empty())
      Source = Arg;
    else {
      std::fprintf(stderr, "binding_graph_report: unknown argument '%s'\n",
                   Argv[I]);
      return 1;
    }
  }
  if (Source.empty() || Out.empty()) {
    std::fprintf(stderr, "usage: binding_graph_report FILE.mf "
                         "--report-json=OUT [--scrub-timings]\n");
    return 1;
  }

  std::string Text, Error;
  if (!readFileToString(Source, Text, &Error)) {
    std::fprintf(stderr, "binding_graph_report: %s\n", Error.c_str());
    return 1;
  }
  AnalysisRequest Req;
  RequestRun Run(Req);
  if (!Run.compile(Text)) {
    std::fprintf(stderr, "binding_graph_report: %s does not compile\n",
                 Source.c_str());
    return 1;
  }

  ModuleAnalysis A(*Run.M, Req.Opts);
  buildJumpFunctions(A, Req.Opts);
  PropagatorStats Stats;
  ConstantsMap CM =
      propagateConstantsBindingGraph(A.CG, A.MRI, A.Tables.FJFs, &Stats);
  ConstantsMap Analyzer = propagateConstants(A.CG, A.MRI, A.Tables.FJFs);

  JsonValue Procs = JsonValue::array();
  for (const auto &P : Run.M->procedures()) {
    JsonValue Constants = JsonValue::array();
    for (const auto &[Var, Value] : CM.constantsOf(P.get())) {
      JsonValue C = JsonValue::object();
      C.set("variable", std::string(Var->getName()));
      C.set("value", int64_t(Value));
      Constants.push(std::move(C));
    }
    JsonValue Proc = JsonValue::object();
    Proc.set("name", std::string(P->getName()));
    Proc.set("constants", std::move(Constants));
    Procs.push(std::move(Proc));
  }
  JsonValue Counters = JsonValue::object();
  Counters.set("prop_evaluations", Stats.JumpFunctionEvaluations);
  Counters.set("prop_lowerings", Stats.Lowerings);
  Counters.set("prop_revisits", Stats.Revisits);
  Counters.set("prop_val_constants", CM.totalConstants());
  Counters.set("prop_val_entries", CM.totalEntries());
  Counters.set("prop_visits", Stats.ProcVisits);

  JsonValue Doc = JsonValue::object();
  Doc.set("solver", "binding-graph");
  Doc.set("source", Source);
  Doc.set("procedures", std::move(Procs));
  Doc.set("equals_analyzer", CM.equals(Analyzer));
  Doc.set("counters", std::move(Counters));
  if (!writeJsonFile(Out, Doc, &Error)) {
    std::fprintf(stderr, "binding_graph_report: %s\n", Error.c_str());
    return 1;
  }
  return 0;
}
