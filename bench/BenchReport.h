//===- bench/BenchReport.h - Helpers the bench harnesses share --*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every bench harness shares: the suite modules, loaded once; the
/// one parse-check-lower step for the programs a harness spells out or
/// generates; and publication of its headline numbers as JSON without
/// touching its console output. When the IPCP_BENCH_JSON_DIR environment
/// variable is set, benchReport("table2", Doc) writes Doc (wrapped in an
/// "ipcp-bench-report-v1" envelope) to $IPCP_BENCH_JSON_DIR/BENCH_table2.json;
/// when it is unset, the call is a no-op. This is how BENCH_*.json
/// trajectories are produced mechanically — see docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_BENCH_BENCHREPORT_H
#define IPCP_BENCH_BENCHREPORT_H

#include "frontend/Parser.h"
#include "ir/AstLower.h"
#include "ir/Module.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "workload/Programs.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ipcp {

/// The twelve suite modules, loaded once; harnesses analyze them
/// read-only.
inline const std::vector<std::unique_ptr<Module>> &suiteModules() {
  static const std::vector<std::unique_ptr<Module>> Modules = [] {
    std::vector<std::unique_ptr<Module>> Out;
    for (const SuiteProgram &Prog : benchmarkSuite())
      Out.push_back(loadSuiteModule(Prog));
    return Out;
  }();
  return Modules;
}

/// Parses, checks and lowers \p Source. A harness's own programs are
/// well formed, so a frontend error aborts with its diagnostics.
inline std::unique_ptr<Module> benchModule(const std::string &Source) {
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(Source, Diags);
  if (!Ast) {
    std::fprintf(stderr, "bench program failed to compile:\n%s",
                 Diags.str().c_str());
    std::abort();
  }
  return lowerProgram(*Ast);
}

/// Writes BENCH_<name>.json into $IPCP_BENCH_JSON_DIR, if set. Returns
/// false (after printing to stderr) only when the write itself failed.
inline bool benchReport(const std::string &Name, JsonValue Body) {
  const char *Dir = std::getenv("IPCP_BENCH_JSON_DIR");
  if (!Dir || !*Dir)
    return true;
  JsonValue Doc = JsonValue::object();
  Doc.set("schema", "ipcp-bench-report-v1");
  Doc.set("bench", Name);
  Doc.set("data", std::move(Body));
  std::string Path = std::string(Dir) + "/BENCH_" + Name + ".json";
  std::string Error;
  if (!writeJsonFile(Path, Doc, &Error)) {
    std::fprintf(stderr, "benchReport: %s\n", Error.c_str());
    return false;
  }
  std::fprintf(stderr, "bench report written to %s\n", Path.c_str());
  return true;
}

/// Loads the committed pre-optimization baseline for one harness from
/// bench/baselines/BENCH_<name>.json (compiled-in source path, override
/// with IPCP_BENCH_BASELINE_DIR) and returns its "data" object, so
/// harnesses can compare their counters with it. Nullopt when the
/// baseline file is absent or malformed — the comparison is then
/// skipped.
inline std::optional<JsonValue> benchBaseline(const std::string &Name) {
  const char *Dir = std::getenv("IPCP_BENCH_BASELINE_DIR");
#ifdef IPCP_BENCH_BASELINE_SRCDIR
  if (!Dir || !*Dir)
    Dir = IPCP_BENCH_BASELINE_SRCDIR;
#endif
  if (!Dir || !*Dir)
    return std::nullopt;
  std::string Text;
  if (!readFileToString(std::string(Dir) + "/BENCH_" + Name + ".json", Text))
    return std::nullopt;
  std::optional<JsonValue> Doc = JsonValue::parse(Text);
  if (!Doc || !Doc->isObject())
    return std::nullopt;
  const JsonValue *Data = Doc->find("data");
  if (!Data || !Data->isObject())
    return std::nullopt;
  return *Data;
}

} // namespace ipcp

#endif // IPCP_BENCH_BENCHREPORT_H
