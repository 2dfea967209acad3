//===- perfbench/src/EditSession.cpp - Workload edit-session ---------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// An editor talking to the analysis service: closed loop, one client
// that waits for each answer. One session and one report name hold a
// generated 512-procedure module; every request sends the whole source
// with a single `print <k>;` added after the declarations of one seeded
// procedure. The requests cycle through a fixed set of such edits, so
// each one stages and commits the dirty SCCs of the summary cache while
// re-parsing and re-lowering mostly unchanged text. No two consecutive
// requests carry the same source.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Report.h"
#include "core/ServiceEngine.h"
#include "frontend/Parser.h"
#include "ir/AstLower.h"
#include "ir/Module.h"
#include "workload/Generator.h"

#include <memory>

using namespace ipcp;

namespace perfbench {

namespace {

constexpr unsigned NumProcs = 512;
/// The module is the same for every --seed, which picks the edits: the
/// constants a 512-procedure module holds vary by a fifth between
/// generator seeds, and constant_refs must compare across seeds.
constexpr uint64_t ModuleSeed = 1;
constexpr unsigned NumEdits = 8;
const char *const SessionName = "editor";
const char *const ReportName = "edit-session.mf";

/// \p Source with `print K;` inserted after the `var` declarations that
/// open procedure \p Proc (generator output puts them first).
std::string withPrint(const std::string &Source, const std::string &Proc,
                      uint64_t K) {
  size_t At = Source.find("\nproc " + Proc + "(");
  if (At == std::string::npos)
    return Source;
  At = Source.find('\n', At + 1) + 1;
  while (Source.compare(Source.find_first_not_of(' ', At), 4, "var ") == 0)
    At = Source.find('\n', At) + 1;
  return Source.substr(0, At) + "  print " + std::to_string(K) + ";\n" +
         Source.substr(At);
}

std::string analyzeLine(const std::string &Source, const std::string &Id) {
  JsonValue Req = JsonValue::object();
  Req.set("op", "analyze");
  Req.set("id", Id);
  Req.set("name", ReportName);
  Req.set("session", SessionName);
  Req.set("source", Source);
  return Req.dump();
}

/// The report a cold one-shot analysis of \p Source produces, normalized
/// for comparison with a warm one.
std::string coldReference(const std::string &Source) {
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(Source, Diags);
  if (!Ast)
    return "parse error: " + Diags.str();
  std::unique_ptr<Module> M = lowerProgram(*Ast);
  IPCPOptions Opts;
  IPCPResult Result = runIPCP(*M, Opts);
  AnalysisReport Report;
  Report.SourceName = ReportName;
  Report.M = M.get();
  Report.Opts = &Opts;
  Report.Single = &Result;
  Report.Status = &Result.Status;
  JsonValue Doc = buildAnalysisReport(Report);
  normalizeReportForDiff(Doc);
  return Doc.dump();
}

} // namespace

RunResult runEditSession(const RunOptions &O) {
  RunResult R;
  std::vector<std::string> Sources, Lines;
  std::unique_ptr<ServiceEngine> Engine;
  R.Metrics["setup_s"] = medianSetup(9, [&] {
    GeneratorConfig Config;
    Config.Seed = ModuleSeed;
    Config.NumProcs = NumProcs;
    std::string Base = generateProgram(Config);
    Sources.clear();
    Lines.clear();
    // Edit E lands in the E-th eighth of the procedures: an edit dirties
    // its callers, so where it lands sets its cost, and every seed gets
    // one edit at each depth of the call graph.
    constexpr unsigned Stratum = NumProcs / NumEdits;
    for (unsigned E = 0; E != NumEdits; ++E) {
      uint64_t Pick = deriveSeed(O.Seed, 100 + E);
      unsigned Proc = E * Stratum + unsigned(Pick % Stratum);
      Sources.push_back(
          withPrint(Base, "p" + std::to_string(Proc), Pick / Stratum % 1000));
      Lines.push_back(analyzeLine(Sources.back(), "e" + std::to_string(E)));
    }
    // The session holds the unedited module before the first edit.
    Engine = std::make_unique<ServiceEngine>(ServiceEngine::Config());
    ServiceRequest Req;
    std::string Code, Error;
    if (!Engine->parseRequestLine(analyzeLine(Base, "base"), Req, &Code,
                                  &Error))
      R.fail("base request rejected: " + Error);
    else
      Engine->analyze(Req);
  });

  // The first normalized warm report of each edit; every later one must
  // match it, and it must match a cold analysis.
  std::string Normalized[NumEdits];
  uint64_t Answered = 0;
  // Request times of each edit in the untraced cycles after the first.
  std::map<std::string, std::vector<double>> EditMs;
  std::vector<UnitTrace> Units;
  std::map<std::string, std::vector<double>> UntracedMs, TracedMs;
  DeterminismCheck Determinism;
  // Counts of the latest request of each edit: after the first cycle
  // every edit follows the same predecessor, so these repeat exactly.
  uint64_t ConstantRefs[NumEdits] = {}, Insts[NumEdits] = {},
           CacheHits[NumEdits] = {}, CacheMisses[NumEdits] = {},
           Evaluations[NumEdits] = {}, SccpRuns[NumEdits] = {};
  std::string Previous = "base";

  // A traced run traces every other cycle; the cycles between measure
  // the tracing overhead.
  double Start = now();
  for (uint64_t Seq = 0; now() - Start < O.Seconds; ++Seq) {
    unsigned E = unsigned(Seq % NumEdits);
    bool Traced = O.Trace && Seq / NumEdits % 2 == 1;
    ++R.Attempted;

    double T0 = now();
    ServiceRequest Req;
    std::string Code, Error;
    bool Parsed = Engine->parseRequestLine(Lines[E], Req, &Code, &Error);
    double T1 = now();
    JsonValue Body;
    if (Parsed)
      Body = Engine->analyze(Req);
    double T2 = now();
    std::string Out = buildServiceEnvelope(Seq, &Req.Id, Body).dump() + "\n";
    double T3 = now();

    const JsonValue *Status = Body.find("status");
    const JsonValue *Report = Body.find("report");
    if (!Parsed || !Status || Status->asString() != "ok" || !Report) {
      R.fail("edit " + std::to_string(E) + " failed: " + Out.substr(0, 200));
      continue;
    }
    std::string Input = "e" + std::to_string(E) + "<-" + Previous;
    Previous = "e" + std::to_string(E);
    (Traced ? TracedMs : UntracedMs)[Input].push_back((T3 - T0) * 1e3);

    const JsonValue &Counters = reportCounters(*Report);
    const JsonValue *Result = Report->find("result");
    ConstantRefs[E] = uint64_t(Result->find("total_constant_refs")->asInt());
    Insts[E] = uint64_t(Report->find("module")->find("instructions")->asInt());
    CacheHits[E] = requireCounter(Counters, "cache_hits");
    CacheMisses[E] = requireCounter(Counters, "cache_misses");
    Evaluations[E] = requireCounter(Counters, "prop_evaluations");
    SccpRuns[E] = requireCounter(Counters, "sccp_runs");
    Determinism.check(Input, "constant_refs", ConstantRefs[E]);
    Determinism.check(Input, "ir.insts", Insts[E]);
    Determinism.check(Input, "core.propagate.evaluations", Evaluations[E]);
    Determinism.check(Input, "core.cache.misses", CacheMisses[E]);

    if (Traced) {
      UnitTrace T;
      T.EndToEndMs = (T3 - T0) * 1e3;
      T.SelfMs["service.decode"] = (T1 - T0) * 1e3;
      T.SelfMs["support.json_dump"] = (T3 - T2) * 1e3;
      addStageSpans(Counters, -1, T);
      // analyze() parses and lowers inside; time both again on the same
      // source to split them out of the service's own time.
      double P0 = now();
      DiagnosticsEngine Diags;
      std::optional<Program> Ast = parseAndCheck(Sources[E], Diags);
      double P1 = now();
      std::unique_ptr<Module> M = lowerProgram(*Ast);
      double P2 = now();
      std::unique_ptr<Module> Copy = M->clone();
      double P3 = now();
      T.SelfMs["frontend.parse"] = (P1 - P0) * 1e3;
      T.SelfMs["ir.lower"] = (P2 - P1) * 1e3;
      T.ReplicaMs["ir.clone"] = (P3 - P2) * 1e3;
      double AnalysisMs =
          double(requireCounter(Counters, "time_total_us")) / 1e3;
      T.SelfMs["service.analyze"] =
          (T2 - T1) * 1e3 - AnalysisMs - (P2 - P0) * 1e3;
      Units.push_back(std::move(T));
    } else if (Seq >= NumEdits) {
      // The first cycle warms up: its first edit follows the base module.
      EditMs[Input].push_back((T3 - T0) * 1e3);
    }

    JsonValue Doc = *Report;
    normalizeReportForDiff(Doc);
    std::string Text = Doc.dump();
    if (Normalized[E].empty())
      Normalized[E] = std::move(Text);
    else if (Text != Normalized[E])
      R.fail("warm reports of edit " + std::to_string(E) + " differ");
    ++Answered;
  }

  // Untimed correctness: every warm report equals a cold analysis of the
  // same edited source once both are normalized.
  uint64_t SumRefs = 0;
  for (unsigned E = 0; E != NumEdits; ++E) {
    if (!Insts[E]) {
      R.fail("edit " + std::to_string(E) + " never ran; raise --seconds");
      continue;
    }
    SumRefs += ConstantRefs[E];
    if (Normalized[E] != coldReference(Sources[E]))
      R.fail("warm report of edit " + std::to_string(E) +
             " differs from a cold analysis");
  }
  R.note(std::to_string(Answered) + " edits of a " +
         std::to_string(NumProcs) + "-procedure module, " +
         std::to_string(Lines.empty() ? 0 : Lines[0].size()) +
         " bytes per request");

  if (!O.Trace) {
    std::vector<double> PerEdit = quietPerInput(EditMs);
    if (PerEdit.size() != NumEdits) {
      R.fail("fewer than two cycles of edits ran; raise --seconds");
      return R;
    }
    double SumMs = 0;
    for (double Ms : PerEdit)
      SumMs += Ms;
    R.Metrics["throughput"] = NumEdits * 1e3 / SumMs;
    R.Metrics["latency_p50_ms"] = median(PerEdit);
    R.Metrics["latency_tail_ms"] = percentile(PerEdit, 1.0);
    R.Metrics["constant_refs"] = double(SumRefs);
    R.note("throughput in requests/s; latency per request: the median and "
           "slowest of the " +
           std::to_string(NumEdits) +
           " edits, each the quietest of its requests over " +
           std::to_string(EditMs.begin()->second.size()) + " cycles");
    return R;
  }

  addSpanMetrics(Units, R);
  addOverheadMetrics(UntracedMs, TracedMs, R);
  auto Sum = [](const uint64_t(&PerEdit)[NumEdits]) {
    uint64_t Total = 0;
    for (uint64_t V : PerEdit)
      Total += V;
    return double(Total);
  };
  double Hits = Sum(CacheHits), Misses = Sum(CacheMisses);
  R.Metrics["ir.insts"] = Sum(Insts);
  R.Metrics["core.cache.hits"] = Hits;
  R.Metrics["core.cache.misses"] = Misses;
  R.Metrics["core.cache.hit_ratio"] = Hits + Misses ? Hits / (Hits + Misses) : 0;
  R.Metrics["core.propagate.evaluations"] = Sum(Evaluations);
  R.Metrics["analysis.sccp.runs"] = Sum(SccpRuns);
  return R;
}

} // namespace perfbench
