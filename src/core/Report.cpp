//===- core/Report.cpp ----------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "frontend/Parser.h"
#include "ir/AstLower.h"
#include "support/Trace.h"

#include <algorithm>

using namespace ipcp;

JsonValue ipcp::optionsToJson(const IPCPOptions &Opts) {
  JsonValue Obj = JsonValue::object();
  for (const OptionSpec &Row : optionTable()) {
    if (!(Row.Surfaces & OnReport))
      continue;
    if (Row.Type == OptionType::Switch)
      Obj.set(Row.Key, Row.Get(Opts) != 0);
    else if (Row.Type == OptionType::Count)
      Obj.set(Row.Key, Row.Get(Opts));
    else
      Obj.set(Row.Key, optionText(Row, Opts));
  }
  return Obj;
}

JsonValue ipcp::statusToJson(const PipelineStatus &Status) {
  JsonValue Obj = JsonValue::object();
  Obj.set("limit", Status.TrippedLimit);
  Obj.set("stage", Status.Stage);
  Obj.set("message", Status.Message);
  return Obj;
}

namespace {

/// Stamps the degraded flag (always present) and, when degraded, the
/// degradation object onto one result object.
void setDegradation(JsonValue &Obj, const PipelineStatus &Status) {
  Obj.set("degraded", Status.Degraded);
  if (Status.Degraded)
    Obj.set("degradation", statusToJson(Status));
}

/// The per-stage timings as one object, pulled from the time_*_us
/// counters so the JSON mirrors exactly what was measured. Each stage's
/// key is its counter name without the time_ and _us affixes.
JsonValue timingsToJson(const StatisticSet &Stats) {
  static const Counter Timers[] = {
      Counter::time_callgraph_us,       Counter::time_modref_us,
      Counter::time_intraprocedural_us, Counter::time_return_jf_us,
      Counter::time_forward_jf_us,      Counter::time_propagation_us,
      Counter::time_record_us,          Counter::time_total_us,
  };
  JsonValue Obj = JsonValue::object();
  for (Counter C : Timers) {
    std::string Name = counterName(C);
    Obj.set(Name.substr(5, Name.size() - 8), Stats.get(C));
  }
  return Obj;
}

JsonValue histogramToJson(const StatisticSet &Stats) {
  JsonValue Obj = JsonValue::object();
  uint64_t Bottom = Stats.get(Counter::jf_bottom);
  uint64_t Constant = Stats.get(Counter::jf_constant);
  uint64_t PassThrough = Stats.get(Counter::jf_passthrough);
  uint64_t Polynomial = Stats.get(Counter::jf_polynomial);
  Obj.set("bottom", Bottom);
  Obj.set("constant", Constant);
  Obj.set("pass_through", PassThrough);
  Obj.set("polynomial", Polynomial);
  Obj.set("total", Bottom + Constant + PassThrough + Polynomial);
  return Obj;
}

JsonValue procedureToJson(const ProcedureResult &PR) {
  JsonValue Obj = JsonValue::object();
  Obj.set("name", PR.Name);
  JsonValue Constants = JsonValue::array();
  for (const auto &[Name, Value] : PR.EntryConstants) {
    JsonValue C = JsonValue::object();
    C.set("variable", Name);
    C.set("value", int64_t(Value));
    Constants.push(std::move(C));
  }
  Obj.set("constants", std::move(Constants));
  Obj.set("constant_refs", PR.ConstantRefs);
  Obj.set("irrelevant_constants", PR.IrrelevantConstants);
  return Obj;
}

} // namespace

JsonValue ipcp::resultToJson(const IPCPResult &Result) {
  JsonValue Obj = JsonValue::object();
  Obj.set("total_entry_constants", Result.TotalEntryConstants);
  Obj.set("total_constant_refs", Result.TotalConstantRefs);
  JsonValue Procs = JsonValue::array();
  for (const ProcedureResult &PR : Result.Procs)
    Procs.push(procedureToJson(PR));
  Obj.set("procedures", std::move(Procs));
  Obj.set("jump_functions", histogramToJson(Result.Stats));
  Obj.set("timings_us", timingsToJson(Result.Stats));
  Obj.set("counters", Result.Stats.toJson());
  if (Result.UsedCache) {
    JsonValue Cache = JsonValue::object();
    Cache.set("hits", Result.Stats.get(Counter::cache_hits));
    Cache.set("misses", Result.Stats.get(Counter::cache_misses));
    Cache.set("invalidations", Result.Stats.get(Counter::cache_invalidations));
    Cache.set("val_adopted", Result.Stats.get(Counter::cache_val_adopted));
    Cache.set("record_reused", Result.Stats.get(Counter::cache_record_reused));
    Cache.set("load_failures", Result.Stats.get(Counter::cache_load_failures));
    Obj.set("cache", std::move(Cache));
  }
  if (Result.ContextStudy.Enabled) {
    const ContextEngineStats &CS = Result.ContextStudy;
    JsonValue Study = JsonValue::object();
    Study.set("contexts", CS.Contexts);
    Study.set("summary_contexts", CS.SummaryContexts);
    Study.set("evaluations", CS.Evaluations);
    Study.set("reused", CS.Reused);
    Study.set("merges", CS.Merges);
    Study.set("entry_bytes", CS.EntryBytes);
    Study.set("budget_tripped", CS.BudgetTripped);
    Study.set("baseline_val_constants", CS.BaselineValConstants);
    Study.set("val_constants", CS.ValConstants);
    Study.set("val_constants_delta",
              int64_t(CS.ValConstants) - int64_t(CS.BaselineValConstants));
    Obj.set("context_study", std::move(Study));
  }
  setDegradation(Obj, Result.Status);
  return Obj;
}

JsonValue ipcp::completeToJson(const CompletePropagationResult &Result) {
  JsonValue Obj = JsonValue::object();
  Obj.set("rounds", Result.Rounds);
  Obj.set("total_constant_refs", Result.TotalConstantRefs);
  Obj.set("blocks_removed", Result.BlocksRemoved);
  Obj.set("counters", Result.Stats.toJson());
  Obj.set("final_round", resultToJson(Result.FinalRound));
  setDegradation(Obj, Result.Status);
  return Obj;
}

JsonValue ipcp::cloningToJson(const CloningResult &Result) {
  JsonValue Obj = JsonValue::object();
  Obj.set("clones_created", Result.ClonesCreated);
  Obj.set("rounds_run", Result.RoundsRun);
  Obj.set("refs_before", Result.RefsBefore);
  Obj.set("refs_after", Result.RefsAfter);
  Obj.set("constants_before", Result.ConstantsBefore);
  Obj.set("constants_after", Result.ConstantsAfter);
  Obj.set("instructions_before", Result.InstructionsBefore);
  Obj.set("instructions_after", Result.InstructionsAfter);
  setDegradation(Obj, Result.Status);
  return Obj;
}

JsonValue ipcp::optimizationToJson(const OptimizationResult &Result) {
  JsonValue Obj = JsonValue::object();
  JsonValue Passes = JsonValue::array();
  JsonValue Timings = JsonValue::array();
  for (const PassTiming &PT : Result.PassTimings) {
    Passes.push(PT.Pass);
    JsonValue T = JsonValue::object();
    T.set("pass", PT.Pass);
    T.set("us", PT.Us);
    Timings.push(std::move(T));
  }
  Obj.set("passes", std::move(Passes));
  Obj.set("rounds", Result.Rounds);
  Obj.set("substitutions", Result.Substitutions);
  Obj.set("folds", Result.Folds);
  Obj.set("branches_resolved", Result.BranchesResolved);
  Obj.set("blocks_removed", Result.BlocksRemoved);
  Obj.set("insts_removed", Result.InstsRemoved);
  Obj.set("copies_propagated", Result.CopiesPropagated);
  Obj.set("instructions_before", Result.InstructionsBefore);
  Obj.set("instructions_after", Result.InstructionsAfter);
  Obj.set("pass_timings_us", std::move(Timings));
  Obj.set("counters", Result.Stats.toJson());
  setDegradation(Obj, Result.Status);
  return Obj;
}

JsonValue ipcp::buildAnalysisReport(const AnalysisReport &Report) {
  JsonValue Obj = JsonValue::object();
  Obj.set("schema", "ipcp-report-v1");
  if (!Report.SourceName.empty())
    Obj.set("source", Report.SourceName);
  if (Report.M) {
    JsonValue Mod = JsonValue::object();
    Mod.set("procedures", uint64_t(Report.M->procedures().size()));
    Mod.set("instructions", Report.M->instructionCount());
    Obj.set("module", std::move(Mod));
  }
  if (Report.Opts)
    Obj.set("options", optionsToJson(*Report.Opts));
  if (Report.Single)
    Obj.set("result", resultToJson(*Report.Single));
  if (Report.Complete)
    Obj.set("complete_propagation", completeToJson(*Report.Complete));
  if (Report.Cloning)
    Obj.set("cloning", cloningToJson(*Report.Cloning));
  if (Report.Optimization)
    Obj.set("optimization", optimizationToJson(*Report.Optimization));
  if (Report.TraceData)
    Obj.set("trace", Report.TraceData->toJson());

  // Top-level degradation: explicit status wins (frontend trips produce
  // no result object to carry it); otherwise any degraded member result
  // marks the whole report degraded.
  const PipelineStatus *Status = Report.Status;
  if (!Status && Report.Single && Report.Single->Status.Degraded)
    Status = &Report.Single->Status;
  if (!Status && Report.Complete && Report.Complete->Status.Degraded)
    Status = &Report.Complete->Status;
  if (!Status && Report.Cloning && Report.Cloning->Status.Degraded)
    Status = &Report.Cloning->Status;
  if (!Status && Report.Optimization && Report.Optimization->Status.Degraded)
    Status = &Report.Optimization->Status;
  Obj.set("degraded", Status && Status->Degraded);
  if (Status && Status->Degraded)
    Obj.set("degradation", statusToJson(*Status));
  return Obj;
}

bool RequestRun::compile(std::string_view Source) {
  std::optional<Program> Ast = parseAndCheck(Source, Diags, &Guard);
  if (!Ast)
    return false;
  M = lowerProgram(*Ast);
  Guard.checkIRInstructions(M->instructionCount(), "lowering");
  Guard.checkDeadline("lowering");
  return true;
}

void RequestRun::run(SummaryCache *Cache) {
  if (Req.Optimize)
    Optimization = optimizeModule(*M, Req.Opts, Req.Passes, &Guard);
  if (Req.Complete)
    Complete = runCompletePropagation(*M, Req.Opts, &Guard);
  else
    Single = runIPCP(*M, Req.Opts, &Guard, Cache);
}

JsonValue RequestRun::report(bool Scrub, const Trace *TraceData) const {
  PipelineStatus Status = Guard.status();
  AnalysisReport Report;
  Report.SourceName = Req.Name;
  Report.M = M.get();
  Report.Opts = &Req.Opts;
  Report.Single = Single ? &*Single : nullptr;
  Report.Complete = Complete ? &*Complete : nullptr;
  Report.Cloning = Cloning ? &*Cloning : nullptr;
  Report.Optimization = Optimization ? &*Optimization : nullptr;
  Report.TraceData = TraceData;
  Report.Status = &Status;
  JsonValue Doc = buildAnalysisReport(Report);
  if (Scrub)
    scrubReportTimings(Doc);
  return Doc;
}

namespace {

/// Counters whose values a warm run may legitimately change.
bool isWarmVolatileCounter(const std::string &Name) {
  if (Name.rfind("time_", 0) == 0 || Name.rfind("cache_", 0) == 0)
    return true;
  return Name == "prop_visits" || Name == "prop_evaluations" ||
         Name == "prop_lowerings" || Name == "prop_revisits" ||
         Name == "unique_exprs";
}

} // namespace

void ipcp::normalizeReportForDiff(JsonValue &Report) {
  if (Report.isArray()) {
    for (size_t I = 0, N = Report.size(); I != N; ++I)
      normalizeReportForDiff(Report.at(I));
    return;
  }
  if (!Report.isObject())
    return;
  Report.remove("timings_us");
  // The optimization block's per-pass wall times vary run to run just
  // like the stage timings do.
  Report.remove("pass_timings_us");
  Report.remove("cache");
  Report.remove("trace");
  for (auto &[Key, Val] : Report.members()) {
    if (Key == "counters" && Val.isObject()) {
      auto &Counters = Val.members();
      Counters.erase(std::remove_if(Counters.begin(), Counters.end(),
                                    [](const auto &KV) {
                                      return isWarmVolatileCounter(KV.first);
                                    }),
                     Counters.end());
      continue;
    }
    normalizeReportForDiff(Val);
  }
}

JsonValue ipcp::buildServiceEnvelope(uint64_t Seq, const JsonValue *Id,
                                     JsonValue Body) {
  JsonValue Env = JsonValue::object();
  Env.set("schema", "ipcp-service-v1");
  Env.set("seq", Seq);
  if (Id)
    Env.set("id", *Id);
  for (auto &[Key, Val] : Body.members())
    Env.set(Key, std::move(Val));
  return Env;
}

JsonValue ipcp::serviceErrorObject(const std::string &Code,
                                   const std::string &Message) {
  JsonValue Err = JsonValue::object();
  Err.set("code", Code);
  Err.set("message", Message);
  // Whether the same request can be expected to succeed if resent:
  // transient conditions (overload, an internal fault) are retryable;
  // a malformed or unanalyzable request will fail the same way again.
  Err.set("retryable", Code == "busy" || Code == "internal");
  return Err;
}

void ipcp::scrubReportTimings(JsonValue &Report) {
  if (Report.isArray()) {
    for (size_t I = 0, N = Report.size(); I != N; ++I)
      scrubReportTimings(Report.at(I));
    return;
  }
  if (!Report.isObject())
    return;
  for (auto &[Key, Val] : Report.members()) {
    if (Key == "timings_us" && Val.isObject()) {
      for (auto &[Stage, T] : Val.members())
        if (T.isNumber())
          T = JsonValue(int64_t(0));
      continue;
    }
    if (Key == "pass_timings_us" && Val.isArray()) {
      for (size_t I = 0, N = Val.size(); I != N; ++I) {
        JsonValue &Entry = Val.at(I);
        if (Entry.isObject())
          if (JsonValue *Us = Entry.find("us"); Us && Us->isNumber())
            *Us = JsonValue(int64_t(0));
      }
      continue;
    }
    if (Key.rfind("time_", 0) == 0 && Val.isNumber()) {
      Val = JsonValue(int64_t(0));
      continue;
    }
    scrubReportTimings(Val);
  }
}
