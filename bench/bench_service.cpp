//===- bench/bench_service.cpp - Analysis-as-a-service throughput ---------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The performance claims of the ipcp_serverd work (docs/SERVICE.md):
//
//  1. A resident service beats one-shot driver invocations on repeat
//     requests: once a session's summary cache is populated, a warm
//     `analyze` performs ZERO jump-function evaluations for an unedited
//     program — the response is assembled entirely from adopted
//     summaries. This harness asserts that (exit 1 if any warm request
//     evaluates anything).
//
//  2. Batching amortizes per-request overhead: one `analyze-batch`
//     carrying the whole suite is compared against the same programs as
//     individual requests.
//
// The headline numbers — cold / warm / batched throughput in requests
// per second plus p50/p99/p999 per-request latency — land in
// BENCH_service.json
// (when IPCP_BENCH_JSON_DIR is set, see docs/OBSERVABILITY.md) so
// trajectories can compare them mechanically. Every mode is one client
// stream on a one-shard, one-job ShardedService, held open for the whole
// mode like a daemon connection; a request is timed from submitLine until
// its response line pops, so the measured path is the daemon's dispatcher
// minus the socket.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/ShardedService.h"
#include "support/Statistics.h"
#include "workload/Programs.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace ipcp;

namespace {

ShardedService::Config benchConfig() {
  ShardedService::Config Conf;
  Conf.Shards = 1;
  Conf.Jobs = 1;
  Conf.Engine.ScrubTimings = true;
  Conf.Engine.SuiteResolver = [](const std::string &Name, std::string &Out) {
    const SuiteProgram *Prog = findSuiteProgram(Name);
    if (!Prog)
      return false;
    Out = Prog->Source;
    return true;
  };
  return Conf;
}

/// An `analyze` request line for one suite program; \p Session == ""
/// means no resident cache (every request is a cold run).
std::string analyzeLine(const std::string &Suite, const std::string &Session) {
  std::string Line = "{\"op\":\"analyze\",\"suite\":\"" + Suite + "\"";
  if (!Session.empty())
    Line += ",\"session\":\"" + Session + "\"";
  return Line + "}";
}

/// One `analyze-batch` line carrying every suite program.
std::string batchLine(const std::string &Session) {
  std::string Line = "{\"op\":\"analyze-batch\",\"requests\":[";
  bool First = true;
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    if (!First)
      Line += ",";
    First = false;
    Line += analyzeLine(Prog.Name, Session);
  }
  return Line + "]}";
}

/// One client connection: a single stream for its whole life, one
/// request in flight at a time.
class Client {
public:
  explicit Client(ShardedService &Svc) : Svc(Svc), St(Svc.openStream()) {}
  ~Client() { Svc.finishStream(*St); }

  /// Sends \p Line and blocks for its response line.
  std::string send(const std::string &Line) {
    Svc.submitLine(*St, Line);
    std::string Response;
    St->popResponse(Response);
    return Response;
  }

private:
  ShardedService &Svc;
  std::unique_ptr<ShardedService::Stream> St;
};

/// Parses a response line. Aborts loudly on anything but status "ok" —
/// the suite programs all analyze cleanly, so an error here is a bench
/// bug.
JsonValue checkedBody(const std::string &Response) {
  std::optional<JsonValue> Body = JsonValue::parse(Response);
  const JsonValue *Status = Body ? Body->find("status") : nullptr;
  if (!Status || !Status->isString() || Status->asString() != "ok") {
    std::fprintf(stderr, "bench_service: request failed: %s",
                 Response.c_str());
    std::exit(1);
  }
  return std::move(*Body);
}

/// prop_evaluations out of one analyze response body.
uint64_t evalsOf(const JsonValue &Body) {
  const JsonValue *Report = Body.find("report");
  const JsonValue *Result = Report ? Report->find("result") : nullptr;
  const JsonValue *Counters = Result ? Result->find("counters") : nullptr;
  const JsonValue *Evals =
      Counters ? Counters->find("prop_evaluations") : nullptr;
  return Evals ? uint64_t(Evals->asInt()) : 0;
}

/// Sum of prop_evaluations over a batch response's items.
uint64_t batchEvals(const JsonValue &Body) {
  uint64_t Sum = 0;
  if (const JsonValue *Items = Body.find("responses"))
    for (size_t I = 0; I != Items->size(); ++I)
      Sum += evalsOf(Items->at(I));
  return Sum;
}

struct ModeResult {
  uint64_t Requests = 0;
  uint64_t Programs = 0;
  uint64_t Evaluations = 0;
  double TotalMs = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  double P999Ms = 0;
};

/// \p Q in (0, 1]; \p Sorted ascending. Ceil-index convention, so p99 of
/// 100 samples is the 99th.
double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Idx = size_t(Q * double(Sorted.size()) + 0.999999);
  return Sorted[std::min(Idx, Sorted.size()) - 1];
}

/// Runs \p Rounds passes over the request \p Lines, timing each request.
ModeResult runMode(Client &C, const std::vector<std::string> &Lines,
                   unsigned Rounds, unsigned ProgramsPerRequest) {
  ModeResult R;
  std::vector<double> Latencies;
  Latencies.reserve(size_t(Rounds) * Lines.size());
  for (unsigned Round = 0; Round != Rounds; ++Round)
    for (const std::string &Line : Lines) {
      Timer T;
      std::string Response = C.send(Line);
      double Ms = T.seconds() * 1e3;
      JsonValue Body = checkedBody(Response);
      Latencies.push_back(Ms);
      R.TotalMs += Ms;
      R.Evaluations += ProgramsPerRequest > 1 ? batchEvals(Body) : evalsOf(Body);
      ++R.Requests;
      R.Programs += ProgramsPerRequest;
    }
  std::sort(Latencies.begin(), Latencies.end());
  R.P50Ms = percentile(Latencies, 0.50);
  R.P99Ms = percentile(Latencies, 0.99);
  R.P999Ms = percentile(Latencies, 0.999);
  return R;
}

JsonValue modeJson(const ModeResult &R) {
  JsonValue Obj = JsonValue::object();
  Obj.set("requests", R.Requests);
  Obj.set("programs", R.Programs);
  Obj.set("prop_evaluations", R.Evaluations);
  Obj.set("total_ms", R.TotalMs);
  Obj.set("requests_per_sec", R.TotalMs > 0 ? R.Requests / (R.TotalMs / 1e3)
                                            : 0.0);
  Obj.set("programs_per_sec", R.TotalMs > 0 ? R.Programs / (R.TotalMs / 1e3)
                                            : 0.0);
  Obj.set("p50_ms", R.P50Ms);
  Obj.set("p99_ms", R.P99Ms);
  Obj.set("p999_ms", R.P999Ms);
  return Obj;
}

// Google-benchmark coverage of the same three paths, for `--benchmark_*`
// style runs; the headline section below is what CI and BENCH_service.json
// consume.

void BM_ServiceAnalyze(benchmark::State &State) {
  bool Warm = State.range(0) != 0;
  State.SetLabel(Warm ? "warm" : "cold");
  ShardedService Svc(benchConfig());
  Client C(Svc);
  std::vector<std::string> Lines;
  for (const SuiteProgram &Prog : benchmarkSuite())
    Lines.push_back(analyzeLine(Prog.Name, Warm ? "bm" : ""));
  if (Warm)
    for (const std::string &Line : Lines)
      checkedBody(C.send(Line)); // populate the session caches
  for (auto _ : State)
    for (const std::string &Line : Lines)
      benchmark::DoNotOptimize(C.send(Line));
}
BENCHMARK(BM_ServiceAnalyze)->DenseRange(0, 1)->ArgName("warm");

void BM_ServiceBatch(benchmark::State &State) {
  ShardedService Svc(benchConfig());
  Client C(Svc);
  std::string Line = batchLine("bm");
  checkedBody(C.send(Line)); // populate
  for (auto _ : State)
    benchmark::DoNotOptimize(C.send(Line));
}
BENCHMARK(BM_ServiceBatch);

} // namespace

int main(int argc, char **argv) {
  const unsigned Rounds = 25;
  std::vector<std::string> ColdLines, WarmLines;
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    ColdLines.push_back(analyzeLine(Prog.Name, ""));
    WarmLines.push_back(analyzeLine(Prog.Name, "bench"));
  }

  // Cold: no session, so every request re-analyzes from scratch.
  ShardedService ColdSvc(benchConfig());
  Client ColdClient(ColdSvc);
  ModeResult Cold = runMode(ColdClient, ColdLines, Rounds, 1);

  // Warm: resident session caches, populated by one untimed pass.
  ShardedService WarmSvc(benchConfig());
  Client WarmClient(WarmSvc);
  for (const std::string &Line : WarmLines)
    checkedBody(WarmClient.send(Line));
  ModeResult Warmed = runMode(WarmClient, WarmLines, Rounds, 1);

  // Batched warm: one request carries the whole suite.
  ShardedService BatchSvc(benchConfig());
  Client BatchClient(BatchSvc);
  std::string Batch = batchLine("bench");
  checkedBody(BatchClient.send(Batch));
  ModeResult Batched =
      runMode(BatchClient, {Batch}, Rounds, unsigned(benchmarkSuite().size()));

  std::printf("service throughput over the %zu-program suite "
              "(%u rounds each):\n",
              benchmarkSuite().size(), Rounds);
  auto Print = [](const char *Name, const ModeResult &R) {
    std::printf("  %-8s %6llu req  %8.1f req/s  %8.1f prog/s  "
                "p99 %7.3f ms  evals %llu\n",
                Name, (unsigned long long)R.Requests,
                R.TotalMs > 0 ? R.Requests / (R.TotalMs / 1e3) : 0.0,
                R.TotalMs > 0 ? R.Programs / (R.TotalMs / 1e3) : 0.0, R.P99Ms,
                (unsigned long long)R.Evaluations);
  };
  Print("cold", Cold);
  Print("warm", Warmed);
  Print("batched", Batched);

  // The headline claim: warm requests — batched or not — for unedited
  // programs perform no jump-function evaluations at all.
  bool WarmFree = Warmed.Evaluations == 0 && Batched.Evaluations == 0;
  bool ColdWorked = Cold.Evaluations > 0;
  std::printf("  warm requests evaluate nothing: %s\n\n",
              WarmFree ? "yes" : "NO");

  JsonValue Doc = JsonValue::object();
  Doc.set("cold", modeJson(Cold));
  Doc.set("warm", modeJson(Warmed));
  Doc.set("batched", modeJson(Batched));
  Doc.set("warm_evaluations_zero", WarmFree);
  Doc.set("ok", WarmFree && ColdWorked);
  benchReport("service", std::move(Doc));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return (WarmFree && ColdWorked) ? 0 : 1;
}
