//===- tools/ipcp_loadgen.cpp - million-request service load harness ------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Replays generated `ipcp-service-v1` request logs (workload/
// ServiceWorkload) against the analysis service at scale —
// millions of requests, configurable concurrency, open-loop arrival
// rates — and reports latency percentiles and saturation curves
// (docs/SCALING.md explains how to read them):
//
//   ipcp_loadgen [options]                  drive an in-process service
//   ipcp_loadgen --connect=SOCKET [options] drive a running ipcp_serverd
//
// workload shape:
//   --requests=N        analyze requests per run (default 1000)
//   --seed=S            workload seed (default 1)
//   --sessions=N        distinct sessions drawn per request (default 8)
//   --repeat-chance=P   percent repeating the previous program (default 70)
//   --batch-chance=P    percent folded into analyze-batch (default 10)
//   --programs=a,b,c    restrict to these suite programs (default: all)
//
// service shape (in-process mode; mirrors ipcp_serverd):
//   --jobs=N --queue-limit=N --result-buffer=N --max-sessions=N
//   --cache-dir=DIR --scrub-timings
//
// load shape:
//   --concurrency=W     closed-loop: at most W request lines in flight
//                       (default 32)
//   --rate=R            open-loop: R requests/sec arrivals; latency is
//                       measured from the scheduled arrival, so queueing
//                       delay is charged honestly (no coordinated
//                       omission). 0 = closed-loop (default)
//   --saturation=K      sweep K open-loop steps from 0.5x to 1.25x of a
//                       calibrated max throughput, printing a curve
//   --overload          flood mode: submit as fast as possible and
//                       assert bounded busy backpressure (exit 1 when
//                       the bounds fail)
//   --capture=FILE      append every response line to FILE (byte-compare
//                       fodder for the jobs-count determinism checks)
//
// retry shape (client-side backoff, docs/SERVICE.md):
//   --retry-busy        resubmit busy-rejected lines with capped
//                       exponential backoff + seeded jitter; the retry
//                       histogram (completed lines by retries used) is
//                       printed and lands in BENCH_service.json
//   --retry-max=N --retry-base-ms=N --retry-cap-ms=N
//   --retry-jitter-seed=S
//
// robustness (docs/ROBUSTNESS.md):
//   --fault-plan=SPEC   deterministic fault injection inside the
//                       in-process service (or IPCP_FAULT_PLAN)
//   --durable-store     fsync content-store writes before rename
//   --help
//
// Results go to stdout and — when IPCP_BENCH_JSON_DIR is set — into
// BENCH_service.json via bench/BenchReport.h: p50/p99/p999 latency, a
// saturation curve, and the overload verdict.
//
// Exit codes: 0 ok, 1 usage error or failed overload/latency invariant,
// 2 socket failure.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchReport.h"
#include "core/ServiceDispatcher.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/LineIO.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

void printUsage() {
  std::printf(
      "usage: ipcp_loadgen [options]              (drive an in-process "
      "service)\n"
      "       ipcp_loadgen --connect=SOCKET [options]\n"
      "workload shape:\n"
      "  --requests=N       analyze requests per run (default 1000)\n"
      "  --seed=S           workload seed (default 1)\n"
      "  --sessions=N       distinct sessions (default 8)\n"
      "  --repeat-chance=P  percent repeating the previous program\n"
      "                     (default 70)\n"
      "  --batch-chance=P   percent folded into analyze-batch (default 10)\n"
      "  --programs=a,b,c   restrict to these suite programs (default all)\n"
      "service shape (in-process mode):\n"
      "  --jobs=N --queue-limit=N --result-buffer=N --max-sessions=N\n"
      "  --cache-dir=DIR --scrub-timings\n"
      "load shape:\n"
      "  --concurrency=W    closed-loop in-flight request lines "
      "(default 32)\n"
      "  --rate=R           open-loop arrivals per second (0 = closed "
      "loop)\n"
      "  --saturation=K     K-step saturation sweep (0 = off)\n"
      "  --overload         flood; assert bounded busy backpressure\n"
      "  --capture=FILE     append every response line to FILE\n"
      "retry shape (client-side backoff for `busy` responses):\n"
      "  --retry-busy       resubmit busy-rejected lines with capped\n"
      "                     exponential backoff + seeded jitter; prints\n"
      "                     the per-request retry histogram\n"
      "  --retry-max=N      retries per request line (default 8)\n"
      "  --retry-base-ms=N  first backoff step (default 1)\n"
      "  --retry-cap-ms=N   backoff ceiling (default 64)\n"
      "  --retry-jitter-seed=S  jitter sequence seed (default 1)\n"
      "robustness:\n"
      "  --fault-plan=SPEC  deterministic fault injection for the\n"
      "                     in-process service (or IPCP_FAULT_PLAN; the\n"
      "                     flag wins; grammar in docs/ROBUSTNESS.md)\n"
      "  --durable-store    fsync store writes before rename\n"
      "  --help\n"
      "exit codes: 0 ok, 1 usage or failed invariant, 2 socket failure\n");
}

using Clock = std::chrono::steady_clock;

uint64_t nsSince(Clock::time_point T0) {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - T0)
                      .count());
}

/// Where request lines go and response lines come from; one per run.
struct Backend {
  virtual ~Backend() = default;
  virtual void submit(const std::string &Line) = 0;
  /// In-order response lines; false once the run is finished and
  /// drained.
  virtual bool pop(std::string &Out) = 0;
  /// Called on the submitting thread after the last submit.
  virtual void endSubmit() = 0;
  virtual uint64_t peakBuffered() { return 0; }
};

/// Runs against a ServiceDispatcher in this process (the default).
struct InProcessBackend final : Backend {
  ServiceDispatcher &Svc;
  std::unique_ptr<ServiceDispatcher::Stream> St;
  explicit InProcessBackend(ServiceDispatcher &Svc)
      : Svc(Svc), St(Svc.openStream()) {}
  void submit(const std::string &Line) override { Svc.submitLine(*St, Line); }
  bool pop(std::string &Out) override { return St->popResponse(Out); }
  void endSubmit() override { Svc.finishStream(*St); }
  uint64_t peakBuffered() override { return St->peakBuffered(); }
};

/// Runs against an external ipcp_serverd over its unix socket. The
/// daemon answers every request line exactly once and in order, so the
/// reader stops when it has one response per submitted line.
struct SocketBackend final : Backend {
  int Fd;
  LineReader Reader;
  std::atomic<uint64_t> Submitted{0};
  std::atomic<bool> Done{false};
  uint64_t Popped = 0;
  explicit SocketBackend(int Fd) : Fd(Fd), Reader(Fd) {}
  void submit(const std::string &Line) override {
    std::string Error;
    if (!writeAllToFd(Fd, Line + "\n", &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      std::exit(2);
    }
    Submitted.fetch_add(1);
  }
  bool pop(std::string &Out) override {
    while (Popped == Submitted.load()) {
      if (Done.load() && Popped == Submitted.load())
        return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::string Line;
    if (!Reader.readLine(Line))
      return false;
    Out = Line + "\n";
    ++Popped;
    return true;
  }
  void endSubmit() override { Done.store(true); }
};

/// Client-side handling of `busy` responses (docs/SERVICE.md): resubmit
/// the rejected request line with capped exponential backoff and seeded
/// jitter. Deliberately the reference implementation of the protocol's
/// retry contract — `retryable` responses are safe to resubmit, and the
/// backoff keeps a herd of retries from re-flooding the queue it just
/// overflowed.
struct RetryConfig {
  bool Enabled = false;
  uint64_t Max = 8;        ///< retries per request line
  uint64_t BaseMs = 1;     ///< first backoff step
  uint64_t CapMs = 64;     ///< backoff ceiling
  uint64_t JitterSeed = 1; ///< jitter sequence seed (deterministic delays)
};

struct RunResult {
  uint64_t AnalyzeRequests = 0;
  uint64_t SubmittedLines = 0;
  uint64_t ResponseLines = 0;
  uint64_t Busy = 0;
  uint64_t Retries = 0;          ///< resubmissions scheduled
  uint64_t RetryExhausted = 0;   ///< lines still busy after Max retries
  std::vector<uint64_t> RetryHist; ///< completed lines by retries used
  uint64_t PeakBuffered = 0;
  double WallMs = 0;
  double P50Ms = 0, P99Ms = 0, P999Ms = 0;
  double AchievedRps = 0;
};

double percentile(std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Idx = size_t(Q * double(Sorted.size()) + 0.999999);
  return Sorted[std::min(Idx, Sorted.size()) - 1];
}

/// One measured replay: streams the workload into the backend — paced by
/// a closed-loop window or an open-loop arrival schedule — while a
/// collector thread times the in-order response stream. Latency is
/// submit-to-delivery (closed loop) or scheduled-arrival-to-delivery
/// (open loop, which charges queueing delay to the service instead of
/// silently omitting it).
RunResult runOnce(Backend &B, const ServiceLogConfig &Workload,
                  double RateRps, uint64_t Window, std::FILE *Capture,
                  const RetryConfig &Retry = RetryConfig()) {
  RunResult R;
  R.AnalyzeRequests = Workload.Requests;
  if (Retry.Enabled)
    R.RetryHist.assign(size_t(Retry.Max) + 1, 0);
  ServiceLogStream Stream(Workload);

  // One slot per request line; batching folds requests into fewer
  // lines, so Requests + trailers is an upper bound and the vector
  // never reallocates under the collector's feet. Retry mode can
  // resubmit every line Max times, so it scales the bound (and keeps
  // the submitted text around for resubmission).
  size_t MaxLines = (size_t(Workload.Requests) + 8) *
                    (Retry.Enabled ? size_t(Retry.Max) + 1 : 1);
  std::vector<uint64_t> StartNs(MaxLines, 0);
  std::vector<uint32_t> AttemptOf(Retry.Enabled ? MaxLines : 1, 0);
  std::vector<std::string> LineOf(Retry.Enabled ? MaxLines : 0);

  // Busy lines awaiting resubmission. The collector pushes (before it
  // counts the response as processed, so the submitter can never see
  // "all answered" while a retry is still pending); the submitter pops
  // entries once their backoff deadline passes.
  struct PendingRetry {
    std::string Line;
    uint32_t Attempt;
    uint64_t DueNs;
  };
  std::mutex RetryMutex;
  std::deque<PendingRetry> RetryQueue;
  std::atomic<uint64_t> SubmittedCount{0};
  std::atomic<uint64_t> ProcessedCount{0};

  // Jitter stream (xorshift64), advanced only on the collector thread:
  // for a fixed seed the k-th retry delay in the run is always the
  // same number, so chaos runs are replayable.
  uint64_t JitterState =
      Retry.JitterSeed ? Retry.JitterSeed : 0x9E3779B97F4A7C15ull;
  auto NextJitter = [&JitterState]() {
    JitterState ^= JitterState << 13;
    JitterState ^= JitterState >> 7;
    JitterState ^= JitterState << 17;
    return JitterState;
  };

  std::mutex WindowMutex;
  std::condition_variable WindowFree;
  uint64_t Outstanding = 0;

  std::vector<double> LatMs;
  LatMs.reserve(StartNs.size());
  Clock::time_point T0 = Clock::now();

  std::thread Collector([&] {
    std::string Line;
    uint64_t Seq = 0;
    while (B.pop(Line)) {
      uint64_t Now = nsSince(T0);
      LatMs.push_back(double(Now - StartNs[Seq]) / 1e6);
      bool Busy = Line.find("\"status\":\"busy\"") != std::string::npos;
      if (Busy)
        ++R.Busy;
      if (Retry.Enabled) {
        uint32_t Attempt = AttemptOf[Seq];
        if (Busy && Attempt < Retry.Max) {
          // Capped exponential backoff with jitter in the upper half:
          // delay in [cap/2, cap] of min(CapMs, BaseMs << Attempt).
          uint64_t Shift = std::min<uint64_t>(Attempt, 20);
          uint64_t Cap = std::min(Retry.CapMs,
                                  std::max<uint64_t>(1, Retry.BaseMs << Shift));
          uint64_t DelayMs = Cap / 2 + NextJitter() % (Cap / 2 + 1);
          {
            std::lock_guard<std::mutex> Lock(RetryMutex);
            RetryQueue.push_back(
                {LineOf[Seq], Attempt + 1, Now + DelayMs * 1000000});
          }
          ++R.Retries;
        } else if (Busy) {
          ++R.RetryExhausted;
          ++R.RetryHist[Attempt];
        } else {
          ++R.RetryHist[Attempt];
        }
      }
      if (Capture)
        std::fwrite(Line.data(), 1, Line.size(), Capture);
      ++Seq;
      {
        std::lock_guard<std::mutex> Lock(WindowMutex);
        if (Outstanding)
          --Outstanding;
      }
      WindowFree.notify_one();
      ProcessedCount.fetch_add(1);
    }
    R.ResponseLines = Seq;
  });

  std::string Line;
  uint64_t Seq = 0;
  uint64_t WorkIdx = 0; // workload lines only; drives open-loop pacing
  auto submitOne = [&](const std::string &L, uint32_t Attempt) {
    if (RateRps > 0 && Attempt == 0) {
      uint64_t Scheduled = uint64_t(double(WorkIdx) * 1e9 / RateRps);
      while (nsSince(T0) < Scheduled)
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<uint64_t>((Scheduled - nsSince(T0)) / 1000 + 1, 1000)));
      StartNs[Seq] = Scheduled;
    } else if (RateRps > 0) {
      // Open-loop retry: the backoff already delayed it; charge from
      // the resubmission instant, outside the arrival schedule.
      StartNs[Seq] = nsSince(T0);
    } else {
      std::unique_lock<std::mutex> Lock(WindowMutex);
      WindowFree.wait(Lock, [&] { return Outstanding < Window; });
      ++Outstanding;
      Lock.unlock();
      StartNs[Seq] = nsSince(T0);
    }
    if (Retry.Enabled) {
      AttemptOf[Seq] = Attempt;
      LineOf[Seq] = L;
    }
    B.submit(L);
    ++Seq;
    SubmittedCount.fetch_add(1);
  };

  bool WorkloadDone = false;
  for (;;) {
    if (Retry.Enabled) {
      PendingRetry Due;
      bool HaveDue = false;
      {
        std::lock_guard<std::mutex> Lock(RetryMutex);
        if (!RetryQueue.empty() && RetryQueue.front().DueNs <= nsSince(T0)) {
          Due = std::move(RetryQueue.front());
          RetryQueue.pop_front();
          HaveDue = true;
        }
      }
      if (HaveDue) {
        submitOne(Due.Line, Due.Attempt);
        continue;
      }
    }
    if (!WorkloadDone) {
      if (Stream.next(Line)) {
        submitOne(Line, 0);
        ++WorkIdx;
        continue;
      }
      WorkloadDone = true;
    }
    if (!Retry.Enabled)
      break;
    // Workload exhausted: wait until every submission is answered and
    // no retry is pending (not-yet-due entries still count as pending).
    bool QueueEmpty;
    {
      std::lock_guard<std::mutex> Lock(RetryMutex);
      QueueEmpty = RetryQueue.empty();
    }
    if (QueueEmpty && ProcessedCount.load() == SubmittedCount.load())
      break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  R.SubmittedLines = Seq;
  B.endSubmit();
  Collector.join();

  R.WallMs = double(nsSince(T0)) / 1e6;
  R.PeakBuffered = B.peakBuffered();
  std::sort(LatMs.begin(), LatMs.end());
  R.P50Ms = percentile(LatMs, 0.50);
  R.P99Ms = percentile(LatMs, 0.99);
  R.P999Ms = percentile(LatMs, 0.999);
  R.AchievedRps =
      R.WallMs > 0 ? double(R.AnalyzeRequests) / (R.WallMs / 1e3) : 0;
  return R;
}

JsonValue runJson(const RunResult &R) {
  JsonValue Obj = JsonValue::object();
  Obj.set("analyze_requests", R.AnalyzeRequests);
  Obj.set("submitted_lines", R.SubmittedLines);
  Obj.set("response_lines", R.ResponseLines);
  Obj.set("busy", R.Busy);
  if (!R.RetryHist.empty()) {
    JsonValue Retry = JsonValue::object();
    Retry.set("scheduled", R.Retries);
    Retry.set("exhausted", R.RetryExhausted);
    JsonValue Hist = JsonValue::array();
    for (uint64_t Count : R.RetryHist)
      Hist.push(Count);
    Retry.set("histogram", std::move(Hist));
    Obj.set("retry", std::move(Retry));
  }
  Obj.set("wall_ms", R.WallMs);
  Obj.set("requests_per_sec", R.AchievedRps);
  Obj.set("peak_result_buffer", R.PeakBuffered);
  JsonValue Lat = JsonValue::object();
  Lat.set("p50_ms", R.P50Ms);
  Lat.set("p99_ms", R.P99Ms);
  Lat.set("p999_ms", R.P999Ms);
  Obj.set("latency", std::move(Lat));
  return Obj;
}

void printRun(const char *Name, const RunResult &R) {
  std::printf("  %-12s %9llu req  %10.1f req/s  p50 %8.3f ms  "
              "p99 %8.3f ms  p999 %8.3f ms  busy %llu\n",
              Name, (unsigned long long)R.AnalyzeRequests, R.AchievedRps,
              R.P50Ms, R.P99Ms, R.P999Ms, (unsigned long long)R.Busy);
  if (!R.RetryHist.empty()) {
    std::printf("  retry: scheduled %llu, exhausted %llu, histogram [",
                (unsigned long long)R.Retries,
                (unsigned long long)R.RetryExhausted);
    for (size_t I = 0; I != R.RetryHist.size(); ++I)
      std::printf("%s%llu", I ? " " : "",
                  (unsigned long long)R.RetryHist[I]);
    std::printf("]\n");
  }
}

} // namespace

int main(int argc, char **argv) {
  ServiceDispatcher::Config Service;
  Service.Jobs = 0;
  std::string CacheDir;
  bool DurableStore = false;
  ServiceLogConfig Workload;
  Workload.Session = "load";
  Workload.SessionCount = 8;
  Workload.Requests = 1000;
  Workload.RepeatChance = 70;
  Workload.BatchChance = 10;
  Workload.EndWithStats = false;
  Workload.EndWithShutdown = false;
  uint64_t Concurrency = 32;
  double RateRps = 0;
  unsigned SaturationSteps = 0;
  bool Overload = false;
  RetryConfig Retry;
  std::string CapturePath, ConnectPath;
  std::string FaultPlan;
  bool HaveFaultPlan = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help") {
      printUsage();
      return 0;
    }
    if (Arg.rfind("--requests=", 0) == 0) {
      Workload.Requests = parseUintFlag<unsigned>(Arg, 11);
      continue;
    }
    if (Arg.rfind("--seed=", 0) == 0) {
      Workload.Seed = parseUintFlag(Arg, 7);
      continue;
    }
    if (Arg.rfind("--sessions=", 0) == 0) {
      Workload.SessionCount = parseUintFlag<unsigned>(Arg, 11);
      if (Workload.SessionCount == 0) {
        std::fprintf(stderr, "error: --sessions must be at least 1\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--repeat-chance=", 0) == 0) {
      Workload.RepeatChance = parseUintFlag<unsigned>(Arg, 16);
      continue;
    }
    if (Arg.rfind("--batch-chance=", 0) == 0) {
      Workload.BatchChance = parseUintFlag<unsigned>(Arg, 15);
      continue;
    }
    if (Arg.rfind("--programs=", 0) == 0) {
      std::string List = Arg.substr(11);
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        std::string Name = List.substr(Pos, Comma - Pos);
        if (!Name.empty()) {
          if (!findSuiteProgram(Name)) {
            std::fprintf(stderr, "error: unknown suite program '%s'\n",
                         Name.c_str());
            return 1;
          }
          Workload.Suites.push_back(Name);
        }
        Pos = Comma + 1;
      }
      if (Workload.Suites.empty()) {
        std::fprintf(stderr, "error: --programs needs at least one name\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--jobs=", 0) == 0) {
      Service.Jobs = parseUintFlag<unsigned>(Arg, 7);
      continue;
    }
    if (Arg.rfind("--queue-limit=", 0) == 0) {
      Service.QueueLimit = parseUintFlag<size_t>(Arg, 14);
      continue;
    }
    if (Arg.rfind("--result-buffer=", 0) == 0) {
      Service.ResultBuffer = parseUintFlag<size_t>(Arg, 16);
      continue;
    }
    if (Arg.rfind("--max-sessions=", 0) == 0) {
      Service.Engine.MaxSessions = parseUintFlag<unsigned>(Arg, 15);
      if (Service.Engine.MaxSessions == 0) {
        std::fprintf(stderr, "error: --max-sessions must be at least 1\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--cache-dir=", 0) == 0) {
      CacheDir = Arg.substr(12);
      if (CacheDir.empty()) {
        std::fprintf(stderr, "error: --cache-dir needs a directory name\n");
        return 1;
      }
      continue;
    }
    if (Arg == "--scrub-timings") {
      Service.Engine.ScrubTimings = true;
      continue;
    }
    if (Arg.rfind("--concurrency=", 0) == 0) {
      Concurrency = parseUintFlag(Arg, 14);
      if (Concurrency == 0) {
        std::fprintf(stderr, "error: --concurrency must be at least 1\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--rate=", 0) == 0) {
      RateRps = double(parseUintFlag(Arg, 7));
      continue;
    }
    if (Arg.rfind("--saturation=", 0) == 0) {
      SaturationSteps = parseUintFlag<unsigned>(Arg, 13);
      continue;
    }
    if (Arg == "--overload") {
      Overload = true;
      continue;
    }
    if (Arg.rfind("--capture=", 0) == 0) {
      CapturePath = Arg.substr(10);
      continue;
    }
    if (Arg == "--retry-busy") {
      Retry.Enabled = true;
      continue;
    }
    if (Arg.rfind("--retry-max=", 0) == 0) {
      Retry.Max = parseUintFlag(Arg, 12);
      if (Retry.Max > 32) {
        std::fprintf(stderr, "error: --retry-max must be at most 32\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--retry-base-ms=", 0) == 0) {
      Retry.BaseMs = parseUintFlag(Arg, 16);
      continue;
    }
    if (Arg.rfind("--retry-cap-ms=", 0) == 0) {
      Retry.CapMs = parseUintFlag(Arg, 15);
      if (Retry.CapMs == 0) {
        std::fprintf(stderr, "error: --retry-cap-ms must be at least 1\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--retry-jitter-seed=", 0) == 0) {
      Retry.JitterSeed = parseUintFlag(Arg, 20);
      continue;
    }
    if (Arg.rfind("--fault-plan=", 0) == 0) {
      FaultPlan = Arg.substr(13);
      HaveFaultPlan = true;
      continue;
    }
    if (Arg == "--durable-store") {
      DurableStore = true;
      continue;
    }
    if (Arg.rfind("--connect=", 0) == 0) {
      ConnectPath = Arg.substr(10);
      continue;
    }
    std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
    printUsage();
    return 1;
  }

  // Fault plan: the flag wins over IPCP_FAULT_PLAN (tests exercising
  // the env path run without the flag). Only meaningful in-process —
  // an external daemon owns its own plan.
  {
    std::string Error;
    bool PlanOk = HaveFaultPlan ? faultInjector().installPlan(FaultPlan, &Error)
                                : installFaultPlanFromEnv(&Error);
    if (!PlanOk) {
      std::fprintf(stderr, "error: malformed value in fault plan: %s\n",
                   Error.c_str());
      return 1;
    }
  }

  std::FILE *Capture = nullptr;
  if (!CapturePath.empty()) {
    Capture = std::fopen(CapturePath.c_str(), "wb");
    if (!Capture) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   CapturePath.c_str());
      return 1;
    }
  }

  // Build the backend: a connected socket, or an in-process service.
  std::unique_ptr<ServiceDispatcher> Svc;
  int SockFd = -1;
  if (!ConnectPath.empty()) {
    std::string Error;
    SockFd = connectUnixSocket(ConnectPath, &Error);
    if (SockFd < 0) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
  } else {
    Service.Engine.SuiteResolver = [](const std::string &Name,
                                      std::string &SourceOut) {
      const SuiteProgram *Prog = findSuiteProgram(Name);
      if (!Prog)
        return false;
      SourceOut = Prog->Source;
      return true;
    };
    if (!CacheDir.empty()) {
      ContentStore::Options StoreOpts;
      StoreOpts.Durable = DurableStore;
      Service.Engine.Store =
          std::make_shared<ContentStore>(CacheDir, StoreOpts);
    }
    Svc = std::make_unique<ServiceDispatcher>(Service);
  }
  auto makeBackend = [&]() -> std::unique_ptr<Backend> {
    if (SockFd >= 0)
      return std::make_unique<SocketBackend>(SockFd);
    return std::make_unique<InProcessBackend>(*Svc);
  };

  std::printf("ipcp_loadgen: %u requests, %u sessions, queue-limit=%zu%s\n",
              Workload.Requests, Workload.SessionCount, Service.QueueLimit,
              SockFd >= 0 ? " (external daemon)" : "");

  JsonValue Doc = JsonValue::object();
  JsonValue ConfJson = JsonValue::object();
  ConfJson.set("requests", uint64_t(Workload.Requests));
  ConfJson.set("sessions", uint64_t(Workload.SessionCount));
  ConfJson.set("seed", Workload.Seed);
  ConfJson.set("repeat_chance", uint64_t(Workload.RepeatChance));
  ConfJson.set("batch_chance", uint64_t(Workload.BatchChance));
  ConfJson.set("queue_limit", uint64_t(Service.QueueLimit));
  ConfJson.set("result_buffer", uint64_t(Service.ResultBuffer));
  ConfJson.set("concurrency", Concurrency);
  ConfJson.set("rate_rps", RateRps);
  ConfJson.set("external_daemon", SockFd >= 0);
  if (Retry.Enabled) {
    JsonValue RetryJson = JsonValue::object();
    RetryJson.set("max", Retry.Max);
    RetryJson.set("base_ms", Retry.BaseMs);
    RetryJson.set("cap_ms", Retry.CapMs);
    RetryJson.set("jitter_seed", Retry.JitterSeed);
    ConfJson.set("retry_busy", std::move(RetryJson));
  }
  if (faultInjector().active())
    ConfJson.set("fault_plan", faultInjector().planSpec());
  Doc.set("config", std::move(ConfJson));

  bool Ok = true;

  if (Overload) {
    // Flood: no pacing window, so arrivals outrun the admission gate
    // and the service must answer every line — mostly with `busy` —
    // while the reorder buffer stays within its bound.
    std::unique_ptr<Backend> B = makeBackend();
    RunResult R =
        runOnce(*B, Workload, 0, uint64_t(1) << 40, Capture, Retry);
    printRun("overload", R);
    uint64_t BufferBound = Service.ResultBuffer ? Service.ResultBuffer + 1 : 0;
    bool AllAnswered =
        R.ResponseLines > 0 && R.ResponseLines == R.SubmittedLines;
    bool SawBusy = R.Busy > 0;
    bool Bounded = BufferBound == 0 || R.PeakBuffered <= BufferBound;
    if (!AllAnswered)
      std::fprintf(stderr,
                   "overload: FAILED - %llu of %llu lines answered\n",
                   (unsigned long long)R.ResponseLines,
                   (unsigned long long)R.SubmittedLines);
    if (!SawBusy)
      std::fprintf(stderr,
                   "overload: FAILED - flood produced no busy responses "
                   "(queue-limit too high?)\n");
    if (!Bounded)
      std::fprintf(stderr,
                   "overload: FAILED - reorder buffer peak %llu exceeds "
                   "bound %llu\n",
                   (unsigned long long)R.PeakBuffered,
                   (unsigned long long)BufferBound);
    Ok = AllAnswered && SawBusy && Bounded;
    std::printf("  overload invariants: %s (busy %llu, peak buffer %llu)\n",
                Ok ? "ok" : "FAILED", (unsigned long long)R.Busy,
                (unsigned long long)R.PeakBuffered);
    JsonValue OJson = runJson(R);
    OJson.set("bounded", Bounded);
    OJson.set("saw_busy", SawBusy);
    Doc.set("overload", std::move(OJson));
  } else if (SaturationSteps > 0) {
    // Calibrate closed-loop, then sweep open-loop arrival rates around
    // the measured maximum; the curve's knee is the capacity number
    // docs/SCALING.md plans against.
    std::unique_ptr<Backend> Cal = makeBackend();
    RunResult Max = runOnce(*Cal, Workload, 0, Concurrency, nullptr);
    printRun("calibrate", Max);
    Doc.set("calibration", runJson(Max));
    JsonValue Curve = JsonValue::array();
    for (unsigned I = 0; I != SaturationSteps; ++I) {
      double Fraction =
          SaturationSteps == 1
              ? 1.0
              : 0.5 + 0.75 * double(I) / double(SaturationSteps - 1);
      double Target = std::max(1.0, Max.AchievedRps * Fraction);
      std::unique_ptr<Backend> B = makeBackend();
      RunResult R = runOnce(*B, Workload, Target, Concurrency, nullptr);
      char Name[32];
      std::snprintf(Name, sizeof Name, "%.2fx", Fraction);
      printRun(Name, R);
      JsonValue Step = runJson(R);
      Step.set("fraction", Fraction);
      Step.set("target_rps", Target);
      Curve.push(std::move(Step));
    }
    Doc.set("saturation", std::move(Curve));
  } else {
    std::unique_ptr<Backend> B = makeBackend();
    RunResult R = runOnce(*B, Workload, RateRps, Concurrency, Capture, Retry);
    printRun(RateRps > 0 ? "open-loop" : "closed-loop", R);
    // Every submitted line must come back — under fault injection the
    // answer may be an error envelope, but silence is a failure.
    Ok = R.ResponseLines > 0 && R.ResponseLines == R.SubmittedLines;
    if (!Ok)
      std::fprintf(stderr, "load: FAILED - %llu of %llu lines answered\n",
                   (unsigned long long)R.ResponseLines,
                   (unsigned long long)R.SubmittedLines);
    Doc.set("load", runJson(R));
  }

  if (Capture)
    std::fclose(Capture);
  if (Svc) {
    // Persist dirty sessions so a later run can warm-start from the
    // store.
    Svc->shutdownFlush();
  }
  if (SockFd >= 0)
    closeFd(SockFd);

  // Fault totals after shutdownFlush so eviction-path store writes are
  // in the count; CI greps the "faults injected" line.
  if (faultInjector().active()) {
    FaultInjector::Totals T = faultInjector().totals();
    std::printf("  faults injected: %llu (of %llu checks)\n",
                (unsigned long long)T.Injected, (unsigned long long)T.Checked);
    Doc.set("faults", faultInjector().statsJson());
  }

  Doc.set("ok", Ok);
  benchReport("service", std::move(Doc));
  return Ok ? 0 : 1;
}
