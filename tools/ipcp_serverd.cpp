//===- tools/ipcp_serverd.cpp - batched analysis daemon -------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Analysis as a service: a long-lived daemon that keeps summary caches
// resident, analyzes on one pool of worker threads, and answers
// newline-delimited JSON requests ("ipcp-service-v1", documented field
// by field in docs/SERVICE.md; the concurrency design in
// docs/SCALING.md):
//
//   ipcp_serverd [options]                 serve stdin -> stdout
//   ipcp_serverd --socket=PATH [options]   serve a unix domain socket
//
//   --jobs=N           worker threads (default: hardware concurrency)
//   --queue-limit=N    max in-flight analyses before `busy` (default 256;
//                      0 rejects everything — the backpressure tests)
//   --result-buffer=N  max buffered out-of-order responses before
//                      workers block on the emitter (default 1024;
//                      0 = unbounded)
//   --cache-dir=DIR    content-addressed write-behind tier for session
//                      caches
//   --max-sessions=N   resident session caches before LRU eviction
//                      (default 1024)
//   --scrub-timings    zero wall-clock fields in every response (and the
//                      timing-dependent queue gauges in stats)
//   the resource-budget flags of core/Options.h's table
//                      default per-request budgets; a request's "limits"
//                      can tighten but never exceed them
//   --durable-store    fsync-before-rename store writes (docs/ROBUSTNESS.md)
//   --scrub-store=DIR  recovery-scrub a store, print the JSON report, exit
//   --fault-plan=SPEC  deterministic fault injection (or IPCP_FAULT_PLAN)
//   --emit-sample-log=N [--sample-seed=S]
//                      print N generated analyze requests (plus stats and
//                      shutdown) to stdout and exit — replay fodder for
//                      the CI smoke job
//   --help
//
// Request lines are answered in request order (responses carry "seq");
// analyses run concurrently on the pool, and a per-session turnstile
// replays the serial warm/cold order exactly, so the byte stream a
// concurrent daemon emits is identical to a --jobs=1 run. `stats`,
// `flush-cache`, and `shutdown` are barriers: they wait for every
// in-flight analysis before executing.
//
// Exit codes: 0 clean (EOF or shutdown request), 1 usage error,
// 2 socket setup or stdin read failure, 4 a response could not be
// written.
//
//===----------------------------------------------------------------------===//

#include "core/ServiceDispatcher.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/LineIO.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

using namespace ipcp;

namespace {

void printUsage() {
  std::printf(
      "usage: ipcp_serverd [options]              (serve stdin -> stdout)\n"
      "       ipcp_serverd --socket=PATH [options]\n"
      "requests: one JSON object per line; ops analyze, optimize,\n"
      "          analyze-batch, stats, flush-cache, shutdown\n"
      "          (see docs/SERVICE.md)\n"
      "  --jobs=N           worker threads (default: hardware\n"
      "                     concurrency; see docs/SCALING.md)\n"
      "  --queue-limit=N    max in-flight analyses before `busy`\n"
      "                     (default 256; 0 rejects every analyze)\n"
      "  --result-buffer=N  max buffered out-of-order responses before\n"
      "                     workers block (default 1024; 0 = unbounded)\n"
      "  --cache-dir=DIR    content-addressed write-behind tier for\n"
      "                     session caches\n"
      "  --max-sessions=N   resident session caches before LRU\n"
      "                     eviction (default 1024)\n"
      "  --scrub-timings    zero wall-clock fields in every response\n"
      "  --durable-store    fsync store writes before rename (crash-safe\n"
      "                     across power loss, not just process death)\n"
      "  --scrub-store=DIR  run the recovery scrub over a store and print\n"
      "                     the report as JSON, then exit (0 ok, 2 when a\n"
      "                     repair failed; see docs/ROBUSTNESS.md)\n"
      "  --fault-plan=SPEC  install a deterministic fault-injection plan\n"
      "                     (also via IPCP_FAULT_PLAN; the flag wins;\n"
      "                     grammar in docs/ROBUSTNESS.md)\n"
      "  --emit-sample-log=N  print N generated requests and exit\n"
      "  --sample-seed=S      seed for --emit-sample-log (default 1)\n"
      "  --help\n"
      "default per-request budgets (0 = unlimited; a request's \"limits\"\n"
      "object can tighten but never exceed them):\n%s"
      "exit codes: 0 clean shutdown or EOF, 1 usage, 2 socket/stdin\n"
      "            failure, 4 response write failed\n",
      optionHelp(OnServerd, OnLimits).c_str());
}

/// Serves one request stream until EOF or a shutdown request: a reader
/// loop feeding the dispatcher, and an emitter thread writing the
/// in-order response stream. Returns true when the client asked for
/// shutdown (the daemon should exit its accept loop too, not just this
/// connection).
bool serveStream(int InFd, int OutFd, ServiceDispatcher &Service,
                 bool *ReadFailed, bool &WriteFailed,
                 std::string &WriteError) {
  std::unique_ptr<ServiceDispatcher::Stream> St = Service.openStream();
  std::atomic<bool> WriteFailedFlag{false};
  std::thread Emitter([&] {
    std::string Line;
    while (St->popResponse(Line)) {
      std::string Error;
      if (!WriteFailedFlag.load() && !writeAllToFd(OutFd, Line, &Error)) {
        WriteError = Error;
        WriteFailedFlag.store(true); // keep draining so producers finish
      }
    }
  });

  LineReader Reader(InFd);
  bool ShutdownRequested = false;
  std::string Line;
  while (!ShutdownRequested && Reader.readLine(Line))
    ShutdownRequested = Service.submitLine(*St, Line);

  Service.finishStream(*St);
  Emitter.join();
  if (ReadFailed)
    *ReadFailed = Reader.readFailed();
  WriteFailed = WriteFailedFlag.load();
  return ShutdownRequested;
}

} // namespace

int main(int argc, char **argv) {
  // A client that disappears mid-response must surface as a write error
  // (exit code 4), not kill the daemon with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  ServiceDispatcher::Config Conf;
  Conf.Jobs = 0; // hardware concurrency
  IPCPOptions Budgets; // only Limits is read: the per-request defaults
  std::string SocketPath;
  std::string CacheDir;
  bool DurableStore = false;
  std::string ScrubStoreDir;
  std::string FaultPlan;
  bool HaveFaultPlan = false;
  bool EmitSample = false;
  ServiceLogConfig SampleConf;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help") {
      printUsage();
      return 0;
    }
    if (takeOptionFlag(Arg, OnServerd, Budgets))
      continue;
    if (Arg == "--socket=") {
      std::fprintf(stderr, "error: --socket needs a path\n");
      return 1;
    }
    if (Arg.rfind("--socket=", 0) == 0) {
      SocketPath = Arg.substr(9);
      continue;
    }
    if (Arg.rfind("--jobs=", 0) == 0) {
      Conf.Jobs = parseUintFlag<unsigned>(Arg, 7);
      if (Conf.Jobs == 0) {
        std::fprintf(stderr, "error: --jobs must be at least 1\n");
        return 1;
      }
      continue;
    }
    if (Arg.rfind("--queue-limit=", 0) == 0) {
      Conf.QueueLimit = parseUintFlag<size_t>(Arg, 14);
      continue;
    }
    if (Arg.rfind("--result-buffer=", 0) == 0) {
      Conf.ResultBuffer = parseUintFlag<size_t>(Arg, 16);
      continue;
    }
    if (Arg == "--cache-dir=") {
      std::fprintf(stderr, "error: --cache-dir needs a directory name\n");
      return 1;
    }
    if (Arg.rfind("--cache-dir=", 0) == 0) {
      CacheDir = Arg.substr(12);
      continue;
    }
    if (Arg.rfind("--max-sessions=", 0) == 0) {
      Conf.Engine.MaxSessions = parseUintFlag<unsigned>(Arg, 15);
      if (Conf.Engine.MaxSessions == 0) {
        std::fprintf(stderr, "error: --max-sessions must be at least 1\n");
        return 1;
      }
      continue;
    }
    if (Arg == "--scrub-timings") {
      Conf.Engine.ScrubTimings = true;
      continue;
    }
    if (Arg == "--durable-store") {
      DurableStore = true;
      continue;
    }
    if (Arg == "--scrub-store=") {
      std::fprintf(stderr, "error: --scrub-store needs a directory name\n");
      return 1;
    }
    if (Arg.rfind("--scrub-store=", 0) == 0) {
      ScrubStoreDir = Arg.substr(14);
      continue;
    }
    if (Arg.rfind("--fault-plan=", 0) == 0) {
      FaultPlan = Arg.substr(13);
      HaveFaultPlan = true;
      continue;
    }
    if (Arg.rfind("--emit-sample-log=", 0) == 0) {
      EmitSample = true;
      SampleConf.Requests = parseUintFlag<unsigned>(Arg, 18);
      continue;
    }
    if (Arg.rfind("--sample-seed=", 0) == 0) {
      SampleConf.Seed = parseUintFlag(Arg, 14);
      continue;
    }
    std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
    printUsage();
    return 1;
  }

  if (EmitSample) {
    for (const std::string &Line : generateServiceLog(SampleConf))
      std::printf("%s\n", Line.c_str());
    return 0;
  }

  if (!ScrubStoreDir.empty()) {
    // Standalone recovery mode: scrub the store a crashed daemon left
    // behind and report what was repaired. Scrubbing is also implicit
    // whenever a store opens; this mode exists for operators and the
    // chaos CI job to verify consistency explicitly.
    ContentStore::Options StoreOpts;
    StoreOpts.ScrubOnOpen = false; // scrub() below, with a report
    ContentStore Store(ScrubStoreDir, StoreOpts);
    ContentStore::ScrubReport R = Store.scrub();
    JsonValue Doc = JsonValue::object();
    Doc.set("schema", "ipcp-scrub-v1");
    Doc.set("root", ScrubStoreDir);
    Doc.set("tmp_swept", R.TmpSwept);
    Doc.set("objects_checked", R.ObjectsChecked);
    Doc.set("quarantined", R.Quarantined);
    Doc.set("refs_checked", R.RefsChecked);
    Doc.set("dangling_refs_dropped", R.DanglingDropped);
    Doc.set("ok", R.Ok);
    std::printf("%s\n", Doc.dump(2).c_str());
    return R.Ok ? 0 : 2;
  }

  std::string PlanError;
  bool PlanOk = HaveFaultPlan ? faultInjector().installPlan(FaultPlan,
                                                            &PlanError)
                              : installFaultPlanFromEnv(&PlanError);
  if (!PlanOk) {
    std::fprintf(stderr, "error: malformed value in fault plan: %s\n",
                 PlanError.c_str());
    return 1;
  }

  Conf.Engine.DefaultLimits = Budgets.Limits;
  Conf.Engine.SuiteResolver = [](const std::string &Name,
                                 std::string &SourceOut) {
    const SuiteProgram *Prog = findSuiteProgram(Name);
    if (!Prog)
      return false;
    SourceOut = Prog->Source;
    return true;
  };
  // The write-behind store; opening it runs the recovery scrub over what
  // a crashed daemon left behind.
  if (!CacheDir.empty()) {
    ContentStore::Options StoreOpts;
    StoreOpts.Durable = DurableStore;
    Conf.Engine.Store = std::make_shared<ContentStore>(CacheDir, StoreOpts);
  }

  ServiceDispatcher Service(std::move(Conf));

  if (SocketPath.empty()) {
    bool ReadFailed = false, WriteFailed = false;
    std::string WriteError;
    serveStream(0, 1, Service, &ReadFailed, WriteFailed, WriteError);
    if (WriteFailed) {
      std::fprintf(stderr, "error: %s\n", WriteError.c_str());
      return 4;
    }
    if (ReadFailed) {
      std::fprintf(stderr, "error: reading stdin failed\n");
      return 2;
    }
    return 0;
  }

  std::string Error;
  int ListenFd = listenUnixSocket(SocketPath, &Error);
  if (ListenFd < 0) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  std::fprintf(stderr, "ipcp_serverd: listening on %s\n", SocketPath.c_str());
  bool Shutdown = false;
  int Exit = 0;
  while (!Shutdown) {
    int Conn = acceptUnixConnection(ListenFd, &Error);
    if (Conn < 0) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      Exit = 2;
      break;
    }
    // Connections are served one at a time (requests inside a
    // connection still analyze concurrently on the pool); the
    // response stream of a connection is self-contained, with seq
    // restarting at 0. Session caches persist across connections.
    bool WriteFailed = false;
    std::string WriteError;
    Shutdown = serveStream(Conn, Conn, Service, nullptr, WriteFailed,
                           WriteError);
    closeFd(Conn);
    if (WriteFailed)
      std::fprintf(stderr, "warning: client write failed: %s\n",
                   WriteError.c_str());
  }
  closeFd(ListenFd);
  std::remove(SocketPath.c_str());
  return Exit;
}
