// Development check: validate every suite program end-to-end and print
// the three tables. Shares the driver's observability surface:
//
//   suitecheck [--jobs=N] [--stats] [--trace[=FILE]] [--report-json=FILE]
//             [--cache-dir=DIR] [--scrub-timings]
//             [--engine=jump|contexts]
//
// Programs (and table rows) are analyzed concurrently across N worker
// threads (default: hardware concurrency; --jobs=1 forces sequential).
// Every output — diagnostics, tables, counters, the JSON report — is
// collected in suite order, so the report is byte-identical at any job
// count apart from timing counters.
//
// The JSON report carries one "ipcp-report-v1" result per program plus
// the three paper tables, so suite-wide trajectories can be produced
// mechanically. With --report-json=-, stdout carries the report alone;
// the diagnostics, tables and counters go to stderr.
#include "core/Report.h"
#include "core/SuiteRunner.h"
#include "support/ContentStore.h"
#include "support/FileIO.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/SuiteReport.h"
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
using namespace ipcp;

static void usage(std::FILE *Out) {
  std::fprintf(Out, "usage: suitecheck [--jobs=N] [--stats] "
                       "[--trace[=FILE]] [--report-json=FILE]\n"
                       "                  [--cache-dir=DIR] [--scrub-timings]\n"
                       "  --jobs=N       analyze programs on N threads "
                       "(default: hardware concurrency)\n"
                       "  --cache-dir=DIR  summary store shared by the "
                       "programs (docs/INCREMENTAL.md)\n"
                       "  --scrub-timings  zero wall-clock fields in the "
                       "JSON report\n"
                       "per-program analysis options (contexts runs "
                       "cache-less):\n%s",
               optionHelp(OnSuitecheck, OnOptions).c_str());
}

int main(int argc, char **argv) {
  bool ShowStats = false, TraceOn = false;
  bool ScrubTimings = false;
  std::string TraceFile, ReportFile, CacheDir;
  IPCPOptions Opts; // only Engine is read
  unsigned Jobs = ThreadPool::defaultConcurrency();
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (takeOptionFlag(Arg, OnSuitecheck, Opts))
      continue;
    if (Arg == "--help") {
      usage(stdout);
      return 0;
    } else if (Arg == "--stats") {
      ShowStats = true;
    } else if (Arg.rfind("--cache-dir=", 0) == 0 && Arg.size() > 12) {
      CacheDir = Arg.substr(12);
    } else if (Arg == "--scrub-timings") {
      ScrubTimings = true;
    } else if (Arg == "--trace") {
      TraceOn = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TraceOn = true;
      TraceFile = Arg.substr(8);
    } else if (Arg.rfind("--report-json=", 0) == 0 &&
               Arg.size() > 14) {
      ReportFile = Arg.substr(14);
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      Jobs = parseUintFlag<unsigned>(Arg, 7);
      if (Jobs == 0) {
        std::fprintf(stderr, "error: --jobs expects a positive integer\n");
        return 1;
      }
    } else {
      usage(stderr);
      return 1;
    }
  }

  Trace TraceData;
  if (TraceOn)
    Trace::setActive(&TraceData);

  // One summary store for all twelve programs, opened without the
  // recovery scrub: each get verifies the object it reads.
  std::optional<ContentStore> Store;
  if (!CacheDir.empty()) {
    ContentStore::Options StoreOpts;
    StoreOpts.ScrubOnOpen = false;
    Store.emplace(CacheDir, StoreOpts);
  }
  SuiteRunner Runner(Jobs);
  SuiteStudyResult Study = runSuiteStudy(
      Runner, !ReportFile.empty(), Store ? &*Store : nullptr, Opts.Engine);
  std::FILE *Out = ReportFile == "-" ? stderr : stdout;
  for (const std::string &Message : Study.Messages)
    std::fprintf(Out, "%s", Message.c_str());

  std::fprintf(Out, "%s\n", formatTable1(Study.T1).c_str());
  std::fprintf(Out, "%s\n", formatTable2(Study.T2).c_str());
  std::fprintf(Out, "%s\n", formatTable3(Study.T3).c_str());
  std::fprintf(Out, "failures: %d\n", Study.Failures);

  if (ShowStats)
    std::fprintf(Out, "statistics (all programs):\n%s",
                 formatStatsTable(Study.Counters).c_str());

  if (TraceOn) {
    Trace::setActive(nullptr);
    std::string Text = TraceData.str();
    if (TraceFile.empty()) {
      std::fprintf(stderr, "%s", Text.c_str());
    } else {
      std::string Error;
      if (!writeStringToFile(TraceFile, Text, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
    }
  }

  if (!ReportFile.empty()) {
    JsonValue Doc = buildSuiteReport(Study, TraceOn ? &TraceData : nullptr);
    if (ScrubTimings)
      scrubReportTimings(Doc);
    std::string Error;
    if (!writeJsonFile(ReportFile, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
  }
  return Study.Failures != 0;
}
