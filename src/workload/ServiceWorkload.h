//===- workload/ServiceWorkload.h - Service request-log generator -*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generator of `ipcp-service-v1` request logs (docs/SERVICE.md)
/// for replaying against the analysis daemon: the CI service-smoke job
/// boots ipcp_serverd, feeds it a generated log, and compares a
/// concurrent replay with a serial one; ServiceTests replays the same
/// log and diffs every embedded report against a cold run of the same
/// request; ipcp_loadgen streams logs to measure throughput and
/// latency. Same config -> same lines, so a replay is a deterministic
/// workload, not a flaky one.
///
/// Logs are built from the benchmark suite (workload/Programs): every
/// request names a suite program, asks for a scrubbed-timings report,
/// and cycles through the forward jump-function classes so the replay
/// exercises distinct cache fingerprints, warm session reuse, and batch
/// fan-out.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_WORKLOAD_SERVICEWORKLOAD_H
#define IPCP_WORKLOAD_SERVICEWORKLOAD_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipcp {

/// Shape of one generated request log.
struct ServiceLogConfig {
  uint64_t Seed = 1;
  /// Analyze requests to emit (batch items each count as one).
  unsigned Requests = 24;
  /// Session key prefix; requests reusing a (session, program, options)
  /// triple run warm. Empty disables sessions (every request cold).
  std::string Session = "replay";
  /// Distinct sessions: 1 uses the prefix verbatim (and the exact
  /// historical request bytes); above 1 each analyze request draws a
  /// session "<prefix>-<i>", i in [0, SessionCount) — the knob that
  /// spreads a load run across many sessions and cache buckets.
  unsigned SessionCount = 1;
  /// Restrict generation to these suite program names (empty = the whole
  /// benchmark suite). Smaller programs make million-request replays
  /// cheap enough to be a latency benchmark rather than an endurance
  /// run.
  std::vector<std::string> Suites;
  /// Percent (0..100) of requests that repeat the previous program in
  /// the same session — the warm-hit knob.
  unsigned RepeatChance = 50;
  /// Percent (0..100) of requests folded into analyze-batch groups.
  unsigned BatchChance = 30;
  /// Append a "stats" barrier request at the end of the log.
  bool EndWithStats = true;
  /// Append a "shutdown" request after everything else, so a replay
  /// terminates the daemon cleanly.
  bool EndWithShutdown = true;
};

/// Streaming form of the generator: one request line per next() call,
/// without materializing the whole log — ipcp_loadgen replays millions
/// of requests through this at a few hundred bytes of state. Identical
/// config produces an identical line sequence, and for SessionCount == 1
/// with no Suites restriction the bytes match generateServiceLog's
/// historical output exactly.
class ServiceLogStream {
public:
  explicit ServiceLogStream(ServiceLogConfig Config);

  /// Produces the next request line (no trailing newline). Returns
  /// false when the log is exhausted (after the optional stats and
  /// shutdown trailer requests).
  bool next(std::string &LineOut);

private:
  uint64_t rngNext();
  unsigned rngBelow(unsigned N);
  bool rngPercent(unsigned Chance);
  JsonValue makeAnalyze(unsigned Id);

  ServiceLogConfig Config;
  std::vector<std::string> Programs;
  uint64_t RngState;
  unsigned Emitted = 0;
  unsigned ProgIndex = 0;
  unsigned KindIndex = 0;
  bool StatsEmitted = false;
  bool ShutdownEmitted = false;
};

/// Produces one request per line (no trailing newline per element).
/// Every analyze request carries "scrub_timings": true and an "id" of
/// the form "r<n>", so replays are byte-diffable. Materialized wrapper
/// around ServiceLogStream for small logs.
std::vector<std::string> generateServiceLog(const ServiceLogConfig &Config);

} // namespace ipcp

#endif // IPCP_WORKLOAD_SERVICEWORKLOAD_H
