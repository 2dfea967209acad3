//===- core/ServiceEngine.h - Resident analysis service ---------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis engine behind tools/ipcp_serverd (docs/SERVICE.md). The
/// dispatcher, core/ServiceDispatcher, turns every request line into a
/// response: it parses the line with this engine's codec, admits it,
/// runs its analysis here on a pool worker, and builds the batch, stats
/// and flush bodies. A ServiceEngine supplies:
///
///  * the `ipcp-service-v1` request codec — one newline-delimited JSON
///    object per request (`analyze`, `optimize`, `analyze-batch`,
///    `stats`, `flush-cache`, `shutdown`) parsed into a ServiceRequest,
///    with every malformed field reported as a structured error instead
///    of a crash;
///
///  * session-scoped resident summary caches: a request naming a
///    `session` analyzes through an in-memory SummaryCache (the
///    incremental layer) that stays resident between requests, so repeat
///    and edited-program requests are warm without any file round-trip.
///    Beyond Config::MaxSessions resident sessions the least recently
///    used one is evicted, at a point that is a function of the request
///    stream alone; when Config::Store is set, that content-addressed
///    store (support/ContentStore) is the *write-behind* tier — sessions
///    persist on eviction, flush-cache, and shutdown, and a new session
///    first loads its summaries from the store. Both go through
///    SummaryCache's load/save pair, the same one the driver and
///    suitecheck use, so every engine sharing one store (a restarted
///    daemon, or a command-line tool on the same directory) warm-starts
///    from any other's persisted summaries;
///
///  * per-request ResourceGuard budgets: server-wide default limits
///    merged with per-request overrides (the stricter value wins for any
///    budget the server configures), so one pathological program
///    degrades its own request and nothing else;
///
///  * driver-parity reports: an analyze response embeds exactly the
///    `ipcp-report-v1` document `ipcp_driver --report-json` writes for
///    the same program and options. Parity holds by construction — both
///    go from source text to report through RequestRun (core/Report.h)
///    — and the `service_driver_parity` ctest pins it;
///
///  * the service's counters, indexed by the stats table
///    (core/ServiceStats.def); the dispatcher counts its own fields
///    through bump().
///
/// All entry points except the parse helpers are safe to call from
/// multiple threads; analyses of distinct sessions (and cache-less
/// analyses) run fully in parallel, while requests sharing one session
/// serialize on that session's lock *in arrival order*: the dispatcher
/// reserves a SessionTurn per request on its reader thread, and the
/// per-session ticket turnstile replays the serial warm/cold sequence
/// exactly no matter how the pool interleaves — which is what makes
/// concurrent responses byte-identical to a serial run.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_SERVICEENGINE_H
#define IPCP_CORE_SERVICEENGINE_H

#include "core/Report.h"
#include "core/SummaryCache.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

class ContentStore;

/// One parsed `ipcp-service-v1` request line. An analyze request fills
/// the AnalysisRequest base: Name (defaults to the suite name or
/// "<request>"), Opts (the "options" object, and the "limits" object
/// merged with the server's default budgets), Complete, and, for the
/// `optimize` op, Optimize and Passes.
struct ServiceRequest : AnalysisRequest {
  enum class Kind { Analyze, AnalyzeBatch, Stats, FlushCache, Shutdown };
  Kind Op = Kind::Analyze;

  /// Client correlation id, echoed verbatim in the response envelope
  /// (any JSON value; absent when HasId is false).
  JsonValue Id;
  bool HasId = false;

  // -- analyze fields ----------------------------------------------------
  /// MiniFort source text (mutually exclusive with Suite).
  std::string Source;
  /// Name of a built-in suite program to analyze instead of Source.
  std::string Suite;
  /// Resident-cache session key; empty disables the summary cache for
  /// this request.
  std::string Session;
  /// Zero every wall-clock field in the embedded report.
  bool ScrubTimings = false;

  // -- analyze-batch -----------------------------------------------------
  std::vector<ServiceRequest> Batch;
};

/// The analysis service's engine: codec, sessions, analysis, counters.
class ServiceEngine {
public:
  struct Config {
    /// The write-behind tier for session caches, opened by the caller
    /// (the daemon from --cache-dir and --durable-store); null keeps
    /// sessions memory-only.
    std::shared_ptr<ContentStore> Store;
    /// Resident session caches before LRU eviction. A session's key is
    /// (session, program, options fingerprint), so one editor session
    /// working over several programs or jump-function kinds holds
    /// several entries.
    unsigned MaxSessions = 1024;
    /// Default per-request budgets. A request's "limits" object
    /// overrides them field by field, except that a budget the server
    /// configures (non-zero) is a ceiling: the stricter value wins.
    ResourceLimits DefaultLimits;
    /// Zero wall-clock fields in every response (server-wide
    /// --scrub-timings).
    bool ScrubTimings = false;
    /// Resolves a request's "suite" name to source text (the daemon
    /// installs workload/Programs' findSuiteProgram; core itself has no
    /// workload dependency). Null rejects every suite request.
    std::function<bool(const std::string &Name, std::string &SourceOut)>
        SuiteResolver;
  };

  explicit ServiceEngine(Config C);
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine &) = delete;
  ServiceEngine &operator=(const ServiceEngine &) = delete;

  struct SessionState;

  /// An ordered claim on a session's cache. Turns are issued in request
  /// arrival order (reserveTurn) and redeemed by analyze(); the session
  /// executes them strictly in issue order, so which request runs warm
  /// is a function of the request stream alone, never of thread timing.
  /// An empty turn (default-constructed, or reserved for a cache-less
  /// request) is a no-op.
  class SessionTurn {
    friend class ServiceEngine;
    std::shared_ptr<SessionState> S;
    uint64_t Ticket = 0;

  public:
    SessionTurn() = default;
    explicit operator bool() const { return S != nullptr; }
  };

  /// Issues the session turn for an analyze request. Call on the thread
  /// that orders requests (the dispatcher's reader), in arrival order;
  /// returns an empty turn for requests that do not use the session
  /// cache: no session, or !AnalysisRequest::usesCache().
  SessionTurn reserveTurn(const ServiceRequest &Req);

  /// The resident-session key of an analyze request — session name,
  /// report name, and options fingerprint. Empty for requests that use
  /// no session cache.
  static std::string sessionKeyFor(const ServiceRequest &Req);

  /// Parses one request line. Returns false and fills \p Error (with
  /// \p ErrorCode one of "bad-json", "bad-request") when the line is not
  /// a well-formed request; \p Req is then unspecified.
  bool parseRequestLine(const std::string &Line, ServiceRequest &Req,
                        std::string *ErrorCode, std::string *Error) const;

  /// Executes one Analyze request (thread-safe; callable from pool
  /// workers). Returns the response body: {"status": "ok" | "degraded" |
  /// "error", "error"?: {...}, "report"?: {...ipcp-report-v1...}}.
  /// Reserves the session turn itself — the serial path.
  JsonValue analyze(const ServiceRequest &Req);

  /// Same, redeeming a turn reserved earlier with reserveTurn() — the
  /// dispatcher's concurrent path. Consumes the turn on every outcome
  /// (including errors), so a failed request never wedges its session.
  ///
  /// This is also the service's failure boundary: any exception thrown
  /// by the pipeline (or an injected `service.analyze` fault) is caught
  /// and converted into a structured, retryable "internal" error body —
  /// the worker thread and the session survive, and the session cache
  /// is never marked dirty by a failed run, so a poisoned run is never
  /// persisted.
  JsonValue analyze(const ServiceRequest &Req, SessionTurn Turn);

  /// The service fields of the `stats` body, declared once each in
  /// core/ServiceStats.def, in body order. The engine counts every
  /// counter except Batches and BusyRejections, which the dispatcher
  /// counts through bump(). The gauges are not counted: snapshot() reads
  /// SessionsResident from the session map, and the dispatcher samples
  /// QueueDepth and QueuePeak from its pool.
  enum Stat : unsigned {
#define IPCP_SERVICE_STAT(Id, Key) Id,
#include "core/ServiceStats.def"
#undef IPCP_SERVICE_STAT
    NumStats
  };
  static const char *const StatKeys[NumStats];

  /// Adds \p N to counter \p S (thread-safe).
  void bump(Stat S, uint64_t N = 1) { Counters[S] += N; }

  /// Field values indexed by Stat; the queue gauges read zero.
  using Counts = std::array<uint64_t, NumStats>;
  Counts snapshot() const;

  /// Drops every resident session, persisting the dirty ones (the
  /// write-behind final flush on shutdown, and flush-cache). Returns the
  /// number persisted and adds the number dropped to \p Dropped when it
  /// is non-null.
  unsigned shutdownFlush(size_t *Dropped = nullptr);

private:
  JsonValue analyzeLocked(const ServiceRequest &Req, SessionState *Session);
  SessionTurn acquireSession(const ServiceRequest &Req,
                             const std::string &Key);
  void evictOverflowSessions(std::vector<std::shared_ptr<SessionState>> &Out);
  unsigned persistSession(SessionState &S);

  Config Conf;

  mutable std::mutex SessionsMutex;
  std::unordered_map<std::string, std::shared_ptr<SessionState>> Sessions;
  uint64_t UseCounter = 0;

  std::array<std::atomic<uint64_t>, NumStats> Counters{};
};

} // namespace ipcp

#endif // IPCP_CORE_SERVICEENGINE_H
