//===- core/ServiceEngine.h - Resident analysis service ---------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-as-a-service layer behind tools/ipcp_serverd
/// (docs/SERVICE.md). A ServiceEngine turns the one-shot pipeline into a
/// long-lived, thread-safe request handler:
///
///  * the `ipcp-service-v1` request codec — one newline-delimited JSON
///    object per request (`analyze`, `analyze-batch`, `stats`,
///    `flush-cache`, `shutdown`) parsed into a ServiceRequest, with every
///    malformed field reported as a structured error instead of a crash;
///
///  * session-scoped resident summary caches: a request naming a
///    `session` analyzes through an in-memory SummaryCache (PR-4's
///    incremental layer) that stays resident between requests, so repeat
///    and edited-program requests are warm without any file round-trip.
///    Sessions are LRU-evicted beyond Config::MaxSessions per fixed
///    hash bucket (CacheBuckets of them, shard-count-independent, so
///    eviction points are a function of the request stream alone); when
///    Config::CacheDir (or Config::Store) is set, a content-addressed
///    store (support/ContentStore) is the *write-behind* tier — sessions
///    persist on eviction, flush-cache, and shutdown, and a new session
///    first tries to resolve its logical name in the store. The logical
///    name is source name + options fingerprint, deliberately session-
///    independent, so every worker sharing one store (the sharded
///    daemon, or a restarted daemon) warm-starts from any worker's
///    persisted summaries;
///
///  * per-request ResourceGuard budgets: server-wide default limits
///    merged with per-request overrides (the stricter value wins for any
///    budget the server configures), so one pathological program
///    degrades its own request and nothing else;
///
///  * driver-parity reports: an analyze response embeds exactly the
///    `ipcp-report-v1` document `ipcp_driver --report-json` writes for
///    the same program and options — the differential tests and the CI
///    service-smoke job byte-compare the two (after timing scrub).
///
/// All entry points except the parse helpers are safe to call from
/// multiple threads; analyses of distinct sessions (and cache-less
/// analyses) run fully in parallel, while requests sharing one session
/// serialize on that session's lock *in arrival order*: the daemon
/// reserves a SessionTurn per request on its reader thread, and the
/// per-session ticket turnstile replays the serial warm/cold sequence
/// exactly no matter how the pool interleaves — which is what makes
/// concurrent responses byte-identical to a serial run.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_SERVICEENGINE_H
#define IPCP_CORE_SERVICEENGINE_H

#include "core/Options.h"
#include "core/SummaryCache.h"
#include "support/Json.h"
#include "transform/Transform.h"

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

/// One parsed `ipcp-service-v1` request line.
struct ServiceRequest {
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
  /// Report source name (defaults to the suite name or "<request>").
  std::string Name;
  /// Resident-cache session key; empty disables the summary cache for
  /// this request.
  std::string Session;
  /// Run complete propagation (analysis interleaved with DCE) instead of
  /// a single analysis; such requests never use the cache (the driver's
  /// rule for --complete).
  bool Complete = false;
  /// The `optimize` op: run the transform pipeline on the program, then
  /// analyze the optimized module; the report gains an "optimization"
  /// block. Parsed like analyze minus 'session'/'complete' (optimization
  /// mutates the module, so such requests never use the session cache —
  /// the driver's rule for --optimize).
  bool Optimize = false;
  /// Pass selection for optimize requests (the "passes" member).
  TransformPassConfig Passes;
  /// Zero every wall-clock field in the embedded report.
  bool ScrubTimings = false;
  /// Analysis configuration ("options" object) and effective budgets
  /// ("limits" object merged with the server defaults).
  IPCPOptions Opts;

  // -- analyze-batch -----------------------------------------------------
  std::vector<ServiceRequest> Batch;
};

/// Long-lived, thread-safe analysis service over the pipeline.
class ServiceEngine {
public:
  struct Config {
    /// Root of the content-addressed write-behind tier for session
    /// caches; empty keeps sessions memory-only (unless Store is set).
    std::string CacheDir;
    /// The write-behind store itself. Left null, the engine creates a
    /// private ContentStore rooted at CacheDir; the sharded service
    /// injects one shared store into every shard instead, which is what
    /// lets any worker warm-start any session.
    std::shared_ptr<ContentStore> Store;
    /// Open the engine-created store in durable mode (fsync before
    /// rename; see support/ContentStore.h). Ignored when Store is
    /// injected — the creator of that store chooses.
    bool DurableStore = false;
    /// Resident session caches per cache bucket before LRU eviction.
    /// There are CacheBuckets fixed buckets (a pure hash of the session
    /// key), so service-wide residency is bounded by
    /// MaxSessions * CacheBuckets regardless of shard count — and the
    /// bucket, not the shard, is the eviction domain, which is what
    /// keeps eviction (and therefore every response byte) identical
    /// across shard counts.
    unsigned MaxSessions = 64;
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
  /// that orders requests (the daemon's reader), in arrival order;
  /// returns an empty turn for requests that do not use the session
  /// cache (no session, or complete propagation).
  SessionTurn reserveTurn(const ServiceRequest &Req);

  /// The resident-session key of an analyze request — session name,
  /// report name, and options fingerprint. This is also the sharded
  /// service's routing key: every request with the same key hashes to
  /// the same shard, so one shard owns each session's turnstile. Empty
  /// for requests that use no session cache.
  static std::string sessionKeyFor(const ServiceRequest &Req);

  /// Fixed number of session-cache buckets. A session key's bucket is a
  /// pure hash, independent of shard count and configuration; the
  /// sharded service maps whole buckets onto shards, and eviction runs
  /// per bucket, so which request runs warm never depends on how many
  /// shards the daemon was started with.
  static constexpr unsigned CacheBuckets = 16;
  static unsigned bucketFor(const std::string &SessionKey);

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
  /// daemon's concurrent path. Consumes the turn on every outcome
  /// (including errors), so a failed request never wedges its session.
  ///
  /// This is also the service's failure boundary: any exception thrown
  /// by the pipeline (or an injected `service.analyze` fault) is caught
  /// and converted into a structured, retryable "internal" error body —
  /// the worker thread and the session survive, and the session cache
  /// is never marked dirty by a failed run, so a poisoned run is never
  /// persisted.
  JsonValue analyze(const ServiceRequest &Req, SessionTurn Turn);

  /// Executes every item of an AnalyzeBatch request sequentially on the
  /// calling thread and returns the batch body ({"status", "responses":
  /// [...]}). The daemon instead fans items onto its pool and assembles
  /// the same body; both orders produce identical bytes.
  JsonValue analyzeBatch(const ServiceRequest &Req);

  /// One batch item's response object ({"index", "id"?, ...analyze
  /// body...}) — shared by analyzeBatch and the daemon's parallel path
  /// so the assembled bytes cannot diverge.
  JsonValue analyzeBatchItem(const ServiceRequest &Item, size_t Index);
  JsonValue analyzeBatchItem(const ServiceRequest &Item, size_t Index,
                             SessionTurn Turn);

  /// Counts one batch dispatch (the daemon's parallel path calls this
  /// once per batch; analyzeBatch does it itself).
  void noteBatch() { ++StatBatches; }

  /// The "stats" response body: request/session/cache counters.
  JsonValue statsBody();

  /// Point-in-time copy of every counter statsBody() reports, for
  /// aggregation across shards (core/ShardedService).
  struct CountersSnapshot {
    uint64_t Analyses = 0;
    uint64_t Optimizes = 0;
    uint64_t Degraded = 0;
    uint64_t Errors = 0;
    uint64_t InternalErrors = 0;
    uint64_t Batches = 0;
    uint64_t Busy = 0;
    uint64_t WarmHits = 0;
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
    uint64_t Evictions = 0;
    uint64_t WriteBehindSaves = 0;
    uint64_t WriteBehindFailures = 0;
    uint64_t DiskLoads = 0;
    uint64_t Resident = 0;
  };
  CountersSnapshot snapshot() const;

  /// The "flush-cache" response body: persists every dirty session to
  /// the write-behind tier (when configured) and drops all resident
  /// sessions.
  JsonValue flushCacheBody();

  /// Counts a queue-full rejection (the daemon answers `busy`).
  void noteBusy() { ++StatBusy; }

  /// Drops every resident session, persisting the dirty ones (the
  /// write-behind final flush on shutdown, and flush-cache). Returns the
  /// number persisted and adds the number dropped to \p Dropped when it
  /// is non-null.
  unsigned shutdownFlush(size_t *Dropped = nullptr);

  /// Number of resident session caches (tests and stats).
  size_t residentSessions() const;

  const Config &config() const { return Conf; }

private:
  JsonValue analyzeLocked(const ServiceRequest &Req, SessionState *Session);
  SessionTurn acquireSession(const ServiceRequest &Req);
  void evictOverflowSessions(unsigned Bucket,
                             std::vector<std::shared_ptr<SessionState>> &Out);
  unsigned persistSession(SessionState &S);

  Config Conf;

  mutable std::mutex SessionsMutex;
  std::unordered_map<std::string, std::shared_ptr<SessionState>> Sessions;
  uint64_t UseCounter = 0;

  std::atomic<uint64_t> StatAnalyses{0};
  std::atomic<uint64_t> StatOptimizes{0};
  std::atomic<uint64_t> StatDegraded{0};
  std::atomic<uint64_t> StatErrors{0};
  std::atomic<uint64_t> StatInternalErrors{0};
  std::atomic<uint64_t> StatBatches{0};
  std::atomic<uint64_t> StatBusy{0};
  std::atomic<uint64_t> StatCacheWarmHits{0};
  std::atomic<uint64_t> StatCacheHits{0};
  std::atomic<uint64_t> StatCacheMisses{0};
  std::atomic<uint64_t> StatEvictions{0};
  std::atomic<uint64_t> StatWriteBehindSaves{0};
  std::atomic<uint64_t> StatWriteBehindFailures{0};
  std::atomic<uint64_t> StatDiskLoads{0};
};

} // namespace ipcp

#endif // IPCP_CORE_SERVICEENGINE_H
