//===- core/ShardedService.h - Sharded worker pool service ------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's one dispatcher (docs/SCALING.md): the only code that
/// turns a request line into a response line. One reader thread feeds
/// request lines into submitLine(); the service parses each line, admits
/// it, routes it to a shard — a ServiceEngine, which owns that shard's
/// sessions and counters and runs its analyses — on that shard's pool,
/// assembles batch, stats and flush bodies, and delivers responses in
/// global sequence order through a per-stream reorder queue:
///
///  * routing is by session key: every request with the same (session,
///    name, options-fingerprint) key hashes — via support/StableHash —
///    to the same shard, so exactly one shard owns each session's
///    turnstile and the per-session warm/cold order is identical to a
///    single-worker run. Cache-less requests round-robin (their
///    response bytes are shard-independent);
///
///  * every shard owns its in-memory summary caches, but all shards
///    share the one content-addressed store (support/ContentStore) the
///    caller opened as Config::Engine.Store, the write-behind tier, so a
///    session evicted by shard A warm-starts on shard B — and
///    warm-starts byte-identically, because the embedded report's cache
///    counters come from the run's own adoption, not from where the
///    summaries were loaded;
///
///  * admission control is global: one AdmissionGate bounds in-flight
///    analyses across all shards (`busy` beyond the limit; a batch that
///    could never fit is a `bad-request`), and the per-stream response
///    queue is bounded, so a slow reader of the response stream
///    backpressures the workers instead of growing an unbounded reorder
///    buffer. Under overload, memory is bounded by queue-limit +
///    result-buffer, never by the request backlog;
///
///  * control ops (stats, flush-cache, shutdown) are barriers across
///    every shard; `stats` sums the shards' counters and the
///    dispatcher's own (batches, busy rejections) by walking the stats
///    table (core/ServiceStats.def).
///
/// Response bytes do not depend on Shards or Jobs; one shard with one
/// job is the serial reference configuration.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_SHARDEDSERVICE_H
#define IPCP_CORE_SHARDEDSERVICE_H

#include "core/ServiceEngine.h"
#include "support/BoundedQueue.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ipcp {

class ThreadPool;

/// A pool of ServiceEngine shards behind one dispatch entry point.
class ShardedService {
public:
  struct Config {
    /// Worker shards; each owns an engine and a slice of the threads.
    unsigned Shards = 1;
    /// Total worker threads across shards (0 = hardware concurrency);
    /// each shard gets max(1, Jobs / Shards).
    unsigned Jobs = 0;
    /// Global in-flight analysis bound before `busy` (0 rejects every
    /// analyze — the backpressure tests). A batch with more items than a
    /// non-zero limit can never be admitted and is a `bad-request`.
    size_t QueueLimit = 256;
    /// Buffered out-of-order responses per stream before producers
    /// block (0 = unbounded). The next-in-order response is always
    /// accepted, so this throttles without deadlocking.
    size_t ResultBuffer = 1024;
    /// Per-shard engine configuration. MaxSessions is per cache bucket
    /// (ServiceEngine::CacheBuckets fixed buckets service-wide, each
    /// owned wholly by one shard, so eviction is shard-count-
    /// independent); Engine.Store, when set, is the one store every
    /// shard shares.
    ServiceEngine::Config Engine;
  };

  explicit ShardedService(Config C);
  ~ShardedService();

  ShardedService(const ShardedService &) = delete;
  ShardedService &operator=(const ShardedService &) = delete;

  /// One response stream (one connection, or one in-process driver).
  /// Sequence numbers restart at 0 per stream; responses come out of
  /// popResponse in sequence order, each a full line with trailing
  /// newline. Engines and session caches persist across streams.
  class Stream {
    friend class ShardedService;
    explicit Stream(size_t MaxBuffered) : Results(MaxBuffered) {}
    OrderedResultQueue<std::string> Results;
    uint64_t NextSeq = 0;

  public:
    /// Blocks for the next in-order response; false when the stream is
    /// finished and drained.
    bool popResponse(std::string &Out) { return Results.pop(Out); }

    /// High-water mark of buffered out-of-order responses.
    size_t peakBuffered() const { return Results.peakBuffered(); }
  };

  /// Opens a response stream. One reader thread per stream; a consumer
  /// thread drains popResponse concurrently.
  std::unique_ptr<Stream> openStream();

  /// Handles one request line on the reader thread: parse, admission,
  /// session-turn reservation, shard routing, pool submission. Control
  /// ops run inline after an all-shard barrier. Returns true when the
  /// line was a shutdown request (stop reading; then finishStream).
  bool submitLine(Stream &St, const std::string &Line);

  /// Drains every shard pool and closes the stream's response queue;
  /// call after EOF or shutdown, before joining the consumer.
  void finishStream(Stream &St);

  /// Drops every session across all shards, persisting the dirty ones
  /// (flush-cache, shutdown, and the daemon exit path when the stream
  /// ends without a shutdown request). Returns the number persisted and
  /// adds the number dropped to \p Dropped when it is non-null.
  unsigned shutdownFlush(size_t *Dropped = nullptr);

  unsigned shards() const { return unsigned(Workers.size()); }

  /// The routing function: which shard owns \p SessionKey (a
  /// ServiceEngine::sessionKeyFor result, non-empty).
  static unsigned shardIndexFor(const std::string &SessionKey,
                                unsigned ShardCount);

private:
  struct Worker;
  struct BatchState;

  void submitToShard(unsigned Shard, std::function<void()> Task);
  unsigned routeShard(const ServiceRequest &Req);
  void drainAll();
  JsonValue statsBody();
  void pushEnvelope(Stream &St, uint64_t Seq, const JsonValue *Id,
                    JsonValue Body);

  Config Conf;
  AdmissionGate Gate;
  std::vector<std::unique_ptr<Worker>> Workers;
  uint64_t RoundRobin = 0; ///< reader-thread only: cache-less routing
  /// The dispatcher's own counters (Batches, BusyRejections), indexed
  /// like a shard's.
  std::array<std::atomic<uint64_t>, ServiceEngine::NumStats> Counters{};
};

} // namespace ipcp

#endif // IPCP_CORE_SHARDEDSERVICE_H
