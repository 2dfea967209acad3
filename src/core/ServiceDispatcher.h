//===- core/ServiceDispatcher.h - The service dispatcher --------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's one dispatcher (docs/SCALING.md): the only code that
/// turns a request line into a response line. One reader thread feeds
/// request lines into submitLine(); the dispatcher parses each line,
/// admits it, runs its analysis on the ServiceEngine — which owns the
/// sessions and counters — from one pool of Config::Jobs threads,
/// assembles batch, stats and flush bodies, and delivers responses in
/// global sequence order through a per-stream reorder queue:
///
///  * session turns are reserved on the reader thread, in arrival order,
///    and a per-session turnstile redeems them in that order, so the
///    per-session warm/cold sequence is identical to a single-worker
///    run. Cache-less requests take no turn and run fully in parallel;
///
///  * admission control is global: one AdmissionGate bounds in-flight
///    analyses (`busy` beyond the limit; a batch that could never fit is
///    a `bad-request`), and the per-stream response queue is bounded, so
///    a slow reader of the response stream backpressures the workers
///    instead of growing an unbounded reorder buffer. Under overload,
///    memory is bounded by queue-limit + result-buffer, never by the
///    request backlog;
///
///  * control ops (stats, flush-cache, shutdown) are barriers: they wait
///    for every in-flight analysis. The dispatcher counts its own stats
///    fields (batches, busy rejections) in the engine, and `stats` walks
///    the stats table (core/ServiceStats.def) over the engine's snapshot
///    and the pool's queue gauges.
///
/// Response bytes do not depend on Jobs; one job is the serial reference
/// configuration.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_SERVICEDISPATCHER_H
#define IPCP_CORE_SERVICEDISPATCHER_H

#include "core/ServiceEngine.h"
#include "support/BoundedQueue.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <memory>
#include <string>

namespace ipcp {

/// One ServiceEngine and one worker pool behind one dispatch entry point.
class ServiceDispatcher {
public:
  struct Config {
    /// Worker threads (0 = hardware concurrency).
    unsigned Jobs = 0;
    /// Global in-flight analysis bound before `busy` (0 rejects every
    /// analyze — the backpressure tests). A batch with more items than a
    /// non-zero limit can never be admitted and is a `bad-request`.
    size_t QueueLimit = 256;
    /// Buffered out-of-order responses per stream before producers
    /// block (0 = unbounded). The next-in-order response is always
    /// accepted, so this throttles without deadlocking.
    size_t ResultBuffer = 1024;
    /// The engine's configuration. MaxSessions bounds every resident
    /// session; Engine.Store, when set, is the write-behind tier.
    ServiceEngine::Config Engine;
  };

  explicit ServiceDispatcher(Config C);
  ~ServiceDispatcher();

  ServiceDispatcher(const ServiceDispatcher &) = delete;
  ServiceDispatcher &operator=(const ServiceDispatcher &) = delete;

  /// One response stream (one connection, or one in-process driver).
  /// Sequence numbers restart at 0 per stream; responses come out of
  /// popResponse in sequence order, each a full line with trailing
  /// newline. The engine and its session caches persist across streams.
  class Stream {
    friend class ServiceDispatcher;
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
  /// session-turn reservation, pool submission. Control ops run inline
  /// after a barrier. Returns true when the line was a shutdown request
  /// (stop reading; then finishStream).
  bool submitLine(Stream &St, const std::string &Line);

  /// Drains the pool and closes the stream's response queue; call after
  /// EOF or shutdown, before joining the consumer.
  void finishStream(Stream &St);

  /// Drops every session, persisting the dirty ones (flush-cache,
  /// shutdown, and the daemon exit path when the stream ends without a
  /// shutdown request). Returns the number persisted and adds the number
  /// dropped to \p Dropped when it is non-null.
  unsigned shutdownFlush(size_t *Dropped = nullptr) {
    return Engine.shutdownFlush(Dropped);
  }

private:
  struct BatchState;

  JsonValue statsBody(ThreadPool::Depth Queue);
  void pushEnvelope(Stream &St, uint64_t Seq, const JsonValue *Id,
                    JsonValue Body);

  Config Conf;
  AdmissionGate Gate;
  ServiceEngine Engine;
  /// Declared last, so it is destroyed — draining its tasks — before
  /// anything those tasks touch.
  ThreadPool Pool;
};

} // namespace ipcp

#endif // IPCP_CORE_SERVICEDISPATCHER_H
