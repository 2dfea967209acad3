//===- core/ServiceDispatcher.cpp -----------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ServiceDispatcher.h"

#include "core/Report.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"

using namespace ipcp;

//===----------------------------------------------------------------------===//
// Construction and the pool
//===----------------------------------------------------------------------===//

/// Shared in-flight state of one analyze-batch: items land in their
/// slots in any order; whoever finishes last assembles the response.
struct ServiceDispatcher::BatchState {
  std::vector<JsonValue> Items;
  std::atomic<size_t> Remaining{0};
  uint64_t Seq = 0;
  JsonValue Id;
  bool HasId = false;
};

ServiceDispatcher::ServiceDispatcher(Config C)
    : Conf(std::move(C)), Gate(Conf.QueueLimit), Engine(Conf.Engine),
      Pool(Conf.Jobs ? Conf.Jobs : ThreadPool::defaultConcurrency()) {}

ServiceDispatcher::~ServiceDispatcher() = default;

void ServiceDispatcher::submit(std::function<void()> Task) {
  uint64_t D = Depth.fetch_add(1) + 1;
  uint64_t P = Peak.load();
  while (D > P && !Peak.compare_exchange_weak(P, D)) {
  }
  Pool.submit([this, Task = std::move(Task)] {
    Task();
    Depth.fetch_sub(1);
  });
}

//===----------------------------------------------------------------------===//
// Streams and dispatch
//===----------------------------------------------------------------------===//

std::unique_ptr<ServiceDispatcher::Stream> ServiceDispatcher::openStream() {
  return std::unique_ptr<Stream>(new Stream(Conf.ResultBuffer));
}

void ServiceDispatcher::pushEnvelope(Stream &St, uint64_t Seq,
                                     const JsonValue *Id, JsonValue Body) {
  St.Results.push(Seq,
                  buildServiceEnvelope(Seq, Id, std::move(Body)).dump() +
                      "\n");
}

static JsonValue errorBody(const std::string &Status, const std::string &Code,
                           const std::string &Message) {
  JsonValue Body = JsonValue::object();
  Body.set("status", Status);
  Body.set("error", serviceErrorObject(Code, Message));
  return Body;
}

/// The queue-full rejection. The backoff hint is a fixed constant, not
/// a load measurement: response bytes must stay a pure function of the
/// request stream (docs/SCALING.md), and clients add their own jitter
/// (ipcp_loadgen --retry-busy).
static JsonValue busyBody() {
  JsonValue Body =
      errorBody("busy", "busy", "request queue is full; retry later");
  Body.find("error")->set("retry_after_ms", uint64_t(10));
  return Body;
}

/// Runs one analyze on a pool worker. A backstop behind the engine's own
/// failure boundary: whatever happens, the request gets an answer, so a
/// throwing request can never wedge the response stream.
static JsonValue analyzeOnWorker(ServiceEngine &E, const ServiceRequest &Req,
                                 ServiceEngine::SessionTurn Turn) {
  try {
    return E.analyze(Req, std::move(Turn));
  } catch (...) {
    return errorBody("error", "internal", "analysis failed in worker");
  }
}

/// One analyze-batch item's response: its index, its id (if any), then
/// the members of its analyze body.
static JsonValue batchItem(const ServiceRequest &Item, size_t Index,
                           JsonValue Body) {
  JsonValue Out = JsonValue::object();
  Out.set("index", uint64_t(Index));
  if (Item.HasId)
    Out.set("id", Item.Id);
  for (auto &[Key, Val] : Body.members())
    Out.set(Key, std::move(Val));
  return Out;
}

bool ServiceDispatcher::submitLine(Stream &St, const std::string &Line) {
  if (Line.find_first_not_of(" \t\r") == std::string::npos)
    return false; // blank keep-alive lines carry no request
  uint64_t Seq = St.NextSeq++;
  ServiceRequest Req;
  std::string Code, Error;
  if (!Engine.parseRequestLine(Line, Req, &Code, &Error)) {
    pushEnvelope(St, Seq, nullptr, errorBody("error", Code, Error));
    return false;
  }
  const JsonValue *Id = Req.HasId ? &Req.Id : nullptr;

  switch (Req.Op) {
  case ServiceRequest::Kind::Analyze: {
    if (!Gate.tryAcquire()) {
      ++Counters[ServiceEngine::BusyRejections];
      pushEnvelope(St, Seq, Id, busyBody());
      break;
    }
    // Reserve the session turn here on the reader thread, in arrival
    // order — the turnstile that makes concurrent bytes serial-equal.
    ServiceEngine::SessionTurn Turn = Engine.reserveTurn(Req);
    submit([this, &St, Seq, Req = std::move(Req), Turn]() mutable {
      JsonValue Body = analyzeOnWorker(Engine, Req, std::move(Turn));
      pushEnvelope(St, Seq, Req.HasId ? &Req.Id : nullptr, std::move(Body));
      Gate.release();
    });
    break;
  }
  case ServiceRequest::Kind::AnalyzeBatch: {
    size_t N = Req.Batch.size();
    // A batch larger than the gate can never be admitted, so `busy`
    // (retryable) would be a lie; limit 0 stays the always-busy mode.
    if (Gate.limit() != 0 && N > Gate.limit()) {
      pushEnvelope(St, Seq, Id,
                   errorBody("error", "bad-request",
                             "batch of " + std::to_string(N) +
                                 " items exceeds the queue limit of " +
                                 std::to_string(Gate.limit())));
      break;
    }
    if (!Gate.tryAcquire(N)) {
      ++Counters[ServiceEngine::BusyRejections];
      pushEnvelope(St, Seq, Id, busyBody());
      break;
    }
    ++Counters[ServiceEngine::Batches];
    auto State = std::make_shared<BatchState>();
    State->Items.resize(N);
    State->Remaining.store(N);
    State->Seq = Seq;
    State->Id = Req.Id;
    State->HasId = Req.HasId;
    // Turns are reserved in item order, so the batch replays the serial
    // warm/cold sequence no matter how the pool schedules the items.
    for (size_t I = 0; I != N; ++I) {
      ServiceEngine::SessionTurn Turn = Engine.reserveTurn(Req.Batch[I]);
      submit([this, &St, State, I, Item = Req.Batch[I], Turn]() mutable {
        State->Items[I] =
            batchItem(Item, I, analyzeOnWorker(Engine, Item, std::move(Turn)));
        Gate.release();
        if (State->Remaining.fetch_sub(1) != 1)
          return;
        JsonValue Responses = JsonValue::array();
        for (JsonValue &R : State->Items)
          Responses.push(std::move(R));
        JsonValue Body = JsonValue::object();
        Body.set("status", "ok");
        Body.set("responses", std::move(Responses));
        pushEnvelope(St, State->Seq, State->HasId ? &State->Id : nullptr,
                     std::move(Body));
      });
    }
    break;
  }
  case ServiceRequest::Kind::Stats: {
    // Sample queue gauges at arrival — the drain below would read them
    // as zero — then barrier so the counters are a function of the
    // request stream alone.
    uint64_t QueueDepth = Depth.load(), QueuePeak = Peak.load();
    Pool.wait();
    pushEnvelope(St, Seq, Id, statsBody(QueueDepth, QueuePeak));
    break;
  }
  case ServiceRequest::Kind::FlushCache: {
    Pool.wait();
    size_t Flushed = 0;
    unsigned Persisted = shutdownFlush(&Flushed);
    JsonValue Body = JsonValue::object();
    Body.set("status", "ok");
    Body.set("sessions_flushed", uint64_t(Flushed));
    Body.set("persisted", uint64_t(Persisted));
    pushEnvelope(St, Seq, Id, std::move(Body));
    break;
  }
  case ServiceRequest::Kind::Shutdown: {
    Pool.wait();
    JsonValue Body = JsonValue::object();
    Body.set("status", "ok");
    Body.set("persisted", uint64_t(shutdownFlush()));
    pushEnvelope(St, Seq, Id, std::move(Body));
    return true;
  }
  }
  return false;
}

void ServiceDispatcher::finishStream(Stream &St) {
  Pool.wait();
  St.Results.close();
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

JsonValue ServiceDispatcher::statsBody(uint64_t QueueDepth,
                                       uint64_t QueuePeak) {
  // Aggregate counters first (the dispatcher's own plus the engine's),
  // then the one-entry `shards` array the wire format keeps, then the
  // store's counters — each walks its stats table.
  ServiceEngine::Counts Snap = Engine.snapshot();
  JsonValue Stats = JsonValue::object();
  for (unsigned F = 0; F != ServiceEngine::NumStats; ++F)
    Stats.set(ServiceEngine::StatFields[F].Key, Counters[F].load() + Snap[F]);

  JsonValue Entry = JsonValue::object();
  Entry.set("shard", uint64_t(0));
  for (unsigned F = 0; F != ServiceEngine::NumStats; ++F)
    if (ServiceEngine::StatFields[F].InEntry)
      Entry.set(ServiceEngine::StatFields[F].Key, Snap[F]);
  // The queue gauges are the only timing-dependent stats fields.
  bool Scrub = Conf.Engine.ScrubTimings;
  Entry.set("queue_depth", Scrub ? uint64_t(0) : QueueDepth);
  Entry.set("queue_peak", Scrub ? uint64_t(0) : QueuePeak);
  JsonValue Entries = JsonValue::array();
  Entries.push(std::move(Entry));
  Stats.set("shards", std::move(Entries));

  JsonValue StoreStats = JsonValue::object();
  const std::shared_ptr<ContentStore> &Store = Conf.Engine.Store;
  ContentStore::Stats CS = Store ? Store->stats() : ContentStore::Stats{};
  for (unsigned F = 0; F != ContentStore::NumStats; ++F)
    StoreStats.set(ContentStore::StatKeys[F], CS[F]);
  Stats.set("store", std::move(StoreStats));

  // Only present while a fault plan is installed: normal stats bodies
  // stay byte-stable, chaos runs get their injection counters inline.
  if (faultInjector().active())
    Stats.set("faults", faultInjector().statsJson());

  JsonValue Body = JsonValue::object();
  Body.set("status", "ok");
  Body.set("stats", std::move(Stats));
  return Body;
}
