//===- core/ShardedService.cpp --------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ShardedService.h"

#include "core/Report.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/StableHash.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>

using namespace ipcp;

//===----------------------------------------------------------------------===//
// Workers and construction
//===----------------------------------------------------------------------===//

/// One shard: an engine, its slice of the worker threads, and a depth
/// gauge for the stats op (submitted-but-unfinished tasks).
struct ShardedService::Worker {
  std::unique_ptr<ServiceEngine> Engine;
  std::unique_ptr<ThreadPool> Pool;
  std::atomic<uint64_t> Depth{0};
  std::atomic<uint64_t> Peak{0};
};

/// Shared in-flight state of one analyze-batch: items land in their
/// slots in any order (and on any shard); whoever finishes last
/// assembles the response.
struct ShardedService::BatchState {
  std::vector<JsonValue> Items;
  std::atomic<size_t> Remaining{0};
  uint64_t Seq = 0;
  JsonValue Id;
  bool HasId = false;
};

ShardedService::ShardedService(Config C)
    : Conf(std::move(C)), Gate(Conf.QueueLimit) {
  if (Conf.Shards == 0)
    Conf.Shards = 1;
  unsigned Jobs = Conf.Jobs ? Conf.Jobs : ThreadPool::defaultConcurrency();
  unsigned PerShard = std::max(1u, Jobs / Conf.Shards);
  for (unsigned I = 0; I != Conf.Shards; ++I) {
    auto W = std::make_unique<Worker>();
    // Every shard gets the same Engine.Store: one content-addressed
    // store shared by all shards is what makes cross-shard warm starts
    // work.
    W->Engine = std::make_unique<ServiceEngine>(Conf.Engine);
    W->Pool = std::make_unique<ThreadPool>(PerShard);
    Workers.push_back(std::move(W));
  }
}

ShardedService::~ShardedService() = default;

unsigned ShardedService::shardIndexFor(const std::string &SessionKey,
                                       unsigned ShardCount) {
  // Shards own whole cache buckets: the key maps to one of the
  // ServiceEngine::CacheBuckets fixed buckets, and the bucket — not the
  // raw key — picks the shard. Each bucket (the eviction domain) then
  // lives wholly on one shard, so eviction points are a function of the
  // request stream, never of the shard count.
  return ShardCount <= 1
             ? 0
             : ServiceEngine::bucketFor(SessionKey) % ShardCount;
}

unsigned ShardedService::routeShard(const ServiceRequest &Req) {
  std::string Key = ServiceEngine::sessionKeyFor(Req);
  if (!Key.empty())
    return shardIndexFor(Key, shards());
  // Cache-less requests produce shard-independent bytes, so they just
  // balance across shards. The counter lives on the reader thread, so
  // the placement — and with it every per-shard counter — is a function
  // of the request stream, not of timing.
  return unsigned(RoundRobin++ % shards());
}

void ShardedService::submitToShard(unsigned Shard,
                                   std::function<void()> Task) {
  Worker &W = *Workers[Shard];
  uint64_t D = W.Depth.fetch_add(1) + 1;
  uint64_t P = W.Peak.load();
  while (D > P && !W.Peak.compare_exchange_weak(P, D)) {
  }
  W.Pool->submit([&W, Task = std::move(Task)] {
    Task();
    W.Depth.fetch_sub(1);
  });
}

void ShardedService::drainAll() {
  // No new work arrives while the reader thread sits in a control op,
  // so waiting the pools one by one is a true all-shard barrier.
  for (const std::unique_ptr<Worker> &W : Workers)
    W->Pool->wait();
}

//===----------------------------------------------------------------------===//
// Streams and dispatch
//===----------------------------------------------------------------------===//

std::unique_ptr<ShardedService::Stream> ShardedService::openStream() {
  return std::unique_ptr<Stream>(new Stream(Conf.ResultBuffer));
}

void ShardedService::pushEnvelope(Stream &St, uint64_t Seq,
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

/// Runs one analyze on its shard. A backstop behind the engine's own
/// failure boundary: whatever happens, the request gets an answer, so a
/// throwing request can never wedge the response stream.
static JsonValue analyzeOnShard(ServiceEngine &E, const ServiceRequest &Req,
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

bool ShardedService::submitLine(Stream &St, const std::string &Line) {
  if (Line.find_first_not_of(" \t\r") == std::string::npos)
    return false; // blank keep-alive lines carry no request
  uint64_t Seq = St.NextSeq++;
  ServiceRequest Req;
  std::string Code, Error;
  // Parsing depends only on the shared Config, so shard 0's engine
  // parses for everyone.
  if (!Workers[0]->Engine->parseRequestLine(Line, Req, &Code, &Error)) {
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
    unsigned Shard = routeShard(Req);
    ServiceEngine &E = *Workers[Shard]->Engine;
    // Reserve the session turn here on the reader thread, in arrival
    // order — the turnstile that makes concurrent bytes serial-equal.
    ServiceEngine::SessionTurn Turn = E.reserveTurn(Req);
    submitToShard(Shard,
                  [this, &St, &E, Seq, Req = std::move(Req), Turn]() mutable {
                    JsonValue Body = analyzeOnShard(E, Req, std::move(Turn));
                    pushEnvelope(St, Seq, Req.HasId ? &Req.Id : nullptr,
                                 std::move(Body));
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
    // Items route to their own shards; turns are reserved in item
    // order, so the batch replays the serial warm/cold sequence no
    // matter how the shard pools schedule the items.
    for (size_t I = 0; I != N; ++I) {
      unsigned Shard = routeShard(Req.Batch[I]);
      ServiceEngine &E = *Workers[Shard]->Engine;
      ServiceEngine::SessionTurn Turn = E.reserveTurn(Req.Batch[I]);
      submitToShard(
          Shard, [this, &St, &E, State, I, Item = Req.Batch[I],
                  Turn]() mutable {
            State->Items[I] =
                batchItem(Item, I, analyzeOnShard(E, Item, std::move(Turn)));
            Gate.release();
            if (State->Remaining.fetch_sub(1) != 1)
              return;
            JsonValue Responses = JsonValue::array();
            for (JsonValue &R : State->Items)
              Responses.push(std::move(R));
            JsonValue Body = JsonValue::object();
            Body.set("status", "ok");
            Body.set("responses", std::move(Responses));
            pushEnvelope(St, State->Seq,
                         State->HasId ? &State->Id : nullptr,
                         std::move(Body));
          });
    }
    break;
  }
  case ServiceRequest::Kind::Stats: {
    // Sample queue gauges at arrival — the drain below would read them
    // as zero — then barrier so the counters are a function of the
    // request stream alone.
    std::vector<std::array<uint64_t, 2>> Depths;
    for (const std::unique_ptr<Worker> &W : Workers)
      Depths.push_back({W->Depth.load(), W->Peak.load()});
    drainAll();
    JsonValue Body = statsBody();
    if (!Conf.Engine.ScrubTimings) {
      JsonValue *Stats = Body.find("stats");
      JsonValue *Shards = Stats ? Stats->find("shards") : nullptr;
      for (size_t I = 0; Shards && I != Shards->size(); ++I) {
        Shards->at(I).set("queue_depth", Depths[I][0]);
        Shards->at(I).set("queue_peak", Depths[I][1]);
      }
    }
    pushEnvelope(St, Seq, Id, std::move(Body));
    break;
  }
  case ServiceRequest::Kind::FlushCache: {
    drainAll();
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
    drainAll();
    JsonValue Body = JsonValue::object();
    Body.set("status", "ok");
    Body.set("persisted", uint64_t(shutdownFlush()));
    pushEnvelope(St, Seq, Id, std::move(Body));
    return true;
  }
  }
  return false;
}

void ShardedService::finishStream(Stream &St) {
  drainAll();
  St.Results.close();
}

unsigned ShardedService::shutdownFlush(size_t *Dropped) {
  unsigned Persisted = 0;
  for (const std::unique_ptr<Worker> &W : Workers)
    Persisted += W->Engine->shutdownFlush(Dropped);
  return Persisted;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

JsonValue ShardedService::statsBody() {
  // Aggregate counters first (the dispatcher's own plus every shard's),
  // then the per-shard breakdown the capacity-planning docs read, then
  // the shared store's counters — each walks its stats table.
  std::vector<ServiceEngine::Counts> Snaps;
  for (const std::unique_ptr<Worker> &W : Workers)
    Snaps.push_back(W->Engine->snapshot());

  JsonValue Stats = JsonValue::object();
  for (unsigned F = 0; F != ServiceEngine::NumStats; ++F) {
    uint64_t Sum = Counters[F].load();
    for (const ServiceEngine::Counts &S : Snaps)
      Sum += S[F];
    Stats.set(ServiceEngine::StatFields[F].Key, Sum);
  }

  JsonValue Shards = JsonValue::array();
  for (size_t I = 0; I != Snaps.size(); ++I) {
    JsonValue Entry = JsonValue::object();
    Entry.set("shard", uint64_t(I));
    for (unsigned F = 0; F != ServiceEngine::NumStats; ++F)
      if (ServiceEngine::StatFields[F].PerShard)
        Entry.set(ServiceEngine::StatFields[F].Key, Snaps[I][F]);
    // Live gauges; the stats handler overwrites them with its
    // pre-barrier sample unless timings are scrubbed (they are the only
    // timing-dependent stats fields).
    Entry.set("queue_depth", uint64_t(0));
    Entry.set("queue_peak", uint64_t(0));
    Shards.push(std::move(Entry));
  }
  Stats.set("shards", std::move(Shards));

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
