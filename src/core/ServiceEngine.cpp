//===- core/ServiceEngine.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/ServiceEngine.h"

#include "support/FaultInjection.h"
#include "support/StableHash.h"

#include <algorithm>
#include <condition_variable>
#include <stdexcept>

using namespace ipcp;

//===----------------------------------------------------------------------===//
// Request codec
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *ErrorCode, std::string *Error, const char *Code,
          std::string Message) {
  if (ErrorCode)
    *ErrorCode = Code;
  if (Error)
    *Error = std::move(Message);
  return false;
}

/// Reads an optional boolean member; type mismatch is a request error.
bool readBool(const JsonValue &Obj, const char *Key, bool &Out,
              std::string *Error) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isBool()) {
    *Error = std::string("'") + Key + "' must be a boolean";
    return false;
  }
  Out = V->asBool();
  return true;
}

/// Reads an optional string member.
bool readString(const JsonValue &Obj, const char *Key, std::string &Out,
                std::string *Error) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isString()) {
    *Error = std::string("'") + Key + "' must be a string";
    return false;
  }
  Out = V->asString();
  return true;
}

/// Effective value of one budget: the request overrides the server
/// default, but a server-configured (non-zero) budget is a ceiling the
/// request cannot raise or disable.
uint64_t mergeLimit(uint64_t Server, uint64_t Request) {
  if (Server != 0 && (Request == 0 || Request > Server))
    return Server;
  return Request;
}

} // namespace

ServiceEngine::ServiceEngine(Config C) : Conf(std::move(C)) {}

ServiceEngine::~ServiceEngine() { shutdownFlush(); }

/// Parses the analyze-specific fields of \p Obj into \p Req.
static bool parseAnalyzeFields(const JsonValue &Obj,
                               const ServiceEngine::Config &Conf,
                               ServiceRequest &Req, std::string *Error) {
  if (!readString(Obj, "source", Req.Source, Error) ||
      !readString(Obj, "suite", Req.Suite, Error) ||
      !readString(Obj, "name", Req.Name, Error) ||
      !readString(Obj, "session", Req.Session, Error) ||
      !readBool(Obj, "complete", Req.Complete, Error) ||
      !readBool(Obj, "scrub_timings", Req.ScrubTimings, Error))
    return false;
  bool HasSource = Obj.find("source") != nullptr;
  bool HasSuite = Obj.find("suite") != nullptr;
  if (HasSource == HasSuite) {
    *Error = std::string(Req.Optimize ? "an optimize" : "an analyze") +
             " request needs exactly one of 'source' or 'suite'";
    return false;
  }
  if (HasSuite && Req.Suite.empty()) {
    *Error = "'suite' must name a suite program";
    return false;
  }
  if (Req.Name.empty())
    Req.Name = HasSuite ? Req.Suite : "<request>";

  Req.Opts = IPCPOptions();
  Req.Opts.Limits = Conf.DefaultLimits;
  if (!applyRequestOptions(Obj, Req.Opts, mergeLimit, Error))
    return false;
  if (const JsonValue *Passes = Obj.find("passes")) {
    if (!Passes->isString()) {
      *Error = "'passes' must be a string";
      return false;
    }
    if (!parsePassSpec(Passes->asString(), Req.Passes, Error))
      return false;
  }
  return true;
}

/// Request keys valid for each operation; anything else is rejected.
/// Optimize shares Kind::Analyze but has its own key set: no 'session'
/// or 'complete' (optimization mutates the module, so neither the
/// session cache nor the complete-propagation mode composes with it),
/// plus the pass selector 'passes'.
static bool checkKnownKeys(const JsonValue &Obj, const ServiceRequest &Req,
                           std::string *Error) {
  static const char *const AnalyzeKeys[] = {
      "op",      "id",       "source", "suite",         "name",
      "session", "complete", "limits", "scrub_timings", "options"};
  static const char *const OptimizeKeys[] = {
      "op",     "id",            "source",  "suite", "name",
      "limits", "scrub_timings", "options", "passes"};
  static const char *const BatchKeys[] = {"op", "id", "requests"};
  static const char *const ControlKeys[] = {"op", "id"};
  ServiceRequest::Kind Op = Req.Op;
  const char *const *Begin = ControlKeys, *const *End = std::end(ControlKeys);
  if (Op == ServiceRequest::Kind::Analyze && Req.Optimize) {
    Begin = OptimizeKeys;
    End = std::end(OptimizeKeys);
  } else if (Op == ServiceRequest::Kind::Analyze) {
    Begin = AnalyzeKeys;
    End = std::end(AnalyzeKeys);
  } else if (Op == ServiceRequest::Kind::AnalyzeBatch) {
    Begin = BatchKeys;
    End = std::end(BatchKeys);
  }
  for (const auto &[Key, Val] : Obj.members()) {
    if (std::find_if(Begin, End,
                     [&](const char *K) { return Key == K; }) == End) {
      *Error = "unknown request key '" + Key + "'";
      return false;
    }
  }
  return true;
}

bool ServiceEngine::parseRequestLine(const std::string &Line,
                                     ServiceRequest &Req,
                                     std::string *ErrorCode,
                                     std::string *Error) const {
  std::string ParseError;
  std::optional<JsonValue> Doc = JsonValue::parse(Line, &ParseError);
  if (!Doc)
    return fail(ErrorCode, Error, "bad-json", ParseError);
  if (!Doc->isObject())
    return fail(ErrorCode, Error, "bad-request", "request must be an object");

  Req = ServiceRequest();
  if (const JsonValue *Id = Doc->find("id")) {
    Req.Id = *Id;
    Req.HasId = true;
  }
  const JsonValue *Op = Doc->find("op");
  if (!Op || !Op->isString())
    return fail(ErrorCode, Error, "bad-request",
                "request needs a string 'op'");
  const std::string &Name = Op->asString();
  if (Name == "analyze")
    Req.Op = ServiceRequest::Kind::Analyze;
  else if (Name == "optimize") {
    Req.Op = ServiceRequest::Kind::Analyze;
    Req.Optimize = true;
  } else if (Name == "analyze-batch")
    Req.Op = ServiceRequest::Kind::AnalyzeBatch;
  else if (Name == "stats")
    Req.Op = ServiceRequest::Kind::Stats;
  else if (Name == "flush-cache")
    Req.Op = ServiceRequest::Kind::FlushCache;
  else if (Name == "shutdown")
    Req.Op = ServiceRequest::Kind::Shutdown;
  else
    return fail(ErrorCode, Error, "bad-request",
                "unknown op '" + Name + "'");

  std::string FieldError;
  if (!checkKnownKeys(*Doc, Req, &FieldError))
    return fail(ErrorCode, Error, "bad-request", FieldError);

  if (Req.Op == ServiceRequest::Kind::Analyze) {
    if (!parseAnalyzeFields(*Doc, Conf, Req, &FieldError))
      return fail(ErrorCode, Error, "bad-request", FieldError);
    return true;
  }
  if (Req.Op == ServiceRequest::Kind::AnalyzeBatch) {
    const JsonValue *Items = Doc->find("requests");
    if (!Items || !Items->isArray())
      return fail(ErrorCode, Error, "bad-request",
                  "'analyze-batch' needs a 'requests' array");
    if (Items->size() == 0)
      return fail(ErrorCode, Error, "bad-request",
                  "'requests' must not be empty");
    for (size_t I = 0; I != Items->size(); ++I) {
      const JsonValue &Item = Items->at(I);
      if (!Item.isObject())
        return fail(ErrorCode, Error, "bad-request",
                    "batch item " + std::to_string(I) +
                        " must be an object");
      if (const JsonValue *ItemOp = Item.find("op"))
        if (!ItemOp->isString() || ItemOp->asString() != "analyze")
          return fail(ErrorCode, Error, "bad-request",
                      "batch item " + std::to_string(I) +
                          " may only be an analyze request");
      ServiceRequest Sub;
      Sub.Op = ServiceRequest::Kind::Analyze;
      if (const JsonValue *Id = Item.find("id")) {
        Sub.Id = *Id;
        Sub.HasId = true;
      }
      if (!checkKnownKeys(Item, Sub, &FieldError) ||
          !parseAnalyzeFields(Item, Conf, Sub, &FieldError))
        return fail(ErrorCode, Error, "bad-request",
                    "batch item " + std::to_string(I) + ": " + FieldError);
      Req.Batch.push_back(std::move(Sub));
    }
    return true;
  }
  return true; // stats / flush-cache / shutdown carry no other fields
}

//===----------------------------------------------------------------------===//
// Sessions: resident caches with LRU eviction and a write-behind tier
//===----------------------------------------------------------------------===//

struct ServiceEngine::SessionState {
  SummaryCache Cache;
  std::mutex Lock; ///< serializes analyses sharing this session
  unsigned Bucket = 0; ///< fixed eviction domain, bucketFor(key)
  uint64_t LastUse = 0;
  bool Dirty = false; ///< committed entries not yet persisted
  /// The source name and options the session key fixes: what load and
  /// save name the session's summaries by.
  std::string SourceName;
  IPCPOptions Opts;

  /// Ticket turnstile: turns are issued (NextTicket) in request arrival
  /// order and served (NowServing) strictly in that order, so the warm/
  /// cold sequence of a session is independent of pool scheduling.
  /// Atomics so the eviction scan can read them without taking Lock.
  std::atomic<uint64_t> NextTicket{0};
  std::atomic<uint64_t> NowServing{0};
  std::condition_variable TurnReady;
};

namespace {

/// Consumes one session turn on scope exit. Destroyed while the session
/// lock is still held (declared after the unique_lock), so the serving
/// counter advances before the lock releases.
struct TurnFinisher {
  std::shared_ptr<ServiceEngine::SessionState> S;
  ~TurnFinisher();
};

TurnFinisher::~TurnFinisher() {
  if (!S)
    return;
  S->NowServing.fetch_add(1);
  S->TurnReady.notify_all();
}

} // namespace

std::string ServiceEngine::sessionKeyFor(const ServiceRequest &Req) {
  // Distinct options must never share a cache: summaries are only valid
  // under the configuration that produced them, so the fingerprint is
  // part of the resident key (exactly as it is part of the store's
  // logical names).
  if (Req.Op != ServiceRequest::Kind::Analyze || Req.Session.empty() ||
      !Req.usesCache())
    return std::string();
  return Req.Session + '\x1f' + Req.Name + '\x1f' +
         SummaryCache::optionsFingerprint(Req.Opts);
}

unsigned ServiceEngine::bucketFor(const std::string &SessionKey) {
  return unsigned(stableHashBytes(SessionKey) % CacheBuckets);
}

ServiceEngine::SessionTurn
ServiceEngine::acquireSession(const ServiceRequest &Req,
                              const std::string &Key) {
  SessionTurn Turn;
  bool Fresh = false;
  std::vector<std::shared_ptr<SessionState>> Evicted;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    std::shared_ptr<SessionState> &Slot = Sessions[Key];
    if (!Slot) {
      Slot = std::make_shared<SessionState>();
      Slot->Bucket = bucketFor(Key);
      Slot->SourceName = Req.Name;
      Slot->Opts = Req.Opts;
      Fresh = true;
    }
    Slot->LastUse = ++UseCounter;
    Turn.S = Slot;
    Turn.Ticket = Turn.S->NextTicket.fetch_add(1);
    evictOverflowSessions(Turn.S->Bucket, Evicted);
  }
  // Persist evicted sessions outside the map lock: saving can do disk
  // I/O and must wait for every turn the session has already been
  // issued. Draining (rather than skipping busy victims) keeps the
  // eviction point a function of the request stream, not of whether the
  // pool happened to finish the victim's work yet.
  for (const std::shared_ptr<SessionState> &E : Evicted) {
    std::unique_lock<std::mutex> Lock(E->Lock);
    E->TurnReady.wait(Lock, [&] {
      return E->NextTicket.load() == E->NowServing.load();
    });
    bump(SessionEvictions);
    persistSession(*E);
  }
  // Consult the write-behind tier here, on the ordering thread, after
  // this acquire's evictions persisted: the store is read at a stream-
  // determined point, so whether a fresh session starts warm never
  // depends on when the pool schedules its first analysis.
  if (Fresh && Conf.Store &&
      Turn.S->Cache.load(*Conf.Store, Req.Name, Req.Opts))
    bump(DiskLoads);
  return Turn;
}

void ServiceEngine::evictOverflowSessions(
    unsigned Bucket, std::vector<std::shared_ptr<SessionState>> &Out) {
  // Caller holds SessionsMutex. Eviction is scoped to one fixed hash
  // bucket and is strict LRU within it: LastUse orders acquires, which
  // follow the request stream, so the set of evictions after any stream
  // prefix is the same at every jobs setting. The just-acquired session
  // has the highest LastUse and is never the victim while another
  // resident shares its bucket; busy victims are drained by the caller,
  // not skipped.
  unsigned Cap = Conf.MaxSessions ? Conf.MaxSessions : 1;
  for (;;) {
    size_t Resident = 0;
    auto Victim = Sessions.end();
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It) {
      if (It->second->Bucket != Bucket)
        continue;
      ++Resident;
      if (Victim == Sessions.end() ||
          It->second->LastUse < Victim->second->LastUse)
        Victim = It;
    }
    if (Resident <= Cap)
      return;
    Out.push_back(Victim->second);
    Sessions.erase(Victim);
  }
}

unsigned ServiceEngine::persistSession(SessionState &S) {
  // Caller holds S.Lock. The serialized cache goes into the content
  // store under its bytes' own key; identical caches persisted by other
  // sessions dedupe to one object.
  if (!Conf.Store || !S.Dirty)
    return 0;
  if (S.Cache.save(*Conf.Store, S.SourceName, S.Opts))
    bump(WriteBehindSaves);
  else
    bump(WriteBehindFailures);
  S.Dirty = false;
  return 1;
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

JsonValue ServiceEngine::analyze(const ServiceRequest &Req) {
  return analyze(Req, reserveTurn(Req));
}

ServiceEngine::SessionTurn
ServiceEngine::reserveTurn(const ServiceRequest &Req) {
  std::string Key = sessionKeyFor(Req);
  return Key.empty() ? SessionTurn() : acquireSession(Req, Key);
}

JsonValue ServiceEngine::analyze(const ServiceRequest &Req, SessionTurn Turn) {
  bump(AnalyzeRequests);
  if (Req.Optimize)
    bump(OptimizeRequests);

  // Enter the session turn before doing anything observable: the warm/
  // cold order of a session is its ticket order, and even an erroring
  // request must consume its turn or the session wedges. TurnDone is
  // declared after SessionLock so it runs first on every return path,
  // advancing the turnstile while the lock is still held.
  std::shared_ptr<SessionState> Session = Turn.S;
  std::unique_lock<std::mutex> SessionLock;
  TurnFinisher TurnDone{Session};
  if (Session) {
    SessionLock = std::unique_lock<std::mutex>(Session->Lock);
    Session->TurnReady.wait(SessionLock, [&] {
      return Session->NowServing.load() == Turn.Ticket;
    });
  }

  // The failure boundary: whatever the pipeline throws becomes a
  // structured, retryable "internal" error response. Nothing below this
  // point marks the session dirty before its run committed, so an
  // aborted run is never persisted — a run changes the session's cache
  // only in its final commit, so the last committed state remains valid.
  // The turnstile and lock unwind normally, so the session keeps
  // serving.
  try {
    std::string Msg;
    if (faultInjector().shouldFail("service.analyze", &Msg))
      throw std::runtime_error(Msg);
    return analyzeLocked(Req, Session.get());
  } catch (const std::exception &E) {
    bump(Errors);
    bump(InternalErrors);
    JsonValue Body = JsonValue::object();
    Body.set("status", "error");
    Body.set("error", serviceErrorObject("internal", E.what()));
    return Body;
  } catch (...) {
    bump(Errors);
    bump(InternalErrors);
    JsonValue Body = JsonValue::object();
    Body.set("status", "error");
    Body.set("error", serviceErrorObject("internal", "unhandled exception"));
    return Body;
  }
}

JsonValue ServiceEngine::analyzeLocked(const ServiceRequest &Req,
                                       SessionState *Session) {
  JsonValue Body = JsonValue::object();
  // A suite request compiles the suite program's text; any other request
  // compiles its own, uncopied.
  std::string SuiteText;
  std::string_view SourceText = Req.Source;
  if (!Req.Suite.empty()) {
    if (!Conf.SuiteResolver || !Conf.SuiteResolver(Req.Suite, SuiteText)) {
      bump(Errors);
      Body.set("status", "error");
      Body.set("error", serviceErrorObject(
                            "unknown-suite",
                            "no suite program named '" + Req.Suite + "'"));
      return Body;
    }
    SourceText = SuiteText;
  }

  // A source error fails the request (driver exit code 3); a frontend
  // budget trip only degrades it (exit code 5), and the response still
  // carries a schema-valid, result-free report.
  RequestRun Run(Req);
  if (!Run.compile(SourceText) && !Run.Guard.tripped()) {
    bump(Errors);
    Body.set("status", "error");
    Body.set("error", serviceErrorObject("source-error", Run.Diags.str()));
    return Body;
  }
  if (Run.M) {
    // The write-behind tier was already consulted in acquireSession, on
    // the ordering thread — doing it here would read the store at a
    // scheduling-dependent moment and break byte determinism.
    Run.run(Session ? &Session->Cache : nullptr);
    if (Session) {
      if (Session->Cache.committed())
        Session->Dirty = true;
      const IPCPResult &R = *Run.Single; // sessions serve single analyses
      if (R.UsedCache) {
        bump(CacheHits, R.Stats.get(Counter::cache_hits));
        bump(CacheMisses, R.Stats.get(Counter::cache_misses));
        if (R.Stats.get(Counter::cache_hits) > 0)
          bump(WarmHits);
      }
    }
  }

  if (Run.Guard.tripped())
    bump(Degraded);
  Body.set("status", Run.Guard.tripped() ? "degraded" : "ok");
  Body.set("report", Run.report(Req.ScrubTimings || Conf.ScrubTimings));
  return Body;
}

const ServiceEngine::StatField ServiceEngine::StatFields[NumStats] = {
#define IPCP_SERVICE_STAT(Id, Key, InEntry) {Key, InEntry},
#include "core/ServiceStats.def"
#undef IPCP_SERVICE_STAT
};

ServiceEngine::Counts ServiceEngine::snapshot() const {
  Counts C;
  for (unsigned I = 0; I != NumStats; ++I)
    C[I] = Counters[I].load();
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  C[SessionsResident] = Sessions.size();
  return C;
}

unsigned ServiceEngine::shutdownFlush(size_t *DroppedOut) {
  std::unordered_map<std::string, std::shared_ptr<SessionState>> Dropped;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Dropped.swap(Sessions);
  }
  unsigned Persisted = 0;
  for (const auto &[Key, S] : Dropped) {
    std::lock_guard<std::mutex> Lock(S->Lock);
    Persisted += persistSession(*S);
  }
  if (DroppedOut)
    *DroppedOut += Dropped.size();
  return Persisted;
}
