//===- tests/ServiceDispatcherTests.cpp - service dispatcher tests --------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The service dispatcher (docs/SCALING.md): session keys, the
// shared content-addressed store that lets any engine warm-start any
// session, the bounded reorder buffer, overload backpressure, and the
// headline contract — the response stream is byte-identical across job
// counts.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/ServiceDispatcher.h"
#include "core/ServiceEngine.h"
#include "support/BoundedQueue.h"
#include "support/ContentStore.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

using namespace ipcp;
using test::runLines;

namespace {

ServiceEngine::Config engineConfig() {
  ServiceEngine::Config Conf;
  Conf.ScrubTimings = true;
  Conf.SuiteResolver = [](const std::string &Name, std::string &Out) {
    const SuiteProgram *Prog = findSuiteProgram(Name);
    if (!Prog)
      return false;
    Out = Prog->Source;
    return true;
  };
  return Conf;
}

ServiceDispatcher::Config serviceConfig(unsigned Jobs) {
  ServiceDispatcher::Config Conf;
  Conf.Jobs = Jobs;
  Conf.Engine = engineConfig();
  return Conf;
}

uint64_t reportCounter(const JsonValue &Body, const char *Name) {
  const JsonValue *Report = Body.find("report");
  if (!Report)
    return ~0ull;
  const JsonValue *Result = Report->find("result");
  if (!Result)
    return ~0ull;
  const JsonValue *Counters = Result->find("counters");
  if (!Counters)
    return ~0ull;
  const JsonValue *C = Counters->find(Name);
  return C ? uint64_t(C->asInt()) : 0;
}

TEST(ContentStoreTest, RoundTripDedupAndRebind) {
  std::string Dir = ::testing::TempDir() + "ipcp-content-store";
  std::filesystem::remove_all(Dir);
  ContentStore Store(Dir);

  std::string Key = Store.put("hello summaries");
  ASSERT_FALSE(Key.empty());
  EXPECT_EQ(Key, ContentStore::contentKey("hello summaries"));
  // Same bytes again: the object already exists, no second write.
  EXPECT_EQ(Store.put("hello summaries"), Key);
  EXPECT_EQ(Store.stats()[ContentStore::ObjectsWritten], 1u);
  EXPECT_EQ(Store.stats()[ContentStore::DedupHits], 1u);

  EXPECT_TRUE(Store.bind("prog\nopts", Key));
  std::string Bytes;
  ASSERT_EQ(Store.get("prog\nopts", Bytes), ContentStore::Lookup::Found);
  EXPECT_EQ(Bytes, "hello summaries");

  // Rebinding moves the name to the new object; the old object remains.
  std::string Key2 = Store.putNamed("prog\nopts", "v2 bytes");
  ASSERT_FALSE(Key2.empty());
  ASSERT_EQ(Store.get("prog\nopts", Bytes), ContentStore::Lookup::Found);
  EXPECT_EQ(Bytes, "v2 bytes");
  EXPECT_TRUE(std::filesystem::exists(Store.objectPath(Key)));

  // Unknown names are misses, not errors.
  EXPECT_EQ(Store.get("no-such-name", Bytes), ContentStore::Lookup::Missing);
  EXPECT_GE(Store.stats()[ContentStore::Misses], 1u);
  std::filesystem::remove_all(Dir);
}

TEST(ContentStoreTest, DetectsCorruptObjects) {
  std::string Dir = ::testing::TempDir() + "ipcp-content-store-rot";
  std::filesystem::remove_all(Dir);
  ContentStore Store(Dir);
  std::string Key = Store.putNamed("name", "precious bytes");
  ASSERT_FALSE(Key.empty());

  // Flip the blob on disk; the read must fail verification, not return
  // the rotten bytes.
  {
    std::ofstream Out(Store.objectPath(Key), std::ios::binary);
    Out << "precious bytez";
  }
  std::string Bytes;
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Rejected);
  EXPECT_EQ(Store.stats()[ContentStore::IntegrityFailures], 1u);
  // The failed read moved the rotten object aside, as the scrub would...
  EXPECT_EQ(Store.stats()[ContentStore::Quarantined], 1u);
  EXPECT_TRUE(std::filesystem::exists(Store.quarantinePath(Key + ".blob")));
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Missing);
  // ...so putting the same bytes again writes the object instead of
  // counting a dedup hit, and the name reads back.
  EXPECT_EQ(Store.putNamed("name", "precious bytes"), Key);
  EXPECT_EQ(Store.stats()[ContentStore::ObjectsWritten], 2u);
  EXPECT_EQ(Store.stats()[ContentStore::DedupHits], 0u);
  ASSERT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Found);
  EXPECT_EQ(Bytes, "precious bytes");
  std::filesystem::remove_all(Dir);
}

TEST(ContentStoreTest, OversizedObjectIsRejectedUnread) {
  std::string Dir = ::testing::TempDir() + "ipcp-content-store-oversized";
  std::filesystem::remove_all(Dir);
  ContentStore Store(Dir);
  // A sparse object one byte over the bound, named by the key of its
  // (all-zero) bytes: reading and hashing it would verify, so only the
  // size check can refuse it.
  std::string Key = ContentStore::contentKey(
      std::string(ContentStore::MaxObjectBytes + 1, '\0'));
  std::filesystem::create_directories(Dir + "/objects");
  std::ofstream(Store.objectPath(Key)).close();
  std::filesystem::resize_file(Store.objectPath(Key),
                               ContentStore::MaxObjectBytes + 1);
  ASSERT_TRUE(Store.bind("name", Key));
  std::string Bytes;
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Rejected);
  EXPECT_TRUE(Bytes.empty());
  EXPECT_EQ(Store.stats()[ContentStore::IntegrityFailures], 1u);
  std::filesystem::remove_all(Dir);
}

TEST(OrderedResultQueueTest, BoundBlocksOutOfOrderButNeverInOrder) {
  OrderedResultQueue<std::string> Q(/*MaxBuffered=*/1);
  // One out-of-order entry fits the bound...
  Q.push(1, "b");
  // ...a second would block, but the in-order entry is always admitted.
  Q.push(0, "a");
  std::thread Blocked([&] { Q.push(2, "c"); });
  std::string Out;
  ASSERT_TRUE(Q.pop(Out));
  EXPECT_EQ(Out, "a");
  ASSERT_TRUE(Q.pop(Out));
  EXPECT_EQ(Out, "b");
  Blocked.join(); // the pops freed the buffer
  ASSERT_TRUE(Q.pop(Out));
  EXPECT_EQ(Out, "c");
  Q.close();
  EXPECT_FALSE(Q.pop(Out));
  EXPECT_LE(Q.peakBuffered(), 2u);
}

TEST(CacheBucketTest, SessionAffinityIsStableAndCoversBuckets) {
  // Property: the session key of a request — what names its resident
  // cache — is a pure function of the request: the same request gives
  // the same key on every call, and distinct sessions give distinct
  // keys.
  std::set<std::string> Keys;
  for (int I = 0; I != 200; ++I) {
    ServiceRequest Req;
    Req.Suite = Req.Name = "simple";
    Req.Session = "sess-" + std::to_string(I);
    std::string Key = ServiceEngine::sessionKeyFor(Req);
    ASSERT_FALSE(Key.empty());
    EXPECT_EQ(Key, ServiceEngine::sessionKeyFor(Req));
    Keys.insert(Key);
  }
  EXPECT_EQ(Keys.size(), 200u);

  // Requests that use no session cache have no session key.
  ServiceRequest Cold;
  Cold.Suite = Cold.Name = "simple";
  EXPECT_TRUE(ServiceEngine::sessionKeyFor(Cold).empty());
  ServiceRequest Complete;
  Complete.Suite = Complete.Name = "simple";
  Complete.Session = "s";
  Complete.Complete = true;
  EXPECT_TRUE(ServiceEngine::sessionKeyFor(Complete).empty());
}

TEST(ServiceDispatcherTest, SecondEngineWarmStartsFromSharedStore) {
  // Engine A analyzes and persists; engine B — its own resident cache
  // but the same content-addressed store, like a restarted daemon —
  // must warm-start the same program with zero jump-function
  // evaluations.
  std::string Dir = ::testing::TempDir() + "ipcp-shared-store-warm";
  std::filesystem::remove_all(Dir);
  auto Store = std::make_shared<ContentStore>(Dir);

  ServiceEngine::Config ConfA = engineConfig();
  ConfA.Store = Store;
  ServiceEngine A(ConfA);
  ServiceRequest Req;
  Req.Suite = Req.Name = "simple";
  Req.Session = "on-engine-a";
  JsonValue Cold = A.analyze(Req);
  EXPECT_GT(reportCounter(Cold, "prop_evaluations"), 0u);
  EXPECT_EQ(A.shutdownFlush(), 1u);

  ServiceEngine::Config ConfB = engineConfig();
  ConfB.Store = Store;
  ServiceEngine B(ConfB);
  Req.Session = "on-engine-b"; // different session, same logical name
  JsonValue Warm = B.analyze(Req);
  EXPECT_EQ(reportCounter(Warm, "prop_evaluations"), 0u);
  EXPECT_EQ(B.snapshot()[ServiceEngine::DiskLoads], 1u);
  EXPECT_GE(Store->stats()[ContentStore::Loads], 1u);
  std::filesystem::remove_all(Dir);
}

TEST(ServiceDispatcherTest, ResponsesIdenticalAcrossJobCounts) {
  ServiceLogConfig Log;
  Log.Seed = 17;
  Log.Requests = 60;
  Log.SessionCount = 5;
  Log.Suites = {"simple", "qcd"};
  Log.EndWithStats = false;
  Log.EndWithShutdown = false;
  std::vector<std::string> Lines = generateServiceLog(Log);

  ServiceDispatcher One(serviceConfig(1));
  ServiceDispatcher Four(serviceConfig(4));
  std::vector<std::string> A = runLines(One, Lines);
  std::vector<std::string> B = runLines(Four, Lines);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << "response " << I << " diverged across jobs";
}

TEST(ServiceDispatcherTest, ContextsEngineIdenticalAcrossJobCounts) {
  // The contexts engine is deterministic end to end: the same
  // engine=contexts request stream must produce byte-identical
  // responses at one job and four, each echoing the engine and
  // carrying the context_study block (docs/CONTEXTS.md). CI's
  // contexts-smoke job repeats this through the socket daemon.
  std::vector<std::string> Lines;
  const char *Suites[] = {"simple", "qcd", "trfd", "mdg"};
  for (unsigned I = 0; I != 24; ++I)
    Lines.push_back(std::string("{\"op\":\"analyze\",\"id\":\"c") +
                    std::to_string(I) + "\",\"session\":\"s" +
                    std::to_string(I % 5) + "\",\"suite\":\"" +
                    Suites[I % 4] +
                    "\",\"options\":{\"engine\":\"contexts\"}}");

  ServiceDispatcher One(serviceConfig(1));
  ServiceDispatcher Four(serviceConfig(4));
  std::vector<std::string> A = runLines(One, Lines);
  std::vector<std::string> B = runLines(Four, Lines);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I], B[I]) << "contexts response " << I
                          << " diverged across jobs";
    EXPECT_NE(A[I].find("\"engine\":\"contexts\""), std::string::npos);
    EXPECT_NE(A[I].find("\"context_study\""), std::string::npos);
  }
}

TEST(ServiceDispatcherTest, EvictionPointsAreJobCountInvariant) {
  // Force heavy eviction (one resident session): the warm/cold
  // sequence — and with it every response byte — must still be
  // identical whether one worker runs every analysis or four run them
  // side by side, both memory-only and with a write-behind store.
  ServiceLogConfig Log;
  Log.Seed = 23;
  Log.Requests = 80;
  Log.SessionCount = 12;
  Log.Suites = {"simple", "qcd"};
  Log.EndWithStats = false;
  Log.EndWithShutdown = false;
  std::vector<std::string> Lines = generateServiceLog(Log);

  auto Run = [&](unsigned Jobs, const std::string &Dir) {
    ServiceDispatcher::Config Conf = serviceConfig(Jobs);
    Conf.Engine.MaxSessions = 1;
    if (!Dir.empty())
      Conf.Engine.Store = std::make_shared<ContentStore>(Dir);
    ServiceDispatcher Svc(Conf);
    std::vector<std::string> Out = runLines(Svc, Lines);
    Svc.shutdownFlush();
    return Out;
  };

  std::vector<std::string> A = Run(1, "");
  std::vector<std::string> B = Run(4, "");
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << "memory-only response " << I
                          << " diverged across jobs under eviction";

  std::string D1 = ::testing::TempDir() + "ipcp-evict-inv-1";
  std::string D4 = ::testing::TempDir() + "ipcp-evict-inv-4";
  std::filesystem::remove_all(D1);
  std::filesystem::remove_all(D4);
  std::vector<std::string> C = Run(1, D1);
  std::vector<std::string> D = Run(4, D4);
  ASSERT_EQ(C.size(), D.size());
  for (size_t I = 0; I != C.size(); ++I)
    EXPECT_EQ(C[I], D[I]) << "store-backed response " << I
                          << " diverged across jobs under eviction";
  std::filesystem::remove_all(D1);
  std::filesystem::remove_all(D4);
}

TEST(ServiceDispatcherTest, OverloadAnswersEveryLineInOrderWithBoundedBusy) {
  // Queue limit zero: every analyze is rejected `busy`, deterministically
  // and in submission order, and nothing leaks or reorders.
  ServiceDispatcher::Config Conf = serviceConfig(4);
  Conf.QueueLimit = 0;
  ServiceDispatcher Svc(Conf);

  std::vector<std::string> Lines;
  for (int I = 0; I != 40; ++I)
    Lines.push_back(R"({"op":"analyze","id":"r)" + std::to_string(I) +
                    R"(","suite":"simple","session":"s)" +
                    std::to_string(I % 4) + R"("})");
  std::vector<std::string> Out = runLines(Svc, Lines);
  ASSERT_EQ(Out.size(), Lines.size());
  for (size_t I = 0; I != Out.size(); ++I) {
    EXPECT_NE(Out[I].find("\"status\":\"busy\""), std::string::npos);
    EXPECT_NE(Out[I].find("\"id\":\"r" + std::to_string(I) + "\""),
              std::string::npos)
        << "response " << I << " out of order";
  }

  // The stats barrier reports the rejections and the queue gauges.
  std::vector<std::string> Stats =
      runLines(Svc, {R"({"op":"stats","id":"s"})"});
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_NE(Stats[0].find("\"busy_rejections\":40"), std::string::npos);
  EXPECT_NE(Stats[0].find("\"queue_peak\":"), std::string::npos);
}

TEST(ServiceDispatcherTest, StatsEntryEqualsAggregates) {
  ServiceDispatcher Svc(serviceConfig(4));
  std::vector<std::string> Lines;
  for (int I = 0; I != 12; ++I)
    Lines.push_back(R"({"op":"analyze","id":"r)" + std::to_string(I) +
                    R"(","suite":"simple","session":"s)" +
                    std::to_string(I) + R"("})");
  // A warm repeat (cache and warm-hit counters), a batch (the
  // dispatcher's own counter) and an unknown suite (an error).
  Lines.push_back(R"({"op":"analyze","suite":"simple","session":"s0"})");
  Lines.push_back(R"({"op":"analyze-batch","requests":[)"
                  R"({"op":"analyze","suite":"qcd","session":"s1"},)"
                  R"({"op":"analyze","suite":"no-such-suite"}]})");
  Lines.push_back(R"({"op":"stats","id":"st"})");
  std::vector<std::string> Out = runLines(Svc, Lines);
  ASSERT_EQ(Out.size(), Lines.size());

  std::string Error;
  std::optional<JsonValue> Parsed = JsonValue::parse(Out.back(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  JsonValue &Stats = *Parsed;
  const JsonValue *Body = Stats.find("stats");
  ASSERT_NE(Body, nullptr);
  EXPECT_EQ(Body->find("analyze_requests")->asInt(), 15);
  EXPECT_EQ(Body->find("batches")->asInt(), 1);
  EXPECT_EQ(Body->find("errors")->asInt(), 1);
  EXPECT_EQ(Body->find("sessions_resident")->asInt(), 13);
  EXPECT_EQ(Body->find("warm_hits")->asInt(), 1);
  // One flat body: the stats table's rows, then `store`, and nothing
  // else — no `shards` member — with the queue gauges right after
  // `disk_loads`.
  std::vector<std::string> Keys;
  for (const auto &[Key, Val] : Body->members())
    Keys.push_back(Key);
  std::vector<std::string> Expected(std::begin(ServiceEngine::StatKeys),
                                    std::end(ServiceEngine::StatKeys));
  Expected.push_back("store");
  EXPECT_EQ(Keys, Expected);
  size_t Disk =
      std::find(Keys.begin(), Keys.end(), "disk_loads") - Keys.begin();
  ASSERT_LT(Disk + 2, Keys.size());
  EXPECT_EQ(Keys[Disk + 1], "queue_depth");
  EXPECT_EQ(Keys[Disk + 2], "queue_peak");
}

TEST(ServiceDispatcherTest, OversizeBatchIsABadRequestNotBusy) {
  // A batch with more items than the queue limit can never be admitted:
  // one non-retryable bad-request naming both numbers. A batch that fits
  // is admitted; limit 0 keeps answering busy.
  ServiceDispatcher::Config Conf = serviceConfig(4);
  Conf.QueueLimit = 2;
  ServiceDispatcher Svc(Conf);
  std::string Three = R"({"op":"analyze-batch","id":"b3","requests":[)"
                      R"({"op":"analyze","suite":"simple"},)"
                      R"({"op":"analyze","suite":"qcd"},)"
                      R"({"op":"analyze","suite":"trfd"}]})";
  std::string Two = R"({"op":"analyze-batch","id":"b2","requests":[)"
                    R"({"op":"analyze","suite":"simple"},)"
                    R"({"op":"analyze","suite":"qcd"}]})";
  std::vector<std::string> Out =
      runLines(Svc, {Three, Two, R"({"op":"stats"})"});
  ASSERT_EQ(Out.size(), 3u);
  std::optional<JsonValue> Rejected = JsonValue::parse(Out[0]);
  ASSERT_TRUE(Rejected.has_value());
  EXPECT_EQ(Rejected->find("id")->asString(), "b3");
  EXPECT_EQ(Rejected->find("status")->asString(), "error");
  const JsonValue *Err = Rejected->find("error");
  ASSERT_NE(Err, nullptr);
  EXPECT_EQ(Err->find("code")->asString(), "bad-request");
  EXPECT_FALSE(Err->find("retryable")->asBool());
  EXPECT_NE(Err->find("message")->asString().find("3 items"),
            std::string::npos);
  EXPECT_NE(Err->find("message")->asString().find("queue limit of 2"),
            std::string::npos);
  EXPECT_NE(Out[1].find("\"responses\":["), std::string::npos);
  EXPECT_NE(Out[2].find("\"busy_rejections\":0"), std::string::npos);
  EXPECT_NE(Out[2].find("\"batches\":1"), std::string::npos);

  ServiceDispatcher::Config Closed = serviceConfig(1);
  Closed.QueueLimit = 0;
  ServiceDispatcher AlwaysBusy(Closed);
  std::vector<std::string> Busy = runLines(AlwaysBusy, {Three});
  ASSERT_EQ(Busy.size(), 1u);
  EXPECT_NE(Busy[0].find("\"status\":\"busy\""), std::string::npos);
}

TEST(ServiceWorkloadTest, StreamMatchesMaterializedLog) {
  ServiceLogConfig Log;
  Log.Seed = 5;
  Log.Requests = 30;
  Log.SessionCount = 4;
  std::vector<std::string> Whole = generateServiceLog(Log);
  ServiceLogStream Stream(Log);
  std::vector<std::string> Streamed;
  std::string Line;
  while (Stream.next(Line))
    Streamed.push_back(Line);
  EXPECT_EQ(Whole, Streamed);

  // Multi-session logs actually spread across sessions.
  std::set<std::string> Sessions;
  for (const std::string &L : Whole) {
    size_t Pos = L.find("\"session\":\"");
    if (Pos != std::string::npos) {
      size_t End = L.find('"', Pos + 11);
      Sessions.insert(L.substr(Pos + 11, End - Pos - 11));
    }
  }
  EXPECT_GT(Sessions.size(), 1u);
}

} // namespace
