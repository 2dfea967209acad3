//===- tests/FaultInjectionTests.cpp - chaos-hardening tests --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer (docs/ROBUSTNESS.md): the fault-plan grammar and
// its deterministic firing semantics, injection at the FileIO and
// ContentStore fault points (including the summary cache's load and save,
// which go through the store), torn-write recovery via the startup scrub
// (temp sweep, corrupt-object quarantine, dangling-ref drop), and the
// service failure boundary — injected analysis faults become structured
// retryable errors and never poison the session cache.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/ServiceDispatcher.h"
#include "core/ServiceEngine.h"
#include "core/SummaryCache.h"
#include "support/ContentStore.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

using namespace ipcp;

namespace {

/// Installs a plan on the process-wide injector for one test and always
/// clears it on exit — a leaked plan would fail every later test.
struct PlanGuard {
  explicit PlanGuard(const std::string &Spec) {
    std::string Error;
    Installed = faultInjector().installPlan(Spec, &Error);
    EXPECT_TRUE(Installed) << Error;
  }
  ~PlanGuard() { faultInjector().clear(); }
  bool Installed = false;
};

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

//===----------------------------------------------------------------------===//
// Plan grammar and firing semantics
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, GlobMatching) {
  EXPECT_TRUE(faultPatternMatches("store.write.object", "store.write.object"));
  EXPECT_TRUE(faultPatternMatches("store.write.*", "store.write.object"));
  EXPECT_TRUE(faultPatternMatches("store.*", "store.commit.ref"));
  EXPECT_TRUE(faultPatternMatches("*", "anything.at.all"));
  EXPECT_TRUE(faultPatternMatches("*.write.*", "store.write.ref"));
  EXPECT_FALSE(faultPatternMatches("store.write.*", "store.read.ref"));
  EXPECT_FALSE(faultPatternMatches("store.write", "store.write.object"));
  EXPECT_FALSE(faultPatternMatches("", "store.write.object"));
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::string Error;
  FaultInjector &FI = faultInjector();
  EXPECT_FALSE(FI.installPlan(":nth=1", &Error)); // empty pattern
  EXPECT_FALSE(FI.installPlan("a.b:bogus=1", &Error));
  EXPECT_FALSE(FI.installPlan("a.b:nth=x", &Error));
  EXPECT_FALSE(FI.installPlan("a.b:nth=0", &Error));
  EXPECT_FALSE(FI.installPlan("a.b:period=0", &Error));
  EXPECT_FALSE(FI.installPlan("a.b:nth", &Error));
  EXPECT_FALSE(FI.active()) << "a failed install must leave no plan";
  // An empty spec is a clear, not an error.
  EXPECT_TRUE(FI.installPlan("", &Error));
  EXPECT_FALSE(FI.active());
}

TEST(FaultPlanTest, NthFiresExactlyOnce) {
  PlanGuard Guard("p:nth=3");
  std::vector<bool> Fired;
  for (int I = 0; I != 6; ++I)
    Fired.push_back(faultInjector().shouldFail("p"));
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
}

TEST(FaultPlanTest, PeriodStartAndTimes) {
  {
    // Default start = period: fires at 3, 6, 9, ...
    PlanGuard Guard("p:period=3");
    std::vector<bool> Fired;
    for (int I = 0; I != 9; ++I)
      Fired.push_back(faultInjector().shouldFail("p"));
    EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                        true, false, false, true}));
  }
  {
    // Explicit start shifts the phase; times caps the injections.
    PlanGuard Guard("p:period=2:start=1:times=2");
    std::vector<bool> Fired;
    for (int I = 0; I != 8; ++I)
      Fired.push_back(faultInjector().shouldFail("p"));
    EXPECT_EQ(Fired, (std::vector<bool>{true, false, true, false, false,
                                        false, false, false}));
  }
  {
    // No keys: every matching operation fails.
    PlanGuard Guard("p");
    EXPECT_TRUE(faultInjector().shouldFail("p"));
    EXPECT_TRUE(faultInjector().shouldFail("p"));
    EXPECT_FALSE(faultInjector().shouldFail("q"));
  }
}

TEST(FaultPlanTest, RulesCountIndependentlyFirstFiringWins) {
  PlanGuard Guard("a.*:nth=2;*.x:nth=2");
  std::string Message;
  EXPECT_FALSE(faultInjector().shouldFail("a.x")); // match 1 for both
  EXPECT_TRUE(faultInjector().shouldFail("a.x", &Message));
  // Both rules hit their 2nd match; the first rule fires and is named.
  EXPECT_NE(Message.find("injected fault: a.x"), std::string::npos);
  EXPECT_NE(Message.find("a.*"), std::string::npos);
  // The second rule's match was still counted: its nth=2 chance is
  // spent, so a later *.x match does not fire it again.
  EXPECT_FALSE(faultInjector().shouldFail("b.x"));
  FaultInjector::Totals T = faultInjector().totals();
  EXPECT_EQ(T.Checked, 3u);
  EXPECT_EQ(T.Injected, 1u);
}

TEST(FaultPlanTest, ReplaySequencesAreIdentical) {
  auto run = [] {
    PlanGuard Guard("p.*:period=3;p.b:nth=5");
    std::vector<bool> Fired;
    const char *Points[] = {"p.a", "p.b", "p.a", "p.b", "p.b", "q",
                            "p.a", "p.b", "p.b", "p.a", "p.b", "p.a"};
    for (const char *Point : Points)
      Fired.push_back(faultInjector().shouldFail(Point));
    return Fired;
  };
  EXPECT_EQ(run(), run()) << "same plan + same op sequence must inject "
                             "at the same places";
}

TEST(FaultPlanTest, StatsJsonCountsRulesAndPoints) {
  PlanGuard Guard("p.*:period=2");
  faultInjector().shouldFail("p.a");
  faultInjector().shouldFail("p.b");
  faultInjector().shouldFail("p.b");
  faultInjector().shouldFail("p.b");
  JsonValue Stats = faultInjector().statsJson();
  EXPECT_EQ(Stats.find("plan")->asString(), "p.*:period=2");
  EXPECT_EQ(Stats.find("checked")->asInt(), 4);
  EXPECT_EQ(Stats.find("injected")->asInt(), 2);
  const JsonValue *Points = Stats.find("points");
  ASSERT_NE(Points, nullptr);
  ASSERT_NE(Points->find("p.b"), nullptr);
  EXPECT_EQ(Points->find("p.b")->asInt(), 2);
}

//===----------------------------------------------------------------------===//
// I/O layer injection
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, FileIOFaultsSurfaceAsErrors) {
  std::string Path = ::testing::TempDir() + "/ipcp_fault_fileio.txt";
  {
    PlanGuard Guard("fileio.write");
    std::string Error;
    EXPECT_FALSE(writeStringToFile(Path, "doomed", &Error));
    EXPECT_NE(Error.find("injected fault: fileio.write"), std::string::npos);
  }
  ASSERT_TRUE(writeStringToFile(Path, "survives"));
  {
    PlanGuard Guard("fileio.read:nth=1");
    std::string Out, Error;
    EXPECT_FALSE(readFileToString(Path, Out, &Error));
    // nth=1 is spent; the retry succeeds.
    EXPECT_TRUE(readFileToString(Path, Out, &Error));
    EXPECT_EQ(Out, "survives");
  }
  std::filesystem::remove(Path);
}

TEST(FaultInjectionTest, StoreWriteFaultFailsCleanly) {
  std::string Dir = freshDir("ipcp-fault-store-write");
  ContentStore Store(Dir);
  PlanGuard Guard("store.write.object");
  std::string Error;
  EXPECT_TRUE(Store.put("blocked bytes", &Error).empty());
  EXPECT_NE(Error.find("injected fault"), std::string::npos);
  EXPECT_GE(Store.stats()[ContentStore::Errors], 1u);
  // A write-point fault fails before the temp file exists: no litter.
  EXPECT_FALSE(std::filesystem::exists(Dir + "/objects") &&
               !std::filesystem::is_empty(Dir + "/objects"));
  std::filesystem::remove_all(Dir);
}

TEST(FaultInjectionTest, TornCommitLeavesTmpAndScrubSweeps) {
  std::string Dir = freshDir("ipcp-fault-store-torn");
  ContentStore Store(Dir);
  ASSERT_FALSE(Store.putNamed("name", "good bytes").empty());
  {
    // The commit point fires after the temp write, before the rename —
    // a simulated crash mid-commit.
    PlanGuard Guard("store.commit.object");
    EXPECT_TRUE(Store.put("torn bytes").empty());
  }
  unsigned TmpFiles = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir + "/objects"))
    if (Entry.path().filename().string().find(".tmp.") != std::string::npos)
      ++TmpFiles;
  ASSERT_EQ(TmpFiles, 1u) << "torn commit must leave its temp file";

  ContentStore::ScrubReport Report = Store.scrub();
  EXPECT_TRUE(Report.Ok);
  EXPECT_EQ(Report.TmpSwept, 1u);
  EXPECT_EQ(Report.Quarantined, 0u);
  EXPECT_EQ(Report.DanglingDropped, 0u);
  EXPECT_EQ(Store.stats()[ContentStore::TmpSwept], 1u);

  // The store still serves, and the torn object can be re-put.
  std::string Bytes;
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Found);
  EXPECT_EQ(Bytes, "good bytes");
  EXPECT_FALSE(Store.put("torn bytes").empty());
  std::filesystem::remove_all(Dir);
}

TEST(FaultInjectionTest, ScrubQuarantinesCorruptAndDropsDanglingRefs) {
  std::string Dir = freshDir("ipcp-fault-store-scrub");
  std::string Key;
  {
    ContentStore Store(Dir);
    Key = Store.putNamed("name", "precious bytes");
    ASSERT_FALSE(Key.empty());
    // Rot the blob on disk behind the store's back.
    std::ofstream Out(Store.objectPath(Key), std::ios::binary);
    Out << "precious bytez";
  }
  // Reopen: the startup scrub re-hashes every object, moves the rotten
  // one to quarantine/ (kept as evidence, never deleted), then drops
  // the ref that pointed at it.
  ContentStore Store(Dir);
  ContentStore::Stats Stats = Store.stats();
  EXPECT_EQ(Stats[ContentStore::ScrubRuns], 1u);
  EXPECT_EQ(Stats[ContentStore::Quarantined], 1u);
  EXPECT_EQ(Stats[ContentStore::DanglingDropped], 1u);
  EXPECT_TRUE(std::filesystem::exists(Store.quarantinePath(Key + ".blob")));
  std::string Bytes;
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Missing)
      << "a quarantined object reads as a clean miss";
  // The name is reusable: recovery degrades to a cold start, not a
  // poisoned store.
  EXPECT_FALSE(Store.putNamed("name", "precious bytes").empty());
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Found);
  EXPECT_EQ(Bytes, "precious bytes");
  std::filesystem::remove_all(Dir);
}

TEST(FaultInjectionTest, ScrubOnOpenSweepsStaleTmp) {
  std::string Dir = freshDir("ipcp-fault-store-stale");
  {
    ContentStore Store(Dir);
    ASSERT_FALSE(Store.putNamed("name", "bytes").empty());
  }
  // A crashed writer's leftovers, planted by hand.
  ASSERT_TRUE(writeStringToFile(Dir + "/objects/dead.blob.tmp.1.2", "junk"));
  ASSERT_TRUE(writeStringToFile(Dir + "/refs/dead.ref.tmp.3.4", "junk"));
  ContentStore Store(Dir);
  EXPECT_EQ(Store.stats()[ContentStore::TmpSwept], 2u);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/objects/dead.blob.tmp.1.2"));
  EXPECT_FALSE(std::filesystem::exists(Dir + "/refs/dead.ref.tmp.3.4"));
  std::string Bytes;
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Found);
  std::filesystem::remove_all(Dir);
}

TEST(FaultInjectionTest, DurableStoreRoundTrips) {
  std::string Dir = freshDir("ipcp-fault-store-durable");
  ContentStore::Options Opts;
  Opts.Durable = true;
  ContentStore Store(Dir, Opts);
  ASSERT_FALSE(Store.putNamed("name", "fsynced bytes").empty());
  std::string Bytes;
  EXPECT_EQ(Store.get("name", Bytes), ContentStore::Lookup::Found);
  EXPECT_EQ(Bytes, "fsynced bytes");
  {
    // In durable mode the fsync itself is a fault point; a failed sync
    // must abort the commit and remove the temp file.
    PlanGuard Guard("store.fsync:nth=1");
    EXPECT_TRUE(Store.put("unsynced bytes").empty());
    ContentStore::ScrubReport Report = Store.scrub();
    EXPECT_EQ(Report.TmpSwept, 0u) << "failed fsync must clean up its "
                                      "temp file";
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Summary-cache load and save (the --cache-dir path of every tool)
//===----------------------------------------------------------------------===//

const char *CacheSource = R"(
proc leaf(x) { print x; }
proc mid(y) { call leaf(y); }
proc main() { call mid(7); }
)";

TEST(FaultInjectionTest, CacheLoadFaultRunsCold) {
  std::string Dir = freshDir("ipcp-fault-cache-load");
  std::unique_ptr<Module> M = test::lowerOk(CacheSource);
  IPCPOptions Opts;
  ContentStore Store(Dir);
  std::string Key;
  {
    SummaryCache Writer;
    runIPCP(*M, Opts, nullptr, &Writer);
    std::string Error;
    ASSERT_TRUE(Writer.save(Store, "prog.mf", Opts, &Error)) << Error;
    Key = ContentStore::contentKey(Writer.serialize(Opts));
  }
  SummaryCache Reader;
  {
    PlanGuard Guard("store.read.object");
    EXPECT_FALSE(Reader.load(Store, "prog.mf", Opts));
  }
  // An injected read fault is a miss, not a summary the store's check or
  // the codec rejected: the run goes cold without a load failure, and the
  // object stays in place.
  EXPECT_FALSE(Reader.loadFailed());
  IPCPResult Run = runIPCP(*M, Opts, nullptr, &Reader);
  EXPECT_EQ(Run.Stats.get("cache_load_failures"), 0u);
  EXPECT_EQ(Run.Stats.get("cache_hits"), 0u);
  EXPECT_GT(Run.Stats.get("cache_misses"), 0u);
  EXPECT_EQ(Store.stats()[ContentStore::Quarantined], 0u);
  // The object itself is sound: without the plan it loads.
  SummaryCache Healthy;
  EXPECT_TRUE(Healthy.load(Store, "prog.mf", Opts));

  // A rotten object, by contrast, fails the store's check: a load failure
  // that the next run reports, and only that run.
  {
    std::ofstream Out(Store.objectPath(Key), std::ios::binary);
    Out << "rotten";
  }
  SummaryCache Rejected;
  EXPECT_FALSE(Rejected.load(Store, "prog.mf", Opts));
  EXPECT_TRUE(Rejected.loadFailed());
  EXPECT_EQ(runIPCP(*M, Opts, nullptr, &Rejected)
                .Stats.get("cache_load_failures"),
            1u);
  EXPECT_EQ(runIPCP(*M, Opts, nullptr, &Rejected)
                .Stats.get("cache_load_failures"),
            0u);
  std::filesystem::remove_all(Dir);
}

TEST(FaultInjectionTest, CacheSaveFaultWritesNoFile) {
  std::string Dir = freshDir("ipcp-fault-cache-save");
  std::unique_ptr<Module> M = test::lowerOk(CacheSource);
  IPCPOptions Opts;
  ContentStore Store(Dir);
  SummaryCache Cache;
  runIPCP(*M, Opts, nullptr, &Cache);
  ASSERT_TRUE(Cache.committed());
  {
    PlanGuard Guard("store.write.object");
    std::string Error;
    EXPECT_FALSE(Cache.save(Store, "prog.mf", Opts, &Error));
    EXPECT_NE(Error.find("injected fault: store.write.object"),
              std::string::npos)
        << Error;
  }
  EXPECT_FALSE(std::filesystem::exists(Dir))
      << "an injected save fault must write nothing";
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Service failure boundary
//===----------------------------------------------------------------------===//

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

ServiceRequest parseOk(const ServiceEngine &Engine, const std::string &Line) {
  ServiceRequest Req;
  std::string Code, Error;
  EXPECT_TRUE(Engine.parseRequestLine(Line, Req, &Code, &Error))
      << Code << ": " << Error;
  return Req;
}

TEST(ServiceBoundaryTest, InjectedFaultBecomesRetryableInternalError) {
  ServiceEngine Engine(engineConfig());
  ServiceRequest Req = parseOk(
      Engine, R"({"op":"analyze","suite":"simple","session":"s"})");

  JsonValue Ok1 = Engine.analyze(Req);
  ASSERT_EQ(Ok1.find("status")->asString(), "ok");

  JsonValue Failed;
  {
    PlanGuard Guard("service.analyze:nth=1");
    Failed = Engine.analyze(Req);
  }
  ASSERT_EQ(Failed.find("status")->asString(), "error");
  const JsonValue *Error = Failed.find("error");
  ASSERT_NE(Error, nullptr);
  EXPECT_EQ(Error->find("code")->asString(), "internal");
  EXPECT_NE(Error->find("message")->asString().find("injected fault"),
            std::string::npos);
  ASSERT_NE(Error->find("retryable"), nullptr);
  EXPECT_TRUE(Error->find("retryable")->asBool());
  EXPECT_EQ(Engine.snapshot()[ServiceEngine::InternalErrors], 1u);

  // The boundary held: the session survives and the retried request
  // produces the same (normalized) report as the pre-fault run.
  JsonValue Ok2 = Engine.analyze(Req);
  ASSERT_EQ(Ok2.find("status")->asString(), "ok");
  normalizeReportForDiff(Ok1);
  normalizeReportForDiff(Ok2);
  EXPECT_EQ(Ok1.dump(), Ok2.dump());
}

TEST(ServiceBoundaryTest, FaultedRunNeverPoisonsThePersistTier) {
  std::string Dir = freshDir("ipcp-fault-engine-store");
  ServiceEngine::Config Conf = engineConfig();
  Conf.Store = std::make_shared<ContentStore>(Dir);
  ServiceRequest Req;
  {
    ServiceEngine Engine(Conf);
    Req = parseOk(Engine,
                  R"({"op":"analyze","suite":"simple","session":"s"})");
    // Every analysis faults: nothing commits, so nothing may persist.
    PlanGuard Guard("service.analyze");
    EXPECT_EQ(Engine.analyze(Req).find("status")->asString(), "error");
    EXPECT_EQ(Engine.shutdownFlush(), 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(Dir + "/refs"))
      << "a failed run must not reach the write-behind tier";
  {
    // Same store, healthy run: persists fine.
    ServiceEngine Engine(Conf);
    EXPECT_EQ(Engine.analyze(Req).find("status")->asString(), "ok");
    EXPECT_EQ(Engine.shutdownFlush(), 1u);
  }
  std::filesystem::remove_all(Dir);
}

TEST(ServiceBoundaryTest, ErrorCodesCarryTheRetryableContract) {
  JsonValue Busy = serviceErrorObject("busy", "queue full");
  EXPECT_TRUE(Busy.find("retryable")->asBool());
  JsonValue Internal = serviceErrorObject("internal", "boom");
  EXPECT_TRUE(Internal.find("retryable")->asBool());
  for (const char *Code :
       {"bad-json", "bad-request", "unknown-suite", "source-error"}) {
    JsonValue Err = serviceErrorObject(Code, "permanent");
    ASSERT_NE(Err.find("retryable"), nullptr) << Code;
    EXPECT_FALSE(Err.find("retryable")->asBool()) << Code;
  }
}

//===----------------------------------------------------------------------===//
// Concurrent replay under faults
//===----------------------------------------------------------------------===//

TEST(ServiceDispatcherChaosTest,
     StoreFaultReplaysAreByteIdenticalAcrossJobCounts) {
  ServiceLogConfig LogConf;
  LogConf.Session = "chaos";
  LogConf.SessionCount = 3;
  LogConf.Seed = 17;
  LogConf.Requests = 30;
  LogConf.EndWithStats = false;
  LogConf.EndWithShutdown = false;
  std::vector<std::string> Lines = generateServiceLog(LogConf);

  auto replay = [&](unsigned Jobs, const std::string &Dir) {
    PlanGuard Guard("store.commit.*:period=2;store.read.*:period=3");
    ServiceDispatcher::Config Conf;
    Conf.Jobs = Jobs;
    Conf.Engine = engineConfig();
    Conf.Engine.MaxSessions = 2;
    std::string Root = freshDir(Dir);
    Conf.Engine.Store = std::make_shared<ContentStore>(Root);
    ServiceDispatcher Svc(Conf);
    std::vector<std::string> Out = test::runLines(Svc, Lines);
    EXPECT_GT(faultInjector().totals().Injected, 0u);
    std::filesystem::remove_all(Root);
    return Out;
  };

  std::vector<std::string> One = replay(1, "ipcp-chaos-j1");
  EXPECT_EQ(One.size(), Lines.size()) << "every line answered under faults";
  EXPECT_EQ(One, replay(1, "ipcp-chaos-j1b")) << "identical plan, "
                                                 "identical bytes";
  EXPECT_EQ(One, replay(4, "ipcp-chaos-j4")) << "store faults live on the "
                                                "reader thread; the job count "
                                                "must not shift them";
}

} // namespace
