//===- tests/ParallelSuiteTests.cpp - SuiteRunner determinism -------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The contract of the parallel suite layer: any number of worker threads
// produces exactly the observable output of a sequential run. Covers the
// SuiteRunner primitive itself (index-ordered results, inline fallback,
// trace merging) and the headline acceptance check — the full
// "ipcp-suite-report-v1" document is byte-identical at 1 and 4 jobs once
// timing fields are excluded.
//
//===----------------------------------------------------------------------===//

#include "core/SuiteRunner.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/SuiteReport.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace ipcp;

namespace {

TEST(SuiteRunner, ResultsLandInTaskIndexOrder) {
  SuiteRunner Runner(4);
  std::vector<size_t> Out(64, 0);
  Runner.run(Out.size(), [&](size_t I) { Out[I] = I * I; });
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
}

TEST(SuiteRunner, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_EQ(SuiteRunner(0).jobs(), ThreadPool::defaultConcurrency());
  EXPECT_EQ(SuiteRunner().jobs(), ThreadPool::defaultConcurrency());
  EXPECT_EQ(SuiteRunner(3).jobs(), 3u);
}

TEST(SuiteRunner, SingleJobRunsInlineOnCallingThread) {
  SuiteRunner Runner(1);
  std::vector<std::thread::id> Ids(8);
  Runner.run(Ids.size(),
             [&](size_t I) { Ids[I] = std::this_thread::get_id(); });
  for (const std::thread::id &Id : Ids)
    EXPECT_EQ(Id, std::this_thread::get_id());
}

TEST(SuiteRunner, MergesTaskTracesInTaskOrder) {
  Trace Parent;
  Trace *Prev = Trace::setActive(&Parent);
  SuiteRunner Runner(4);
  Runner.run(8, [](size_t I) {
    ScopedTraceSpan Span("task", std::to_string(I));
  });
  Trace::setActive(Prev);

  // One root span per task, in task order regardless of which worker
  // finished first.
  ASSERT_EQ(Parent.spans().size(), 8u);
  for (size_t I = 0; I < Parent.spans().size(); ++I) {
    EXPECT_EQ(Parent.spans()[I].Name, "task");
    EXPECT_EQ(Parent.spans()[I].Detail, std::to_string(I));
    EXPECT_EQ(Parent.spans()[I].Parent, Trace::NoParent);
    EXPECT_FALSE(Parent.spans()[I].Open);
  }
}

/// Rebuilds \p V without object members whose key ends in "_us" — every
/// timing field in the report schema (time_*_us counters, span
/// start_us/duration_us) follows that convention.
JsonValue stripTimings(const JsonValue &V) {
  if (V.isObject()) {
    JsonValue Out = JsonValue::object();
    for (const auto &[Key, Member] : V.members())
      if (Key.size() < 3 || Key.compare(Key.size() - 3, 3, "_us") != 0)
        Out.set(Key, stripTimings(Member));
    return Out;
  }
  if (V.isArray()) {
    JsonValue Out = JsonValue::array();
    for (size_t I = 0; I < V.size(); ++I)
      Out.push(stripTimings(V.at(I)));
    return Out;
  }
  return V;
}

/// One traced whole-suite study at \p Jobs workers, rendered as the
/// timing-stripped "ipcp-suite-report-v1" document.
std::string suiteReportAt(unsigned Jobs) {
  Trace T;
  Trace *Prev = Trace::setActive(&T);
  SuiteRunner Runner(Jobs);
  SuiteStudyResult Study = runSuiteStudy(Runner, /*BuildReports=*/true);
  Trace::setActive(Prev);
  EXPECT_EQ(Study.Failures, 0);
  return stripTimings(buildSuiteReport(Study, &T)).dump(2);
}

TEST(SuiteDeterminism, ReportByteIdenticalAcrossJobCounts) {
  std::string Sequential = suiteReportAt(1);
  std::string Parallel = suiteReportAt(4);
  EXPECT_EQ(Sequential, Parallel);
}

} // namespace
