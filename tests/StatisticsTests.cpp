//===- tests/StatisticsTests.cpp - Observability layer tests --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Covers the observability layer end to end: StatisticSet counters and
// the Counters.def registry, the Timer, the JSON tree (escaping, writer/
// parser round trips, error reporting), the Trace span/event
// machinery, and a golden check that the driver-facing JSON report for a
// fixture program parses and carries the expected CONSTANTS(p) sets,
// stage timings, and jump-function histogram.
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Trace.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

//===----------------------------------------------------------------------===//
// StatisticSet and the counter registry
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, AddGetDefault) {
  StatisticSet S;
  EXPECT_EQ(S.get(Counter::prop_visits), 0u);
  S.add(Counter::prop_visits);
  S.add(Counter::prop_visits, 4);
  EXPECT_EQ(S.get(Counter::prop_visits), 5u);
  // The by-name read sees the same cell, and reads zero for a name the
  // registry does not list.
  EXPECT_EQ(S.get("prop_visits"), 5u);
  EXPECT_EQ(S.get("missing"), 0u);
}

TEST(StatisticsTest, MergeSumsPerName) {
  StatisticSet A, B;
  A.add(Counter::cg_sccs, 2);
  A.add(Counter::cg_procedures, 1);
  B.add(Counter::cg_sccs, 3);
  B.add(Counter::cg_call_sites, 7);
  A.merge(B);
  EXPECT_EQ(A.get(Counter::cg_sccs), 5u);
  EXPECT_EQ(A.get(Counter::cg_procedures), 1u);
  EXPECT_EQ(A.get(Counter::cg_call_sites), 7u);
  EXPECT_TRUE(A.has(Counter::cg_call_sites));
  EXPECT_FALSE(A.has(Counter::cg_recursive_procs));
  EXPECT_EQ(B.get(Counter::cg_sccs), 3u); // merge does not mutate its argument
}

TEST(StatisticsTest, ToJsonIsFlatObject) {
  StatisticSet S;
  S.add(Counter::jf_polynomial, 2);
  S.add(Counter::jf_bottom, 1);
  JsonValue J = S.toJson();
  ASSERT_TRUE(J.isObject());
  ASSERT_EQ(J.size(), 2u);
  EXPECT_EQ(J.find("jf_bottom")->asInt(), 1);
  EXPECT_EQ(J.find("jf_polynomial")->asInt(), 2);
}

// Every report's "counters" object, and so every golden, is in this
// order: by name, not by registry order or by order of first add.
TEST(StatisticsTest, ToJsonSortsMembersByName) {
  StatisticSet S;
  S.add(Counter::time_total_us, 1);
  S.add(Counter::cache_hits, 2);
  S.add(Counter::cg_procedures, 3);
  JsonValue J = S.toJson();
  ASSERT_EQ(J.size(), 3u);
  EXPECT_EQ(J.members()[0].first, "cache_hits");
  EXPECT_EQ(J.members()[1].first, "cg_procedures");
  EXPECT_EQ(J.members()[2].first, "time_total_us");

  StatisticSet All;
  for (unsigned I = 0; I != NumCounters; ++I)
    All.add(Counter(I));
  J = All.toJson();
  ASSERT_EQ(J.size(), size_t(NumCounters));
  for (size_t I = 1; I != J.size(); ++I)
    EXPECT_LT(J.members()[I - 1].first, J.members()[I].first);
}

TEST(StatisticsTest, CounterAddedWithZeroIsPresent) {
  StatisticSet S;
  S.add(Counter::cache_hits, 0);
  JsonValue J = S.toJson();
  ASSERT_EQ(J.size(), 1u);
  ASSERT_NE(J.find("cache_hits"), nullptr);
  EXPECT_EQ(J.find("cache_hits")->asInt(), 0);
  EXPECT_EQ(J.find("cache_misses"), nullptr);
  std::string Table = formatStatsTable(S);
  EXPECT_NE(Table.find("cache_hits"), std::string::npos);
  EXPECT_EQ(Table.find("cache_misses"), std::string::npos);
}

TEST(StatisticsTest, RegistryKnowsPipelineCounters) {
  EXPECT_STREQ(counterName(Counter::time_total_us), "time_total_us");
  EXPECT_STREQ(counterName(Counter::jf_polynomial), "jf_polynomial");
  EXPECT_STREQ(counterName(Counter::prop_lowerings), "prop_lowerings");
  for (unsigned I = 0; I != NumCounters; ++I) {
    Counter C = Counter(I);
    StatisticSet S;
    S.add(C, I + 1);
    EXPECT_EQ(S.get(counterName(C)), I + 1) << counterName(C);
    EXPECT_STRNE(describeCounter(C), "") << counterName(C);
  }
}

TEST(StatisticsTest, FormatStatsTableShowsDescriptions) {
  StatisticSet S;
  S.add(Counter::constants_found, 3);
  std::string Table = formatStatsTable(S);
  EXPECT_NE(Table.find("constants_found"), std::string::npos);
  EXPECT_NE(Table.find(describeCounter(Counter::constants_found)),
            std::string::npos);
}

TEST(StatisticsTest, TimerMeasuresNonNegativeAndRestarts) {
  Timer T;
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I != 10000; ++I)
    Sink = Sink + I;
  double First = T.seconds();
  EXPECT_GE(First, 0.0);
  T.restart();
  EXPECT_LE(T.seconds(), First + 1.0); // restarted clock is near zero
}

//===----------------------------------------------------------------------===//
// JSON tree, writer, parser
//===----------------------------------------------------------------------===//

TEST(JsonTest, EscapeControlAndQuotes) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("\n\t"), "\\n\\t");
  EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplaces) {
  JsonValue O = JsonValue::object();
  O.set("z", 1);
  O.set("a", 2);
  O.set("z", 3); // replace in place, order unchanged
  ASSERT_EQ(O.size(), 2u);
  EXPECT_EQ(O.members()[0].first, "z");
  EXPECT_EQ(O.members()[0].second.asInt(), 3);
  EXPECT_EQ(O.members()[1].first, "a");
}

TEST(JsonTest, DumpCompactAndPretty) {
  JsonValue O = JsonValue::object();
  O.set("n", 42);
  O.set("list", JsonValue::array());
  O.find("list"); // const lookup compiles
  EXPECT_EQ(O.dump(), "{\"n\":42,\"list\":[]}");
  EXPECT_NE(O.dump(2).find("\n"), std::string::npos);
}

TEST(JsonTest, RoundTripThroughParser) {
  JsonValue Doc = JsonValue::object();
  Doc.set("name", "heat\n\"quoted\"");
  Doc.set("count", int64_t(-7));
  Doc.set("rate", 0.5);
  Doc.set("flag", true);
  Doc.set("nothing", JsonValue());
  JsonValue Arr = JsonValue::array();
  Arr.push(1);
  Arr.push("two");
  JsonValue Nested = JsonValue::object();
  Nested.set("deep", JsonValue::array());
  Arr.push(std::move(Nested));
  Doc.set("items", std::move(Arr));

  for (unsigned Indent : {0u, 2u}) {
    std::string Error;
    std::optional<JsonValue> Back = JsonValue::parse(Doc.dump(Indent), &Error);
    ASSERT_TRUE(Back.has_value()) << Error;
    EXPECT_EQ(*Back, Doc) << "indent " << Indent;
  }
}

TEST(JsonTest, ParseStandardDocument) {
  std::string Error;
  auto V = JsonValue::parse(
      "  { \"a\" : [ 1 , 2.5 , -3 ], \"u\" : \"\\u0041\\uD83D\\uDE00\" } ",
      &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->find("a")->at(1).asDouble(), 2.5);
  EXPECT_EQ(V->find("u")->asString(), "A\xF0\x9F\x98\x80"); // surrogate pair
}

TEST(JsonTest, ParseErrorsReported) {
  for (const char *Bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"\\x\"",
                          "1 2", "{\"a\":1,}"}) {
    std::string Error;
    EXPECT_FALSE(JsonValue::parse(Bad, &Error).has_value()) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

TEST(JsonTest, StructuralEqualityIgnoresKeyOrder) {
  auto A = JsonValue::parse("{\"x\":1,\"y\":2}");
  auto B = JsonValue::parse("{\"y\":2,\"x\":1}");
  auto C = JsonValue::parse("{\"y\":2,\"x\":3}");
  ASSERT_TRUE(A && B && C);
  EXPECT_EQ(*A, *B);
  EXPECT_NE(*A, *C);
  // Int/double cross-kind numeric equality.
  EXPECT_EQ(JsonValue(int64_t(2)), JsonValue(2.0));
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

TEST(TraceTest, SpansNestAndClose) {
  Trace T;
  Trace *Prev = Trace::setActive(&T);
  {
    ScopedTraceSpan Outer("outer");
    traceEvent("ev", "detail");
    { ScopedTraceSpan Inner("inner", "p1"); }
  }
  Trace::setActive(Prev);

  ASSERT_EQ(T.spans().size(), 2u);
  EXPECT_EQ(T.spans()[0].Name, "outer");
  EXPECT_FALSE(T.spans()[0].Open);
  EXPECT_EQ(T.spans()[1].Name, "inner");
  EXPECT_EQ(T.spans()[1].Detail, "p1");
  EXPECT_EQ(T.spans()[1].Parent, 0u);
  EXPECT_EQ(T.spans()[1].Depth, 1u);
  ASSERT_EQ(T.events().size(), 1u);
  EXPECT_EQ(T.events()[0].Span, 0u);
}

TEST(TraceTest, HelpersAreNoOpsWhenInactive) {
  ASSERT_EQ(Trace::active(), nullptr);
  ScopedTraceSpan S("ignored");
  traceEvent("ignored");
  // Nothing to observe — the point is that this neither crashes nor
  // requires a trace to exist.
}

TEST(TraceTest, TextAndJsonRenderings) {
  Trace T;
  Trace *Prev = Trace::setActive(&T);
  {
    ScopedTraceSpan Outer("ipcp");
    traceEvent("ssa.proc", "main");
    ScopedTraceSpan Inner("propagate", "callgraph-worklist");
  }
  Trace::setActive(Prev);

  std::string Text = T.str();
  EXPECT_NE(Text.find("ipcp"), std::string::npos);
  EXPECT_NE(Text.find("propagate"), std::string::npos);
  EXPECT_NE(Text.find("ssa.proc"), std::string::npos);

  JsonValue J = T.toJson();
  ASSERT_TRUE(J.isObject());
  const JsonValue *Spans = J.find("spans");
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->size(), 1u); // one root, child nested inside it
  const JsonValue *Children = Spans->at(0).find("children");
  ASSERT_NE(Children, nullptr);
  EXPECT_EQ(Children->at(0).find("name")->asString(), "propagate");
  // The trace JSON itself round-trips.
  auto Back = JsonValue::parse(J.dump(2));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, J);
}

//===----------------------------------------------------------------------===//
// The analysis report, end to end on a fixture program
//===----------------------------------------------------------------------===//

const char *FixtureSource = R"(
proc helper(x, scale) {
  print x * scale;
}
proc main() {
  call helper(4, 10);
  call helper(4, 10);
}
)";

TEST(ReportTest, GoldenReportParsesWithExpectedContents) {
  auto M = lowerOk(FixtureSource);
  IPCPOptions Opts;
  IPCPResult R = runIPCP(*M, Opts);

  Trace T;
  AnalysisReport Rep;
  Rep.SourceName = "fixture.mf";
  Rep.M = M.get();
  Rep.Opts = &Opts;
  Rep.Single = &R;
  Rep.TraceData = &T;
  JsonValue Doc = buildAnalysisReport(Rep);

  // The report must survive its own serialization.
  std::string Error;
  std::optional<JsonValue> Parsed = JsonValue::parse(Doc.dump(2), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(*Parsed, Doc);

  EXPECT_EQ(Parsed->find("schema")->asString(), "ipcp-report-v1");
  EXPECT_EQ(Parsed->find("source")->asString(), "fixture.mf");

  const JsonValue *Result = Parsed->find("result");
  ASSERT_NE(Result, nullptr);

  // helper is always entered with x=4, scale=10: both land in
  // CONSTANTS(helper) and both references substitute.
  const JsonValue *Procs = Result->find("procedures");
  ASSERT_NE(Procs, nullptr);
  const JsonValue *Helper = nullptr;
  for (size_t I = 0; I != Procs->size(); ++I)
    if (Procs->at(I).find("name")->asString() == "helper")
      Helper = &Procs->at(I);
  ASSERT_NE(Helper, nullptr);
  const JsonValue *Constants = Helper->find("constants");
  ASSERT_EQ(Constants->size(), 2u);
  bool SawX = false, SawScale = false;
  for (size_t I = 0; I != Constants->size(); ++I) {
    const JsonValue &C = Constants->at(I);
    if (C.find("variable")->asString() == "x") {
      SawX = true;
      EXPECT_EQ(C.find("value")->asInt(), 4);
    }
    if (C.find("variable")->asString() == "scale") {
      SawScale = true;
      EXPECT_EQ(C.find("value")->asInt(), 10);
    }
  }
  EXPECT_TRUE(SawX);
  EXPECT_TRUE(SawScale);
  EXPECT_EQ(Result->find("total_entry_constants")->asInt(), 2);

  // Stage timings exist for every stage and are internally consistent.
  const JsonValue *Timings = Result->find("timings_us");
  ASSERT_NE(Timings, nullptr);
  for (const char *Stage : {"callgraph", "modref", "intraprocedural",
                            "return_jf", "forward_jf", "propagation",
                            "record", "total"})
    ASSERT_NE(Timings->find(Stage), nullptr) << Stage;
  EXPECT_GE(Timings->find("total")->asInt(),
            Timings->find("propagation")->asInt());

  // Jump-function histogram totals match its parts.
  const JsonValue *JF = Result->find("jump_functions");
  ASSERT_NE(JF, nullptr);
  EXPECT_EQ(JF->find("total")->asInt(),
            JF->find("bottom")->asInt() + JF->find("constant")->asInt() +
                JF->find("pass_through")->asInt() +
                JF->find("polynomial")->asInt());

  // The empty-but-present trace serializes alongside the result.
  ASSERT_NE(Parsed->find("trace"), nullptr);
  // Options echo the configuration used.
  ASSERT_NE(Parsed->find("options"), nullptr);
}

TEST(ReportTest, CompletePropagationReportCarriesRounds) {
  auto M = lowerOk(FixtureSource);
  IPCPOptions Opts;
  CompletePropagationResult CP = runCompletePropagation(*M, Opts);

  AnalysisReport Rep;
  Rep.SourceName = "fixture.mf";
  Rep.M = M.get();
  Rep.Opts = &Opts;
  Rep.Complete = &CP;
  JsonValue Doc = buildAnalysisReport(Rep);

  const JsonValue *Complete = Doc.find("complete_propagation");
  ASSERT_NE(Complete, nullptr);
  EXPECT_GE(Complete->find("rounds")->asInt(), 1);
  ASSERT_NE(Complete->find("final_round"), nullptr);
  ASSERT_NE(Complete->find("counters"), nullptr);
  EXPECT_EQ(Complete->find("counters")->find("cp_rounds")->asInt(),
            int64_t(CP.Rounds));
}

} // namespace
