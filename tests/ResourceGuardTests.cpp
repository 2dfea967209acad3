//===- tests/ResourceGuardTests.cpp - budgets and degradation -------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The resource-governance layer: guard latching semantics, frontend
// budgets (depth/tokens/AST nodes) at their exact boundaries, graceful
// pipeline degradation with sound partial results, checked file I/O, and
// the degraded report schema.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/BindingGraph.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/ResourceGuard.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

//===----------------------------------------------------------------------===//
// Guard unit behavior.
//===----------------------------------------------------------------------===//

TEST(ResourceGuard, DefaultLimitsNeverTrip) {
  ResourceGuard Guard;
  EXPECT_TRUE(Guard.checkTokens(1'000'000'000));
  EXPECT_TRUE(Guard.checkAstNodes(1'000'000'000));
  EXPECT_TRUE(Guard.checkIRInstructions(1'000'000'000));
  EXPECT_TRUE(Guard.noteEvaluations(1'000'000'000));
  EXPECT_TRUE(Guard.checkDeadline("analysis"));
  EXPECT_FALSE(Guard.tripped());
  EXPECT_TRUE(Guard.status().ok());
  EXPECT_FALSE(Guard.status().Degraded);
}

TEST(ResourceGuard, FirstTripWinsAndLatches) {
  ResourceLimits Limits;
  Limits.MaxTokens = 10;
  Limits.MaxAstNodes = 10;
  ResourceGuard Guard(Limits);
  EXPECT_TRUE(Guard.checkTokens(10)); // at the limit: fine
  EXPECT_FALSE(Guard.checkTokens(11));
  EXPECT_TRUE(Guard.tripped());
  // A later excess cannot re-label the trip.
  EXPECT_FALSE(Guard.checkAstNodes(11));
  PipelineStatus Status = Guard.status();
  EXPECT_TRUE(Status.Degraded);
  EXPECT_EQ(Status.TrippedLimit, "tokens");
  EXPECT_EQ(Status.Stage, "frontend");
  EXPECT_NE(Status.Message.find("tokens"), std::string::npos);
  EXPECT_NE(Status.Message.find("frontend"), std::string::npos);
}

TEST(ResourceGuard, EvaluationBudgetTrips) {
  ResourceLimits Limits;
  Limits.MaxPropagationEvals = 5;
  ResourceGuard Guard(Limits);
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(Guard.noteEvaluations());
  EXPECT_FALSE(Guard.noteEvaluations());
  EXPECT_TRUE(Guard.tripped());
  EXPECT_FALSE(Guard.deadlineTripped());
  EXPECT_EQ(Guard.status().TrippedLimit, "prop-evals");
  EXPECT_EQ(Guard.status().Stage, "propagation");
}

TEST(ResourceGuard, DeadlineTrips) {
  ResourceLimits Limits;
  Limits.DeadlineMs = 1;
  ResourceGuard Guard(Limits);
  while (Guard.elapsedMs() < 2) {
    // spin: steady_clock moves forward on its own
  }
  EXPECT_FALSE(Guard.checkDeadline("record"));
  EXPECT_TRUE(Guard.tripped());
  EXPECT_TRUE(Guard.deadlineTripped());
  EXPECT_EQ(Guard.status().TrippedLimit, "deadline-ms");
  EXPECT_EQ(Guard.status().Stage, "record");
}

//===----------------------------------------------------------------------===//
// Frontend budgets at their boundaries.
//===----------------------------------------------------------------------===//

/// Parses `proc main() { print (((...1...))); }` with \p Parens nesting
/// levels under a guard whose depth limit is \p Limit.
bool parseAtDepth(unsigned Parens, unsigned Limit,
                  std::string *ErrsOut = nullptr, bool *TrippedOut = nullptr) {
  ResourceLimits Limits;
  Limits.MaxParseDepth = Limit;
  ResourceGuard Guard(Limits);
  DiagnosticsEngine Diags;
  std::string Expr(Parens, '(');
  Expr += "1";
  Expr.append(Parens, ')');
  std::optional<Program> Ast =
      parseAndCheck("proc main() { print " + Expr + "; }", Diags, &Guard);
  if (ErrsOut)
    *ErrsOut = Diags.str();
  if (TrippedOut)
    *TrippedOut = Guard.tripped();
  return Ast.has_value();
}

TEST(ParserGuard, ExpressionDepthBoundaryIsExact) {
  // Find the first nesting depth the limit rejects, then check both
  // sides of the boundary: one level less parses cleanly, the boundary
  // and beyond diagnose cleanly (no crash, guard tripped, one error).
  const unsigned Limit = 64;
  unsigned Boundary = 0;
  for (unsigned D = 1; D <= Limit && !Boundary; ++D)
    if (!parseAtDepth(D, Limit))
      Boundary = D;
  ASSERT_GT(Boundary, 2u) << "reasonable nesting must fit the limit";

  EXPECT_TRUE(parseAtDepth(Boundary - 1, Limit));

  std::string Errs;
  bool Tripped = false;
  EXPECT_FALSE(parseAtDepth(Boundary, Limit, &Errs, &Tripped));
  EXPECT_TRUE(Tripped);
  EXPECT_NE(Errs.find("nesting too deep"), std::string::npos) << Errs;

  EXPECT_FALSE(parseAtDepth(Boundary + 1, Limit));

  // Each paren level costs a bounded number of frames, so a slightly
  // higher limit admits the rejected depth.
  EXPECT_TRUE(parseAtDepth(Boundary, Limit + 4));
}

TEST(ParserGuard, BlockDepthBoundaryDiagnosesCleanly) {
  const unsigned Limit = 64;
  auto ParseBlocks = [&](unsigned Depth, std::string *Errs) {
    ResourceLimits Limits;
    Limits.MaxParseDepth = Limit;
    ResourceGuard Guard(Limits);
    DiagnosticsEngine Diags;
    std::string Body = "print 1;";
    for (unsigned I = 0; I != Depth; ++I)
      Body = "{ " + Body + " }";
    std::optional<Program> Ast =
        parseAndCheck("proc main() { " + Body + " }", Diags, &Guard);
    if (Errs)
      *Errs = Diags.str();
    return Ast.has_value();
  };
  unsigned Boundary = 0;
  for (unsigned D = 1; D <= Limit && !Boundary; ++D)
    if (!ParseBlocks(D, nullptr))
      Boundary = D;
  ASSERT_GT(Boundary, 2u);
  EXPECT_TRUE(ParseBlocks(Boundary - 1, nullptr));
  std::string Errs;
  EXPECT_FALSE(ParseBlocks(Boundary, &Errs));
  EXPECT_NE(Errs.find("nesting too deep"), std::string::npos) << Errs;
}

TEST(ParserGuard, PathologicalNestingIsTotalWithoutAGuard) {
  // No guard at all: the parser's built-in default depth limit must keep
  // a 100k-deep expression from touching the C++ stack limit.
  DiagnosticsEngine Diags;
  std::string Expr(100'000, '(');
  Expr += "1";
  Expr.append(100'000, ')');
  std::optional<Program> Ast =
      parseAndCheck("proc main() { print " + Expr + "; }", Diags);
  EXPECT_FALSE(Ast.has_value());
  EXPECT_NE(Diags.str().find("nesting too deep"), std::string::npos);
}

TEST(ParserGuard, TokenBudgetTripsWithDiagnostic) {
  ResourceLimits Limits;
  Limits.MaxTokens = 8;
  ResourceGuard Guard(Limits);
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(
      "proc main() { print 1 + 2 + 3 + 4; }", Diags, &Guard);
  EXPECT_FALSE(Ast.has_value());
  EXPECT_TRUE(Guard.tripped());
  EXPECT_EQ(Guard.status().TrippedLimit, "tokens");
  EXPECT_NE(Diags.str().find("token budget"), std::string::npos);
}

TEST(ParserGuard, AstNodeBudgetTripsWithDiagnostic) {
  ResourceLimits Limits;
  Limits.MaxAstNodes = 4;
  ResourceGuard Guard(Limits);
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(
      "proc main() { print 1 + 2 + 3 + 4 + 5 + 6; }", Diags, &Guard);
  EXPECT_FALSE(Ast.has_value());
  EXPECT_TRUE(Guard.tripped());
  EXPECT_EQ(Guard.status().TrippedLimit, "ast-nodes");
  EXPECT_NE(Diags.str().find("AST node budget"), std::string::npos);
}

TEST(ParserGuard, GenerousBudgetsLeaveParsingUntouched) {
  ResourceLimits Limits;
  Limits.MaxTokens = 1'000'000;
  Limits.MaxAstNodes = 1'000'000;
  ResourceGuard Guard(Limits);
  DiagnosticsEngine Diags;
  std::optional<Program> Ast = parseAndCheck(
      "proc f(x) { print x; }\nproc main() { call f(1); }", Diags, &Guard);
  EXPECT_TRUE(Ast.has_value());
  EXPECT_FALSE(Guard.tripped());
  EXPECT_FALSE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Pipeline degradation.
//===----------------------------------------------------------------------===//

const char *FanoutSource =
    "global g;\n"
    "proc leaf(a, b) { print a + b + g; }\n"
    "proc mid(x) { call leaf(x, 2); call leaf(x, 3); }\n"
    "proc main() { g = 5; call mid(1); call mid(1); }";

TEST(PipelineGuard, PropagationBudgetDegradesToSoundEmptyMap) {
  auto M = lowerOk(FanoutSource);
  IPCPOptions Opts;
  Opts.Limits.MaxPropagationEvals = 1;
  IPCPResult R = runIPCP(*M, Opts);
  EXPECT_TRUE(R.Status.Degraded);
  EXPECT_EQ(R.Status.TrippedLimit, "prop-evals");
  EXPECT_EQ(R.Status.Stage, "propagation");
  // The cut-short fixpoint is discarded: no interprocedural constants
  // may be claimed (they would be optimistic, i.e. unsound)...
  EXPECT_EQ(R.TotalEntryConstants, 0u);
  // ...but the record stage still ran over every procedure.
  EXPECT_EQ(R.Procs.size(), 3u);
  EXPECT_EQ(R.Stats.get("guard_limit_trips"), 1u);
  EXPECT_EQ(R.Stats.get("guard_deadline_trips"), 0u);
}

TEST(PipelineGuard, BindingGraphPropagatorDegradesIdentically) {
  auto M = lowerOk(FanoutSource);
  IPCPOptions Opts;
  ModuleAnalysis A(*M, Opts);
  buildJumpFunctions(A, Opts);
  ResourceLimits Limits;
  Limits.MaxPropagationEvals = 1;
  for (bool Binding : {false, true}) {
    ResourceGuard Guard(Limits);
    ConstantsMap CM =
        Binding ? propagateConstantsBindingGraph(A.CG, A.MRI, A.Tables.FJFs,
                                                 nullptr, &Guard)
                : propagateConstants(A.CG, A.MRI, A.Tables.FJFs, nullptr,
                                     &Guard);
    PipelineStatus Status = Guard.status();
    EXPECT_TRUE(Status.Degraded) << Binding;
    EXPECT_EQ(Status.TrippedLimit, "prop-evals") << Binding;
    EXPECT_EQ(Status.Stage, "propagation") << Binding;
    // The cut-short fixpoint is discarded whole: the empty map.
    EXPECT_EQ(CM.layout().rows(), 0u) << Binding;
    EXPECT_EQ(CM.totalEntries(), 0u) << Binding;
  }
}

TEST(PipelineGuard, IRBudgetShortCircuitsTheRun) {
  auto M = lowerOk(FanoutSource);
  IPCPOptions Opts;
  Opts.Limits.MaxIRInstructions = 1;
  IPCPResult R = runIPCP(*M, Opts);
  EXPECT_TRUE(R.Status.Degraded);
  EXPECT_EQ(R.Status.TrippedLimit, "ir-insts");
  EXPECT_TRUE(R.Procs.empty());
  EXPECT_EQ(R.Stats.get("guard_limit_trips"), 1u);
}

TEST(PipelineGuard, UntrippedRunReportsCompleted) {
  auto M = lowerOk(FanoutSource);
  IPCPResult R = runIPCP(*M);
  EXPECT_FALSE(R.Status.Degraded);
  EXPECT_TRUE(R.Status.ok());
  EXPECT_EQ(R.Stats.get("guard_limit_trips"), 0u);
  EXPECT_GT(R.TotalEntryConstants, 0u);
}

TEST(PipelineGuard, ExternalGuardAlreadyTrippedYieldsEmptyDegradedResult) {
  auto M = lowerOk(FanoutSource);
  ResourceGuard Guard;
  Guard.trip("tokens", "frontend");
  IPCPResult R = runIPCP(*M, {}, &Guard);
  EXPECT_TRUE(R.Status.Degraded);
  EXPECT_EQ(R.Status.TrippedLimit, "tokens");
  EXPECT_TRUE(R.Procs.empty());
}

TEST(PipelineGuard, CompletePropagationStopsOnTrip) {
  auto M = lowerOk(FanoutSource);
  IPCPOptions Opts;
  Opts.Limits.MaxPropagationEvals = 1;
  CompletePropagationResult CP = runCompletePropagation(*M, Opts);
  EXPECT_TRUE(CP.Status.Degraded);
  EXPECT_EQ(CP.Rounds, 1u);
  EXPECT_TRUE(CP.FinalRound.Status.Degraded);
}

TEST(PipelineGuard, DegradedResultIsSoundSubsetOfFullResult) {
  // Everything a degraded run *does* claim must also hold in the full
  // run: degradation loses precision, never soundness.
  auto M = lowerOk(FanoutSource);
  IPCPOptions Tight;
  Tight.Limits.MaxPropagationEvals = 1;
  IPCPResult Degraded = runIPCP(*M, Tight);
  IPCPResult Full = runIPCP(*M);
  for (const ProcedureResult &PR : Degraded.Procs) {
    const ProcedureResult *FullPR = Full.findProc(PR.Name);
    ASSERT_NE(FullPR, nullptr);
    for (const auto &[Var, Value] : PR.EntryConstants) {
      bool FoundInFull = false;
      for (const auto &[FVar, FValue] : FullPR->EntryConstants)
        if (FVar == Var && FValue == Value)
          FoundInFull = true;
      EXPECT_TRUE(FoundInFull) << PR.Name << "." << Var;
    }
  }
  EXPECT_LE(Degraded.TotalConstantRefs, Full.TotalConstantRefs);
}

//===----------------------------------------------------------------------===//
// Degraded report schema.
//===----------------------------------------------------------------------===//

TEST(DegradedReport, ResultJsonCarriesDegradationObject) {
  auto M = lowerOk(FanoutSource);
  IPCPOptions Opts;
  Opts.Limits.MaxPropagationEvals = 1;
  IPCPResult R = runIPCP(*M, Opts);
  JsonValue Doc = resultToJson(R);
  EXPECT_TRUE(Doc.find("degraded")->asBool());
  const JsonValue *Degradation = Doc.find("degradation");
  ASSERT_NE(Degradation, nullptr);
  EXPECT_EQ(Degradation->find("limit")->asString(), "prop-evals");
  EXPECT_EQ(Degradation->find("stage")->asString(), "propagation");
  EXPECT_FALSE(Degradation->find("message")->asString().empty());
}

TEST(DegradedReport, CleanRunReportsDegradedFalse) {
  auto M = lowerOk(FanoutSource);
  IPCPResult R = runIPCP(*M);
  JsonValue Doc = resultToJson(R);
  EXPECT_FALSE(Doc.find("degraded")->asBool());
  EXPECT_EQ(Doc.find("degradation"), nullptr);
}

TEST(DegradedReport, TopLevelReportFlagsDegradationAndRoundTrips) {
  auto M = lowerOk(FanoutSource);
  IPCPOptions Opts;
  Opts.Limits.MaxPropagationEvals = 1;
  IPCPResult R = runIPCP(*M, Opts);
  AnalysisReport Report;
  Report.SourceName = "fanout";
  Report.M = M.get();
  Report.Opts = &Opts;
  Report.Single = &R;
  JsonValue Doc = buildAnalysisReport(Report);
  EXPECT_EQ(Doc.find("schema")->asString(), "ipcp-report-v1");
  EXPECT_TRUE(Doc.find("degraded")->asBool());
  ASSERT_NE(Doc.find("degradation"), nullptr);

  // The degraded document must still round-trip through the parser.
  std::string Error;
  std::optional<JsonValue> Parsed = JsonValue::parse(Doc.dump(2), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_TRUE(Parsed->find("degraded")->asBool());
  EXPECT_EQ(Parsed->find("degradation")->find("limit")->asString(),
            "prop-evals");
}

TEST(DegradedReport, ExplicitStatusCoversFrontendTrips) {
  // A frontend trip yields no IPCPResult; the explicit status pointer
  // still produces a schema-valid degraded document.
  ResourceGuard Guard;
  Guard.trip("parse-depth", "frontend");
  PipelineStatus Status = Guard.status();
  AnalysisReport Report;
  Report.SourceName = "adversarial";
  Report.Status = &Status;
  JsonValue Doc = buildAnalysisReport(Report);
  EXPECT_TRUE(Doc.find("degraded")->asBool());
  EXPECT_EQ(Doc.find("degradation")->find("limit")->asString(), "parse-depth");
  EXPECT_EQ(Doc.find("degradation")->find("stage")->asString(), "frontend");
}

//===----------------------------------------------------------------------===//
// Checked file I/O.
//===----------------------------------------------------------------------===//

TEST(FileIO, MissingFileIsAnOpenError) {
  std::string Out = "sentinel", Error;
  EXPECT_FALSE(readFileToString("/no/such/ipcp/file.mf", Out, &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

TEST(FileIO, DirectoryIsAReadError) {
  std::string Out, Error;
  EXPECT_FALSE(readFileToString(::testing::TempDir(), Out, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(FileIO, WriteReadRoundTrip) {
  std::string Path = ::testing::TempDir() + "/ipcp_fileio_roundtrip.txt";
  std::string Payload = "line one\nline two\nno trailing newline", Error;
  ASSERT_TRUE(writeStringToFile(Path, Payload, &Error)) << Error;
  std::string Back;
  ASSERT_TRUE(readFileToString(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, Payload);
  std::remove(Path.c_str());
}

TEST(FileIO, EmptyFileReadsAsEmptyString) {
  std::string Path = ::testing::TempDir() + "/ipcp_fileio_empty.txt";
  std::string Error;
  ASSERT_TRUE(writeStringToFile(Path, "", &Error)) << Error;
  std::string Back = "sentinel";
  ASSERT_TRUE(readFileToString(Path, Back, &Error)) << Error;
  EXPECT_TRUE(Back.empty());
  std::remove(Path.c_str());
}

TEST(FileIO, UnwritablePathSurfacesOpenError) {
  std::string Error;
  EXPECT_FALSE(
      writeStringToFile("/no/such/dir/ipcp_out.txt", "text", &Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;
}

TEST(FileIO, WriteJsonFileReportsFailures) {
  JsonValue Doc = JsonValue::object();
  Doc.set("k", uint64_t(1));
  std::string Error;
  EXPECT_FALSE(writeJsonFile("/no/such/dir/report.json", Doc, &Error));
  EXPECT_FALSE(Error.empty());
}

} // namespace
