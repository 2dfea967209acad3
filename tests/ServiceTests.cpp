//===- tests/ServiceTests.cpp - analysis-service layer tests --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The service layer behind tools/ipcp_serverd (docs/SERVICE.md): the
// ipcp-service-v1 request codec, the response envelope, the queue
// primitives, resident session caches with write-behind persistence,
// and the determinism contract — concurrent execution through the
// session turnstile produces byte-identical responses to a serial run.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Report.h"
#include "core/ServiceDispatcher.h"
#include "core/ServiceEngine.h"
#include "core/SummaryCache.h"
#include "support/BoundedQueue.h"
#include "support/ContentStore.h"
#include "support/ThreadPool.h"
#include "workload/Programs.h"
#include "workload/ServiceWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

using namespace ipcp;

namespace {

const char *CalleeSource = R"(
global g;
proc callee(x) { print x + g; }
proc main() { g = 2; call callee(3); }
)";

ServiceEngine::Config basicConfig() {
  ServiceEngine::Config Conf;
  Conf.SuiteResolver = [](const std::string &Name, std::string &Out) {
    const SuiteProgram *Prog = findSuiteProgram(Name);
    if (!Prog)
      return false;
    Out = Prog->Source;
    return true;
  };
  return Conf;
}

/// Parses a request line through \p Engine, expecting success.
ServiceRequest parseOk(const ServiceEngine &Engine, const std::string &Line) {
  ServiceRequest Req;
  std::string Code, Error;
  EXPECT_TRUE(Engine.parseRequestLine(Line, Req, &Code, &Error))
      << Code << ": " << Error;
  return Req;
}

/// Parses a request line expecting failure; returns the error code.
std::string parseCode(const ServiceEngine &Engine, const std::string &Line) {
  ServiceRequest Req;
  std::string Code, Error;
  EXPECT_FALSE(Engine.parseRequestLine(Line, Req, &Code, &Error)) << Line;
  return Code;
}

/// A one-job ServiceDispatcher over \p Engine: the daemon's dispatcher
/// in its serial configuration.
ServiceDispatcher::Config serialService(ServiceEngine::Config Engine) {
  ServiceDispatcher::Config Conf;
  Conf.Jobs = 1;
  Conf.Engine = std::move(Engine);
  return Conf;
}

/// Sends \p Line through \p Svc; returns the parsed response envelope.
JsonValue serve(ServiceDispatcher &Svc, const std::string &Line) {
  std::vector<std::string> Out = test::runLines(Svc, {Line});
  std::optional<JsonValue> Doc =
      Out.size() == 1 ? JsonValue::parse(Out[0]) : std::nullopt;
  EXPECT_TRUE(Doc.has_value()) << Line;
  return Doc ? std::move(*Doc) : JsonValue();
}

/// An analyze request line for suite program \p Suite in \p Session.
std::string analyzeLine(const std::string &Suite, const std::string &Session) {
  return R"({"op":"analyze","suite":")" + Suite + R"(","session":")" +
         Session + R"("})";
}

uint64_t counter(const JsonValue &Body, const char *Name) {
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

std::string statusOf(const JsonValue &Body) {
  const JsonValue *S = Body.find("status");
  return S ? S->asString() : "<missing>";
}

TEST(ServiceCodec, ParsesAnalyzeFields) {
  ServiceEngine Engine(basicConfig());
  ServiceRequest Req = parseOk(
      Engine,
      R"({"op":"analyze","id":42,"suite":"simple","session":"s","complete":false,)"
      R"("scrub_timings":true,"options":{"forward_jf":"pass-through","return_jf":false},)"
      R"("limits":{"prop_evals":100}})");
  EXPECT_EQ(Req.Op, ServiceRequest::Kind::Analyze);
  EXPECT_TRUE(Req.HasId);
  EXPECT_EQ(Req.Id.asInt(), 42);
  EXPECT_EQ(Req.Suite, "simple");
  EXPECT_EQ(Req.Name, "simple"); // defaults to the suite name
  EXPECT_EQ(Req.Session, "s");
  EXPECT_TRUE(Req.ScrubTimings);
  EXPECT_EQ(Req.Opts.ForwardKind, JumpFunctionKind::PassThrough);
  EXPECT_FALSE(Req.Opts.UseReturnJumpFunctions);
  EXPECT_EQ(Req.Opts.Limits.MaxPropagationEvals, 100u);
  // "passthrough" (the driver's spelling) is accepted too.
  Req = parseOk(Engine,
                R"({"op":"analyze","source":"proc main() { print 1; }",)"
                R"("options":{"forward_jf":"passthrough"}})");
  EXPECT_EQ(Req.Opts.ForwardKind, JumpFunctionKind::PassThrough);
  EXPECT_EQ(Req.Name, "<request>");
}

TEST(ServiceCodec, RejectsMalformedRequests) {
  ServiceEngine Engine(basicConfig());
  EXPECT_EQ(parseCode(Engine, "not json"), "bad-json");
  EXPECT_EQ(parseCode(Engine, "[1,2]"), "bad-request");
  EXPECT_EQ(parseCode(Engine, R"({"id":1})"), "bad-request");
  EXPECT_EQ(parseCode(Engine, R"({"op":"frobnicate"})"), "bad-request");
  // Unknown keys are rejected so a typo cannot silently use defaults.
  EXPECT_EQ(parseCode(Engine, R"({"op":"analyze","suite":"x","sesion":"s"})"),
            "bad-request");
  EXPECT_EQ(parseCode(Engine, R"({"op":"stats","suite":"x"})"), "bad-request");
  // Exactly one of source/suite.
  EXPECT_EQ(parseCode(Engine, R"({"op":"analyze"})"), "bad-request");
  EXPECT_EQ(parseCode(Engine, R"({"op":"analyze","suite":"a","source":"b"})"),
            "bad-request");
  // Malformed nested objects.
  EXPECT_EQ(parseCode(
                Engine,
                R"({"op":"analyze","suite":"x","options":{"forward_jf":"??"}})"),
            "bad-request");
  EXPECT_EQ(
      parseCode(Engine, R"({"op":"analyze","suite":"x","options":{"jf":1}})"),
      "bad-request");
  EXPECT_EQ(parseCode(
                Engine,
                R"({"op":"analyze","suite":"x","limits":{"parse_depth":0}})"),
            "bad-request");
  EXPECT_EQ(
      parseCode(Engine, R"({"op":"analyze","suite":"x","limits":{"cpus":1}})"),
      "bad-request");
  EXPECT_EQ(parseCode(Engine,
                      R"({"op":"analyze","suite":"x","limits":{"tokens":-1}})"),
            "bad-request");
}

TEST(ServiceCodec, LimitsMergeStricterWins) {
  ServiceEngine::Config Conf = basicConfig();
  Conf.DefaultLimits.MaxTokens = 100;
  Conf.DefaultLimits.MaxParseDepth = 64;
  ServiceEngine Engine(std::move(Conf));
  // A request cannot raise or disable a server-configured budget...
  ServiceRequest Req = parseOk(
      Engine, R"({"op":"analyze","suite":"x","limits":{"tokens":1000}})");
  EXPECT_EQ(Req.Opts.Limits.MaxTokens, 100u);
  Req =
      parseOk(Engine, R"({"op":"analyze","suite":"x","limits":{"tokens":0}})");
  EXPECT_EQ(Req.Opts.Limits.MaxTokens, 100u);
  // ...but can tighten it.
  Req =
      parseOk(Engine, R"({"op":"analyze","suite":"x","limits":{"tokens":50}})");
  EXPECT_EQ(Req.Opts.Limits.MaxTokens, 50u);
  // An unconfigured (unlimited) budget takes the request value as-is.
  Req = parseOk(Engine,
                R"({"op":"analyze","suite":"x","limits":{"deadline_ms":5}})");
  EXPECT_EQ(Req.Opts.Limits.DeadlineMs, 5u);
  // Parse depth is always finite: the merge is a plain min.
  Req = parseOk(Engine,
                R"({"op":"analyze","suite":"x","limits":{"parse_depth":512}})");
  EXPECT_EQ(Req.Opts.Limits.MaxParseDepth, 64u);
  Req = parseOk(Engine,
                R"({"op":"analyze","suite":"x","limits":{"parse_depth":8}})");
  EXPECT_EQ(Req.Opts.Limits.MaxParseDepth, 8u);
  // Defaults apply when the request has no limits object at all.
  Req = parseOk(Engine, R"({"op":"analyze","suite":"x"})");
  EXPECT_EQ(Req.Opts.Limits.MaxTokens, 100u);
}

TEST(ServiceCodec, ParsesBatches) {
  ServiceEngine Engine(basicConfig());
  ServiceRequest Req = parseOk(
      Engine,
      R"({"op":"analyze-batch","id":"b","requests":[)"
      R"({"suite":"simple"},{"op":"analyze","id":7,"suite":"trfd"}]})");
  EXPECT_EQ(Req.Op, ServiceRequest::Kind::AnalyzeBatch);
  ASSERT_EQ(Req.Batch.size(), 2u);
  EXPECT_EQ(Req.Batch[0].Suite, "simple");
  EXPECT_FALSE(Req.Batch[0].HasId);
  EXPECT_EQ(Req.Batch[1].Suite, "trfd");
  EXPECT_TRUE(Req.Batch[1].HasId);

  EXPECT_EQ(parseCode(Engine, R"({"op":"analyze-batch"})"), "bad-request");
  EXPECT_EQ(parseCode(Engine, R"({"op":"analyze-batch","requests":[]})"),
            "bad-request");
  EXPECT_EQ(parseCode(Engine,
                      R"({"op":"analyze-batch","requests":[{"op":"stats"}]})"),
            "bad-request");
  EXPECT_EQ(parseCode(Engine, R"({"op":"analyze-batch","requests":[{}]})"),
            "bad-request");
}

/// Every setting spelled out independently of the option table: its key,
/// the flag that sets it (null when no tool has one), and its field.
struct Setting {
  const char *Key;
  const char *Flag;
  void (*Set)(IPCPOptions &, uint64_t);
};

#define FIELD(F, T) [](IPCPOptions &O, uint64_t V) { O.F = T(V); }
const Setting Vocabulary[] = {
    {"forward_jf", "--jf", FIELD(ForwardKind, JumpFunctionKind)},
    {"return_jf", "--no-return-jf", FIELD(UseReturnJumpFunctions, bool)},
    {"mod_information", "--no-mod", FIELD(UseModInformation, bool)},
    {"intraprocedural_only", "--intra-only", FIELD(IntraproceduralOnly, bool)},
    {"gated_ssa", "--gated-ssa", FIELD(UseGatedSSA, bool)},
    {"engine", "--engine", FIELD(Engine, PropagationEngine)},
    {"max_contexts", "--max-contexts", FIELD(MaxContexts, unsigned)},
    {"max_expr_nodes", nullptr, FIELD(MaxExprNodes, unsigned)},
    {"parse_depth", "--limit-parse-depth", FIELD(Limits.MaxParseDepth, unsigned)},
    {"tokens", "--limit-tokens", FIELD(Limits.MaxTokens, uint64_t)},
    {"ast_nodes", "--limit-ast-nodes", FIELD(Limits.MaxAstNodes, uint64_t)},
    {"ir_insts", "--limit-ir-insts", FIELD(Limits.MaxIRInstructions, uint64_t)},
    {"prop_evals", "--limit-prop-evals",
     FIELD(Limits.MaxPropagationEvals, uint64_t)},
    {"deadline_ms", "--deadline-ms", FIELD(Limits.DeadlineMs, uint64_t)},
};
#undef FIELD

void expectSameOptions(const IPCPOptions &A, const IPCPOptions &B,
                       const std::string &Where) {
  EXPECT_EQ(A.ForwardKind, B.ForwardKind) << Where;
  EXPECT_EQ(A.UseReturnJumpFunctions, B.UseReturnJumpFunctions) << Where;
  EXPECT_EQ(A.UseModInformation, B.UseModInformation) << Where;
  EXPECT_EQ(A.IntraproceduralOnly, B.IntraproceduralOnly) << Where;
  EXPECT_EQ(A.MaxExprNodes, B.MaxExprNodes) << Where;
  EXPECT_EQ(A.UseGatedSSA, B.UseGatedSSA) << Where;
  EXPECT_EQ(A.Engine, B.Engine) << Where;
  EXPECT_EQ(A.MaxContexts, B.MaxContexts) << Where;
  EXPECT_EQ(A.Limits.MaxParseDepth, B.Limits.MaxParseDepth) << Where;
  EXPECT_EQ(A.Limits.MaxTokens, B.Limits.MaxTokens) << Where;
  EXPECT_EQ(A.Limits.MaxAstNodes, B.Limits.MaxAstNodes) << Where;
  EXPECT_EQ(A.Limits.MaxIRInstructions, B.Limits.MaxIRInstructions) << Where;
  EXPECT_EQ(A.Limits.MaxPropagationEvals, B.Limits.MaxPropagationEvals)
      << Where;
  EXPECT_EQ(A.Limits.DeadlineMs, B.Limits.DeadlineMs) << Where;
}

/// One legal value of a row: its JSON spelling, the flag that selects it
/// (empty when the value is the default a flag cannot name), and the
/// integer Set stores.
struct Sample {
  std::string Json;
  std::string Flag;
  uint64_t Value;
};

std::vector<Sample> legalSamples(const OptionSpec &Row) {
  std::vector<Sample> Out;
  std::string Flag = Row.Flag ? Row.Flag : "";
  if (Row.Type == OptionType::Switch) {
    // The bare flag selects the non-default value.
    bool Default = Row.Get(IPCPOptions()) != 0;
    Out.push_back({Default ? "false" : "true", Flag, !Default});
    Out.push_back({Default ? "true" : "false", "", Default});
  } else if (Row.Type == OptionType::Choice) {
    for (const OptionChoice &C : Row.Choices)
      Out.push_back({std::string("\"") + C.Spelling + "\"",
                     Row.Flag ? Flag + "=" + C.Spelling : "", C.Value});
  } else if (Row.Type == OptionType::Count) {
    uint64_t Top = std::min<uint64_t>(Row.Max, uint64_t(1) << 40);
    for (uint64_t V : {Row.Min, Row.Get(IPCPOptions()), uint64_t(4097), Top})
      Out.push_back({std::to_string(V),
                     Row.Flag ? Flag + "=" + std::to_string(V) : "", V});
  }
  return Out;
}

TEST(ServiceCodec, OptionTableKeepsTheVocabulary) {
  std::span<const OptionSpec> Table = optionTable();
  ASSERT_EQ(Table.size(), std::size(Vocabulary));
  std::string Driver, Serverd, Suitecheck, Options, Limits, Tags;
  for (size_t I = 0; I != Table.size(); ++I) {
    const OptionSpec &Row = Table[I];
    EXPECT_STREQ(Row.Key, Vocabulary[I].Key);
    EXPECT_STREQ(Row.Flag ? Row.Flag : "", Vocabulary[I].Flag
                                               ? Vocabulary[I].Flag
                                               : "");
    if (Row.Flag || (Row.Type == OptionType::Choice &&
                     (Row.Surfaces & OnOptions))) {
      EXPECT_NE(Row.Help, nullptr) << Row.Key << " is parsed but has no help";
    }
    if (Row.Surfaces & OnDriver)
      Driver += std::string(Row.Flag) + " ";
    if (Row.Surfaces & OnServerd)
      Serverd += std::string(Row.Flag) + " ";
    if (Row.Surfaces & OnSuitecheck)
      Suitecheck += std::string(Row.Flag) + " ";
    if (Row.Surfaces & OnOptions)
      Options += std::string(Row.Key) + " ";
    if (Row.Surfaces & OnLimits)
      Limits += std::string(Row.Key) + " ";
    if (Row.FingerprintTag)
      Tags += std::string(Row.FingerprintTag) + " ";
  }
  EXPECT_EQ(Driver, "--jf --no-return-jf --no-mod --intra-only --gated-ssa "
                    "--engine --max-contexts "
                    "--limit-parse-depth --limit-tokens --limit-ast-nodes "
                    "--limit-ir-insts --limit-prop-evals --deadline-ms ");
  EXPECT_EQ(Serverd, "--limit-parse-depth --limit-tokens --limit-ast-nodes "
                     "--limit-ir-insts --limit-prop-evals --deadline-ms ");
  EXPECT_EQ(Suitecheck, "--engine ");
  EXPECT_EQ(Options, "forward_jf return_jf mod_information "
                     "intraprocedural_only gated_ssa engine "
                     "max_contexts max_expr_nodes ");
  EXPECT_EQ(Limits,
            "parse_depth tokens ast_nodes ir_insts prop_evals deadline_ms ");
  EXPECT_EQ(Tags, "jf rjf mod intra gated engine maxexpr ");
  // Every accepted spelling and the enumerator it names.
  const std::pair<const char *, JumpFunctionKind> Kinds[] = {
      {"literal", JumpFunctionKind::Literal},
      {"intra", JumpFunctionKind::IntraproceduralConstant},
      {"pass-through", JumpFunctionKind::PassThrough},
      {"passthrough", JumpFunctionKind::PassThrough},
      {"polynomial", JumpFunctionKind::Polynomial}};
  for (const auto &[Spelling, Kind] : Kinds) {
    IPCPOptions Opts;
    std::string Error;
    EXPECT_TRUE(parseOptionFlag(std::string("--jf=") + Spelling, OnDriver,
                                Opts, Error));
    EXPECT_EQ(Opts.ForwardKind, Kind) << Spelling;
  }
  EXPECT_STREQ(jumpFunctionKindName(JumpFunctionKind::PassThrough),
               "pass-through");
  EXPECT_NE(optionHelp(OnDriver, OnOptions)
                .find("--jf=literal|intra|pass-through|passthrough|polynomial"),
            std::string::npos);
  EXPECT_NE(optionHelp(OnSuitecheck, OnOptions).find("--engine=jump|contexts"),
            std::string::npos);

  std::string Echoed;
  JsonValue Echo = optionsToJson(IPCPOptions());
  for (const auto &[Key, Val] : Echo.members())
    Echoed += Key + " ";
  EXPECT_EQ(Echoed, "forward_jf return_jf mod_information "
                    "intraprocedural_only gated_ssa engine "
                    "max_contexts max_expr_nodes ");
}

TEST(ServiceCodec, OptionTableRowsAgreeAcrossSurfaces) {
  // A parse-depth ceiling at the top of its range, so a request can
  // tighten it to every legal value; the other budgets stay unlimited.
  IPCPOptions Base;
  Base.Limits.MaxParseDepth = 1u << 20;
  ServiceEngine::Config Conf = basicConfig();
  Conf.DefaultLimits = Base.Limits;
  ServiceEngine Engine(std::move(Conf));

  std::span<const OptionSpec> Table = optionTable();
  for (size_t I = 0; I != Table.size(); ++I) {
    const OptionSpec &Row = Table[I];
    for (const Sample &S : legalSamples(Row)) {
      std::string Where = std::string(Row.Key) + "=" + S.Json;
      IPCPOptions Expected = Base;
      Vocabulary[I].Set(Expected, S.Value);

      // The flag, on every tool that takes it.
      for (unsigned Surface : {OnDriver, OnServerd, OnSuitecheck}) {
        if (!(Row.Surfaces & Surface))
          continue;
        IPCPOptions FromFlag = Base;
        std::string Error;
        if (!S.Flag.empty()) {
          EXPECT_TRUE(parseOptionFlag(S.Flag, Surface, FromFlag, Error))
              << S.Flag;
          EXPECT_EQ(Error, "") << S.Flag;
        }
        expectSameOptions(FromFlag, Expected, Where + " via " + S.Flag);
      }

      // The request member.
      if (!(Row.Surfaces & (OnOptions | OnLimits)))
        continue;
      std::string Member = Row.Surfaces & OnLimits ? "limits" : "options";
      ServiceRequest Req =
          parseOk(Engine, R"({"op":"analyze","suite":"simple",")" + Member +
                              R"(":{")" + Row.Key + "\":" + S.Json + "}}");
      expectSameOptions(Req.Opts, Expected, Where + " via the request");

      // The report echo, fed back as a request, lands on the same
      // options.
      JsonValue Echo = optionsToJson(Req.Opts);
      ServiceRequest Back = parseOk(
          Engine,
          R"({"op":"analyze","suite":"simple","options":)" + Echo.dump() + "}");
      Back.Opts.Limits = Req.Opts.Limits;
      expectSameOptions(Back.Opts, Expected, Where + " via the echo");
    }
  }
}

TEST(ServiceCodec, OptionErrorsNameTheSurface) {
  auto FlagError = [](const std::string &Arg, unsigned Surface) {
    IPCPOptions Opts;
    std::string Error;
    EXPECT_TRUE(parseOptionFlag(Arg, Surface, Opts, Error)) << Arg;
    return Error;
  };
  EXPECT_EQ(FlagError("--jf=bogus", OnDriver),
            "unknown jump function class 'bogus'");
  EXPECT_EQ(FlagError("--max-contexts=0", OnDriver),
            "--max-contexts must be in [1, 1048576]");
  EXPECT_EQ(FlagError("--limit-tokens=x", OnServerd),
            "malformed value in '--limit-tokens=x' (expect a non-negative "
            "integer)");
  // Flags stay on the tools that take them.
  IPCPOptions Opts;
  std::string Error;
  EXPECT_FALSE(parseOptionFlag("--jf=literal", OnServerd, Opts, Error));
  EXPECT_FALSE(parseOptionFlag("--max-contexts=8", OnSuitecheck, Opts, Error));
  EXPECT_FALSE(parseOptionFlag("--no-mod=1", OnDriver, Opts, Error));
  EXPECT_EQ(Error, "");

  ServiceEngine Engine(basicConfig());
  auto Message = [&](const std::string &Line) {
    ServiceRequest Req;
    std::string Code, Msg;
    EXPECT_FALSE(Engine.parseRequestLine(Line, Req, &Code, &Msg)) << Line;
    return Msg;
  };
  EXPECT_EQ(Message(R"({"op":"analyze","suite":"x","options":{"max_expr_nodes":0}})"),
            "'max_expr_nodes' must be in [1, 1048576]");
  EXPECT_EQ(Message(R"({"op":"analyze","suite":"x","options":{"schedule":"fifo"}})"),
            "unknown options key 'schedule'");
  EXPECT_EQ(Message(R"({"op":"analyze","suite":"x","options":{"entry_procedure":"f"}})"),
            "unknown options key 'entry_procedure'");
  EXPECT_EQ(Message(R"({"op":"analyze","suite":"x","limits":{"max_contexts":1}})"),
            "unknown limits key 'max_contexts'");
  EXPECT_EQ(Message(R"({"op":"analyze","suite":"x","options":{"return_jf":""}})"),
            "'return_jf' must be a boolean");
  // An empty spelling leaves a choice at its default, as it always has.
  ServiceRequest Req =
      parseOk(Engine, R"({"op":"analyze","suite":"x","options":{"forward_jf":""}})");
  EXPECT_EQ(Req.Opts.ForwardKind, JumpFunctionKind::Polynomial);
}

TEST(ServiceEnvelope, EchoesIdAndOrdersFields) {
  JsonValue Body = JsonValue::object();
  Body.set("status", "ok");
  JsonValue Id("client-7");
  std::string Line = buildServiceEnvelope(3, &Id, std::move(Body)).dump();
  EXPECT_EQ(Line,
            R"({"schema":"ipcp-service-v1","seq":3,"id":"client-7","status":"ok"})");
  JsonValue NoId = JsonValue::object();
  NoId.set("status", "ok");
  EXPECT_EQ(buildServiceEnvelope(0, nullptr, std::move(NoId)).dump(),
            R"({"schema":"ipcp-service-v1","seq":0,"status":"ok"})");
}

TEST(ServiceEngineTest, AnalyzeProducesDriverShapedReport) {
  ServiceEngine Engine(basicConfig());
  ServiceRequest Req;
  Req.Source = CalleeSource;
  Req.Name = "<request>";
  JsonValue Body = Engine.analyze(Req);
  EXPECT_EQ(statusOf(Body), "ok");
  const JsonValue *Report = Body.find("report");
  ASSERT_NE(Report, nullptr);
  EXPECT_EQ(Report->find("schema")->asString(), "ipcp-report-v1");
  ASSERT_NE(Report->find("result"), nullptr);
  // x=3 and g=2 propagate into callee; g=0 is known at main's entry.
  EXPECT_EQ(Report->find("result")->find("total_entry_constants")->asInt(), 3);
}

TEST(ServiceEngineTest, ReportsSourceAndSuiteErrors) {
  ServiceEngine Engine(basicConfig());
  ServiceRequest Req;
  Req.Source = "proc main() { print undeclared_var; }";
  JsonValue Body = Engine.analyze(Req);
  EXPECT_EQ(statusOf(Body), "error");
  EXPECT_EQ(Body.find("error")->find("code")->asString(), "source-error");

  ServiceRequest Unknown;
  Unknown.Suite = "no-such-program";
  Body = Engine.analyze(Unknown);
  EXPECT_EQ(statusOf(Body), "error");
  EXPECT_EQ(Body.find("error")->find("code")->asString(), "unknown-suite");

  // Without a resolver installed, every suite request fails.
  ServiceEngine Bare((ServiceEngine::Config()));
  ServiceRequest Suite;
  Suite.Suite = "simple";
  Body = Bare.analyze(Suite);
  EXPECT_EQ(Body.find("error")->find("code")->asString(), "unknown-suite");
}

TEST(ServiceEngineTest, FrontendTripDegradesWithResultFreeReport) {
  ServiceEngine Engine(basicConfig());
  ServiceRequest Req;
  Req.Source = CalleeSource;
  Req.Opts.Limits.MaxTokens = 3;
  JsonValue Body = Engine.analyze(Req);
  EXPECT_EQ(statusOf(Body), "degraded");
  const JsonValue *Report = Body.find("report");
  ASSERT_NE(Report, nullptr);
  EXPECT_EQ(Report->find("result"), nullptr);
  EXPECT_TRUE(Report->find("degraded")->asBool());
  ASSERT_NE(Report->find("degradation"), nullptr);
}

TEST(ServiceEngineTest, WarmSessionSkipsAllEvaluations) {
  // Every suite program cold then warm in its session, then one warm
  // batch of the whole suite: a warm request, single or batched,
  // evaluates no jump function.
  ServiceDispatcher Svc(serialService(basicConfig()));
  const std::vector<SuiteProgram> &Suite = benchmarkSuite();
  std::string Batch = R"({"op":"analyze-batch","requests":[)";
  for (const SuiteProgram &Prog : Suite) {
    std::string Line = analyzeLine(Prog.Name, "warm-test");
    JsonValue Cold = serve(Svc, Line);
    JsonValue Warm = serve(Svc, Line);
    EXPECT_EQ(statusOf(Cold), "ok") << Prog.Name;
    EXPECT_EQ(statusOf(Warm), "ok") << Prog.Name;
    EXPECT_GT(counter(Cold, "prop_evaluations"), 0u) << Prog.Name;
    EXPECT_EQ(counter(Warm, "prop_evaluations"), 0u) << Prog.Name;
    EXPECT_GT(counter(Warm, "cache_hits"), 0u) << Prog.Name;
    // Results are identical modulo the warm-volatile fields.
    JsonValue NormCold = *Cold.find("report");
    JsonValue NormWarm = *Warm.find("report");
    normalizeReportForDiff(NormCold);
    normalizeReportForDiff(NormWarm);
    EXPECT_EQ(NormCold.dump(), NormWarm.dump()) << Prog.Name;
    Batch += (&Prog == &Suite.front() ? "" : ",") + Line;
  }
  JsonValue Batched = serve(Svc, Batch + "]}");
  EXPECT_EQ(statusOf(Batched), "ok");
  const JsonValue *Items = Batched.find("responses");
  ASSERT_NE(Items, nullptr);
  ASSERT_EQ(Items->size(), Suite.size());
  for (size_t I = 0; I != Suite.size(); ++I) {
    EXPECT_EQ(statusOf(Items->at(I)), "ok") << Suite[I].Name;
    EXPECT_EQ(counter(Items->at(I), "prop_evaluations"), 0u) << Suite[I].Name;
    EXPECT_GT(counter(Items->at(I), "cache_hits"), 0u) << Suite[I].Name;
  }

  JsonValue Stats = serve(Svc, R"({"op":"stats"})");
  const JsonValue *S = Stats.find("stats");
  int64_t N = int64_t(Suite.size());
  EXPECT_EQ(S->find("analyze_requests")->asInt(), 3 * N);
  EXPECT_EQ(S->find("warm_hits")->asInt(), 2 * N);
  EXPECT_EQ(S->find("sessions_resident")->asInt(), N);
}

// The log `ipcp_serverd --emit-sample-log=24 --sample-seed=7` prints,
// replayed through the serial dispatcher: every ok embedded report, warm
// or cold, equals the report of a cold RequestRun of the same request
// once normalizeReportForDiff strips the warm-volatile fields.
TEST(ServiceEngineTest, ReplayedReportsEqualColdRuns) {
  ServiceLogConfig Config;
  Config.Seed = 7;
  Config.Requests = 24;
  std::vector<std::string> Log = generateServiceLog(Config);
  ServiceDispatcher Svc(serialService(basicConfig()));
  std::vector<std::string> Out = test::runLines(Svc, Log);
  ASSERT_EQ(Out.size(), Log.size());

  ServiceEngine Parser(basicConfig());
  unsigned Checked = 0, Warm = 0;
  auto Check = [&](const ServiceRequest &Req, const JsonValue &Body) {
    if (statusOf(Body) != "ok")
      return;
    const SuiteProgram *Prog = findSuiteProgram(Req.Suite);
    ASSERT_NE(Prog, nullptr) << Req.Suite;
    RequestRun Run(Req);
    ASSERT_TRUE(Run.compile(Prog->Source)) << Req.Suite;
    Run.run(nullptr);
    JsonValue Cold = Run.report(/*Scrub=*/true);
    JsonValue Got = *Body.find("report");
    normalizeReportForDiff(Cold);
    normalizeReportForDiff(Got);
    EXPECT_EQ(Got.dump(), Cold.dump()) << Req.Id.dump();
    Warm += counter(Body, "cache_hits") > 0;
    ++Checked;
  };
  for (size_t I = 0; I != Log.size(); ++I) {
    ServiceRequest Req = parseOk(Parser, Log[I]);
    std::optional<JsonValue> Response = JsonValue::parse(Out[I]);
    ASSERT_TRUE(Response.has_value()) << Out[I];
    EXPECT_EQ(Response->find("seq")->asInt(), int64_t(I));
    if (Req.Op == ServiceRequest::Kind::Analyze) {
      Check(Req, *Response);
    } else if (Req.Op == ServiceRequest::Kind::AnalyzeBatch) {
      const JsonValue *Items = Response->find("responses");
      ASSERT_NE(Items, nullptr) << Out[I];
      ASSERT_EQ(Items->size(), Req.Batch.size()) << Out[I];
      for (size_t K = 0; K != Req.Batch.size(); ++K)
        Check(Req.Batch[K], Items->at(K));
    }
  }
  EXPECT_EQ(Checked, Config.Requests);
  EXPECT_GT(Warm, 0u);
}

TEST(ServiceEngineTest, DistinctOptionsNeverShareASession) {
  ServiceEngine Engine(basicConfig());
  ServiceRequest Poly;
  Poly.Suite = Poly.Name = "simple";
  Poly.Session = "s";
  ServiceRequest Lit = Poly;
  Lit.Opts.ForwardKind = JumpFunctionKind::Literal;
  Engine.analyze(Poly);
  JsonValue Other = Engine.analyze(Lit);
  // Different fingerprint => separate (cold) session, not a poisoned hit.
  EXPECT_EQ(counter(Other, "cache_hits"), 0u);
  EXPECT_EQ(Engine.snapshot()[ServiceEngine::SessionsResident], 2u);
}

TEST(ServiceEngineTest, UnmodeledOptionsTakeNoSession) {
  // The summary format does not model these configurations
  // (SummaryCache::models), so a session request keeps no session and
  // answers exactly as the same request without one.
  ServiceDispatcher Svc(serialService(basicConfig()));
  auto Resident = [&] {
    JsonValue Stats = serve(Svc, R"({"op":"stats"})");
    return Stats.find("stats")->find("sessions_resident")->asInt();
  };
  for (std::string Options :
       {R"("engine":"contexts")", R"("intraprocedural_only":true)"}) {
    std::string Line = R"({"op":"analyze","suite":"simple",)"
                       R"("scrub_timings":true,"options":{)" +
                       Options + "}";
    JsonValue Plain = serve(Svc, Line + "}");
    JsonValue InSession = serve(Svc, Line + R"(,"session":"s"})");
    EXPECT_EQ(statusOf(InSession), "ok") << Options;
    EXPECT_EQ(InSession.find("report")->dump(), Plain.find("report")->dump())
        << Options;
  }
  EXPECT_EQ(Resident(), 0);
  serve(Svc, analyzeLine("simple", "s"));
  EXPECT_EQ(Resident(), 1);
}

TEST(ServiceEngineTest, BindingGraphIsAnUnknownOptionsKey) {
  // The binding multigraph is a reference solver, not an option: a
  // request that names it is refused like any other unknown key, never
  // analyzed under defaults.
  ServiceDispatcher Svc(serialService(basicConfig()));
  JsonValue Body =
      serve(Svc, R"({"op":"analyze","suite":"simple",)"
                 R"("options":{"binding_graph":false}})");
  EXPECT_EQ(statusOf(Body), "error");
  ASSERT_NE(Body.find("error"), nullptr);
  EXPECT_EQ(Body.find("error")->find("code")->asString(), "bad-request");
  EXPECT_EQ(Body.find("error")->find("message")->asString(),
            "unknown options key 'binding_graph'");
  EXPECT_EQ(Body.find("report"), nullptr);
}

TEST(ServiceEngineTest, BatchBodySharesTheSingleRequestPath) {
  ServiceDispatcher Svc(serialService(basicConfig()));
  JsonValue Body = serve(
      Svc, R"({"op":"analyze-batch","requests":[)"
           R"({"op":"analyze","suite":"simple","scrub_timings":true},)"
           R"({"op":"analyze","id":"second",)"
           R"("source":"proc main() { print undeclared; }"}]})");
  EXPECT_EQ(statusOf(Body), "ok");
  const JsonValue *Responses = Body.find("responses");
  ASSERT_NE(Responses, nullptr);
  ASSERT_EQ(Responses->size(), 2u);
  EXPECT_EQ(Responses->at(0).find("index")->asInt(), 0);
  EXPECT_EQ(statusOf(Responses->at(0)), "ok");
  EXPECT_EQ(Responses->at(1).find("id")->asString(), "second");
  EXPECT_EQ(statusOf(Responses->at(1)), "error");
  // The item body is exactly what an engine's analyze of the same request
  // produces — index/id aside, the bytes cannot diverge.
  ServiceEngine Engine(basicConfig());
  ServiceRequest A;
  A.Suite = A.Name = "simple";
  A.ScrubTimings = true;
  JsonValue Lone = Engine.analyze(A);
  JsonValue Item = Responses->at(0);
  Item.remove("index");
  EXPECT_EQ(Item.dump(), Lone.dump());
}

TEST(ServiceEngineTest, ConcurrentTurnstileMatchesSerialBytes) {
  // A request mix with heavy session sharing: the turnstile must replay
  // the serial warm/cold order no matter how the pool interleaves.
  std::vector<ServiceRequest> Requests;
  const char *Suites[] = {"simple", "trfd", "mdg"};
  for (int I = 0; I != 12; ++I) {
    ServiceRequest Req;
    Req.Suite = Req.Name = Suites[I % 3];
    Req.Session = I % 2 ? "even" : "odd";
    Req.ScrubTimings = true;
    Requests.push_back(std::move(Req));
  }

  ServiceEngine Serial(basicConfig());
  std::vector<std::string> Expected;
  for (const ServiceRequest &Req : Requests)
    Expected.push_back(Serial.analyze(Req).dump());

  for (unsigned Round = 0; Round != 3; ++Round) {
    ServiceEngine Conc(basicConfig());
    std::vector<std::string> Got(Requests.size());
    ThreadPool Pool(4);
    for (size_t I = 0; I != Requests.size(); ++I) {
      // Turns are reserved on this thread in request order — exactly
      // what the daemon's reader thread does.
      ServiceEngine::SessionTurn Turn = Conc.reserveTurn(Requests[I]);
      Pool.submit([&Conc, &Got, &Requests, I, Turn]() mutable {
        Got[I] = Conc.analyze(Requests[I], std::move(Turn)).dump();
      });
    }
    Pool.wait();
    for (size_t I = 0; I != Requests.size(); ++I)
      EXPECT_EQ(Got[I], Expected[I]) << "request " << I << " round " << Round;
  }
}

TEST(ServiceEngineTest, EvictionWritesBehindAndReloads) {
  std::string Dir = ::testing::TempDir() + "ipcp-service-evict";
  std::filesystem::remove_all(Dir);
  ServiceEngine::Config Conf = basicConfig();
  Conf.Store = std::make_shared<ContentStore>(Dir);
  Conf.MaxSessions = 1;

  {
    ServiceDispatcher Svc(serialService(Conf));
    ServiceRequest A;
    A.Suite = A.Name = "simple";
    A.Session = "a";
    ServiceRequest B = A;
    // Eviction is per cache bucket, so B must land in A's bucket to
    // contend for the single resident slot.
    for (int I = 0;; ++I) {
      B.Session = 'b' + std::to_string(I);
      if (ServiceEngine::bucketFor(ServiceEngine::sessionKeyFor(B)) ==
          ServiceEngine::bucketFor(ServiceEngine::sessionKeyFor(A)))
        break;
    }
    serve(Svc, analyzeLine("simple", "a"));
    serve(Svc, analyzeLine("simple", B.Session)); // evicts a, persisting it
    JsonValue Stats = serve(Svc, R"({"op":"stats"})");
    const JsonValue *S = Stats.find("stats");
    EXPECT_EQ(S->find("session_evictions")->asInt(), 1);
    EXPECT_EQ(S->find("write_behind_saves")->asInt(), 1);
    EXPECT_EQ(S->find("sessions_resident")->asInt(), 1);
    // Re-acquiring the evicted session loads the disk tier and is warm.
    JsonValue Again = serve(Svc, analyzeLine("simple", "a"));
    EXPECT_EQ(counter(Again, "prop_evaluations"), 0u);
  }

  // A fresh service (daemon restart) warms up from the same files.
  Conf.Store = std::make_shared<ContentStore>(Dir);
  ServiceDispatcher Fresh(serialService(Conf));
  JsonValue Warm = serve(Fresh, analyzeLine("simple", "a"));
  EXPECT_EQ(counter(Warm, "prop_evaluations"), 0u);
  JsonValue Stats = serve(Fresh, R"({"op":"stats"})");
  EXPECT_EQ(Stats.find("stats")->find("disk_loads")->asInt(), 1);
  std::filesystem::remove_all(Dir);
}

TEST(ServiceEngineTest, FlushPersistsAndDropsEverything) {
  std::string Dir = ::testing::TempDir() + "ipcp-service-flush";
  std::filesystem::remove_all(Dir);
  ServiceEngine::Config Conf = basicConfig();
  Conf.Store = std::make_shared<ContentStore>(Dir);
  ServiceDispatcher Svc(serialService(Conf));
  serve(Svc, analyzeLine("simple", "s"));
  JsonValue Flush = serve(Svc, R"({"op":"flush-cache"})");
  EXPECT_EQ(Flush.find("sessions_flushed")->asInt(), 1);
  EXPECT_EQ(Flush.find("persisted")->asInt(), 1);
  JsonValue Stats = serve(Svc, R"({"op":"stats"})");
  EXPECT_EQ(Stats.find("stats")->find("sessions_resident")->asInt(), 0);
  EXPECT_FALSE(std::filesystem::is_empty(Dir));
  std::filesystem::remove_all(Dir);
}

TEST(ServiceEngineTest, LoadFailureCountsOnlyOnTheRunThatUsedIt) {
  std::string Dir = ::testing::TempDir() + "ipcp-service-load-failure";
  std::filesystem::remove_all(Dir);
  ServiceEngine::Config Conf = basicConfig();
  Conf.Store = std::make_shared<ContentStore>(Dir);
  // Bytes that pass the store's check but not the codec, under the name
  // the session's summaries are stored by.
  ASSERT_FALSE(Conf.Store
                   ->putNamed(SummaryCache::storeName("simple", IPCPOptions()),
                              "not a summary")
                   .empty());
  ServiceDispatcher Svc(serialService(Conf));
  JsonValue Cold = serve(Svc, analyzeLine("simple", "s"));
  EXPECT_EQ(counter(Cold, "cache_load_failures"), 1u);
  EXPECT_GT(counter(Cold, "cache_misses"), 0u);
  // The session loaded once; its later runs are warm and did not use
  // that load.
  for (int Run = 2; Run <= 3; ++Run) {
    JsonValue Warm = serve(Svc, analyzeLine("simple", "s"));
    EXPECT_EQ(counter(Warm, "cache_load_failures"), 0u) << "run " << Run;
    EXPECT_EQ(counter(Warm, "cache_misses"), 0u) << "run " << Run;
    EXPECT_GT(counter(Warm, "cache_hits"), 0u) << "run " << Run;
  }
  std::filesystem::remove_all(Dir);
}

TEST(AdmissionGateTest, BoundsInFlightWork) {
  AdmissionGate Gate(2);
  EXPECT_TRUE(Gate.tryAcquire());
  EXPECT_TRUE(Gate.tryAcquire());
  EXPECT_FALSE(Gate.tryAcquire());
  EXPECT_EQ(Gate.inFlight(), 2u);
  Gate.release();
  EXPECT_TRUE(Gate.tryAcquire());
  Gate.release(2);
  // Batch admission is all-or-nothing.
  EXPECT_FALSE(Gate.tryAcquire(3));
  EXPECT_TRUE(Gate.tryAcquire(2));
  // Limit zero admits nothing — the deterministic backpressure config.
  AdmissionGate Closed(0);
  EXPECT_FALSE(Closed.tryAcquire());
}

TEST(OrderedResultQueueTest, DeliversInSequenceOrder) {
  OrderedResultQueue<int> Queue;
  Queue.push(2, 20);
  Queue.push(0, 0);
  Queue.push(1, 10);
  Queue.close();
  int Out = -1;
  EXPECT_TRUE(Queue.pop(Out));
  EXPECT_EQ(Out, 0);
  EXPECT_TRUE(Queue.pop(Out));
  EXPECT_EQ(Out, 10);
  EXPECT_TRUE(Queue.pop(Out));
  EXPECT_EQ(Out, 20);
  EXPECT_FALSE(Queue.pop(Out));
}

TEST(OrderedResultQueueTest, ConcurrentProducersOneConsumer) {
  OrderedResultQueue<uint64_t> Queue;
  ThreadPool Pool(4);
  const uint64_t N = 64;
  for (uint64_t I = 0; I != N; ++I)
    Pool.submit([&Queue, I] { Queue.push(I, I * 3); });
  std::vector<uint64_t> Seen;
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Out = 0;
    EXPECT_TRUE(Queue.pop(Out));
    Seen.push_back(Out);
  }
  Pool.wait();
  Queue.close();
  for (uint64_t I = 0; I != N; ++I)
    EXPECT_EQ(Seen[I], I * 3);
}

TEST(ServiceWorkloadTest, LogsAreDeterministicAndWellFormed) {
  ServiceLogConfig Config;
  Config.Seed = 9;
  Config.Requests = 10;
  std::vector<std::string> A = generateServiceLog(Config);
  std::vector<std::string> B = generateServiceLog(Config);
  EXPECT_EQ(A, B);
  ASSERT_GE(A.size(), 3u); // analyses + stats + shutdown
  EXPECT_NE(A.back().find("shutdown"), std::string::npos);

  // Every generated line parses as a valid request.
  ServiceEngine Engine(basicConfig());
  unsigned Analyses = 0;
  for (const std::string &Line : A) {
    ServiceRequest Req = parseOk(Engine, Line);
    if (Req.Op == ServiceRequest::Kind::Analyze)
      ++Analyses;
    else if (Req.Op == ServiceRequest::Kind::AnalyzeBatch)
      Analyses += unsigned(Req.Batch.size());
  }
  EXPECT_EQ(Analyses, 10u);

  Config.Seed = 10;
  EXPECT_NE(generateServiceLog(Config), A);
}

} // namespace
