//===- bench/bench_table2_jumpfuncs.cpp - Table 2 reproduction ------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Reproduces Table 2, "Constants found through use of jump functions":
// the substituted-constant counts for the four forward jump function
// classes (with return jump functions) and for polynomial/pass-through
// without return jump functions, over the twelve-program suite.
//
// Expected shape (paper Section 4.2): polynomial == pass-through >=
// intraprocedural >= literal in every row; return jump functions matter
// in a few programs and dominate ocean.
//
// The timing benchmarks measure one full analysis per configuration over
// the whole suite — the compile-time side of the paper's cost/precision
// tradeoff.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/SuiteRunner.h"
#include "workload/Study.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipcp;

namespace {

void runSuite(benchmark::State &State, IPCPOptions Opts) {
  for (auto _ : State) {
    unsigned Total = 0;
    for (const std::unique_ptr<Module> &M : suiteModules())
      Total += runIPCP(*M, Opts).TotalConstantRefs;
    benchmark::DoNotOptimize(Total);
  }
}

void BM_AnalyzeSuite(benchmark::State &State) {
  IPCPOptions Opts;
  switch (State.range(0)) {
  case 0:
    Opts.ForwardKind = JumpFunctionKind::Literal;
    State.SetLabel("literal");
    break;
  case 1:
    Opts.ForwardKind = JumpFunctionKind::IntraproceduralConstant;
    State.SetLabel("intra");
    break;
  case 2:
    Opts.ForwardKind = JumpFunctionKind::PassThrough;
    State.SetLabel("pass-through");
    break;
  default:
    Opts.ForwardKind = JumpFunctionKind::Polynomial;
    State.SetLabel("polynomial");
    break;
  }
  runSuite(State, Opts);
}
BENCHMARK(BM_AnalyzeSuite)->DenseRange(0, 3)->ArgName("class");

void BM_AnalyzeSuiteNoReturnJFs(benchmark::State &State) {
  IPCPOptions Opts;
  Opts.UseReturnJumpFunctions = false;
  State.SetLabel("polynomial/no-ret");
  runSuite(State, Opts);
}
BENCHMARK(BM_AnalyzeSuiteNoReturnJFs);

} // namespace

int main(int argc, char **argv) {
  SuiteRunner Runner;
  std::vector<Table2Row> Rows = computeTable2(benchmarkSuite(), &Runner);
  std::printf("%s\n", formatTable2(Rows).c_str());

  unsigned Poly = 0, Pass = 0, Intra = 0, Literal = 0, PolyNoRet = 0;
  for (const Table2Row &Row : Rows) {
    Poly += Row.Polynomial;
    Pass += Row.PassThrough;
    Intra += Row.Intraprocedural;
    Literal += Row.Literal;
    PolyNoRet += Row.PolynomialNoRet;
  }
  std::printf("totals: polynomial=%u pass-through=%u intra=%u literal=%u "
              "polynomial-without-return-JFs=%u\n",
              Poly, Pass, Intra, Literal, PolyNoRet);
  std::printf("paper-shape checks: poly==pass-through: %s; "
              "pass>=intra>=literal: %s\n\n",
              Poly == Pass ? "yes" : "NO",
              (Pass >= Intra && Intra >= Literal) ? "yes" : "NO");

  JsonValue Totals = JsonValue::object();
  Totals.set("polynomial", Poly);
  Totals.set("pass_through", Pass);
  Totals.set("intraprocedural", Intra);
  Totals.set("literal", Literal);
  Totals.set("polynomial_no_return_jf", PolyNoRet);
  JsonValue Doc = JsonValue::object();
  Doc.set("table2", table2ToJson(Rows));
  Doc.set("totals", std::move(Totals));
  benchReport("table2", std::move(Doc));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
