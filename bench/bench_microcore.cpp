//===- bench/bench_microcore.cpp - Data-oriented core micro paths ---------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Microbenchmarks for the three core paths the data-oriented rewrite
// (docs/PERFORMANCE.md) targets, isolated from the full pipeline:
//
//  1. SymExpr construction and hash-consing — a fresh-context build of a
//     deterministic expression population over the suite's real formals
//     (every intern is a miss) and an all-hit rebuild in a populated
//     context (every intern probes the flat hash-cons table and returns
//     the existing node).
//
//  2. VAL-vector meet sweep — the propagator's inner update, a meet into
//     a flat per-procedure lattice vector, swept over a deterministic
//     slot/value pattern.
//
//  3. Instruction-stream traversal — a linear walk of the contiguous
//     Procedure::instStream() array versus the nested block-list walk it
//     replaced, over every procedure of the twelve suite modules.
//
// The headline numbers land in BENCH_microcore.json (when
// IPCP_BENCH_JSON_DIR is set, see docs/OBSERVABILITY.md). The traversal
// and hash-consing sections carry deterministic counters (instruction
// count, unique-node count) so CI can pin them; wall-clock figures are
// informational. Exit is nonzero if the two traversals disagree or an
// all-hit rebuild allocates new nodes — both would be correctness bugs
// in the flat layouts, not perf regressions.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/JumpFunction.h"
#include "core/Lattice.h"
#include "ir/BasicBlock.h"
#include "ir/Instructions.h"
#include "ir/Module.h"
#include "ir/Procedure.h"
#include "support/Statistics.h"
#include "workload/Programs.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

using namespace ipcp;

namespace {

/// Every formal of every suite procedure, in module/procedure order —
/// the variable population real jump-function construction runs over.
const std::vector<Variable *> &suiteFormals() {
  static std::vector<Variable *> Formals = [] {
    std::vector<Variable *> Out;
    for (const auto &M : suiteModules())
      for (const auto &P : M->procedures())
        for (Variable *F : P->formals())
          Out.push_back(F);
    return Out;
  }();
  return Formals;
}

/// Builds a deterministic polynomial-shaped expression population over
/// \p Formals in \p Ctx: for each adjacent formal pair (a, b) the trees
/// a, b, a*k, a*k+b, (a*k+b)-a, and -(a+b) for k in 2..5. Mirrors the
/// shapes the polynomial jump-function builder interns. Returns the
/// number of root constructions attempted (not unique nodes).
size_t buildExprPopulation(SymExprContext &Ctx,
                           const std::vector<Variable *> &Formals) {
  size_t Roots = 0;
  for (size_t I = 0; I + 1 < Formals.size(); ++I) {
    const SymExpr *A = Ctx.getFormal(Formals[I]);
    const SymExpr *B = Ctx.getFormal(Formals[I + 1]);
    for (ConstantValue K = 2; K <= 5; ++K) {
      const SymExpr *Scaled = Ctx.getBinary(BinaryOp::Mul, A, Ctx.getConst(K));
      const SymExpr *Affine = Ctx.getBinary(BinaryOp::Add, Scaled, B);
      const SymExpr *Diff = Ctx.getBinary(BinaryOp::Sub, Affine, A);
      const SymExpr *Neg =
          Ctx.getUnary(UnaryOp::Neg, Ctx.getBinary(BinaryOp::Add, A, B));
      benchmark::DoNotOptimize(Diff);
      benchmark::DoNotOptimize(Neg);
      Roots += 4;
    }
  }
  return Roots;
}

/// One meet sweep over \p VAL with a deterministic slot/value pattern;
/// returns the number of lowerings (changed slots). The pattern lowers
/// each slot at most twice (top -> constant -> bottom for every third
/// slot), like the propagator's two-drop lattice discipline.
size_t meetSweep(std::vector<LatticeValue> &VAL) {
  size_t Lowerings = 0;
  for (size_t I = 0, N = VAL.size(); I != N; ++I) {
    LatticeValue Incoming = LatticeValue::constant(ConstantValue(I % 7));
    LatticeValue Met = meet(VAL[I], Incoming);
    if (!(Met == VAL[I])) {
      VAL[I] = Met;
      ++Lowerings;
    }
  }
  for (size_t I = 0, N = VAL.size(); I < N; I += 3) {
    LatticeValue Met = meet(VAL[I], LatticeValue::constant(ConstantValue(1)));
    if (!(Met == VAL[I])) {
      VAL[I] = Met;
      ++Lowerings;
    }
  }
  return Lowerings;
}

/// Linear walk of the flat instruction stream: one contiguous array per
/// procedure, no per-block indirection.
size_t walkLinear() {
  size_t Count = 0;
  for (const auto &M : suiteModules())
    for (const auto &P : M->procedures()) {
      const Procedure::InstStream &S = P->instStream();
      for (Instruction *I : S.Insts) {
        benchmark::DoNotOptimize(I);
        ++Count;
      }
    }
  return Count;
}

/// The nested walk the stream replaced: block list, then each block's
/// linked instruction list.
size_t walkNested() {
  size_t Count = 0;
  for (const auto &M : suiteModules())
    for (const auto &P : M->procedures())
      for (BasicBlock *B : P->blocks())
        for (Instruction *I : B->instructions()) {
          benchmark::DoNotOptimize(I);
          ++Count;
        }
  return Count;
}

// Google-benchmark coverage of the same paths for `--benchmark_*` runs;
// the headline section in main() is what CI and BENCH_microcore.json
// consume.

void BM_SymExprFreshBuild(benchmark::State &State) {
  for (auto _ : State) {
    SymExprContext Ctx;
    benchmark::DoNotOptimize(buildExprPopulation(Ctx, suiteFormals()));
  }
}
BENCHMARK(BM_SymExprFreshBuild);

void BM_SymExprAllHit(benchmark::State &State) {
  SymExprContext Ctx;
  buildExprPopulation(Ctx, suiteFormals());
  for (auto _ : State)
    benchmark::DoNotOptimize(buildExprPopulation(Ctx, suiteFormals()));
}
BENCHMARK(BM_SymExprAllHit);

void BM_ValMeetSweep(benchmark::State &State) {
  for (auto _ : State) {
    std::vector<LatticeValue> VAL(4096, LatticeValue::top());
    benchmark::DoNotOptimize(meetSweep(VAL));
  }
}
BENCHMARK(BM_ValMeetSweep);

void BM_InstStreamLinear(benchmark::State &State) {
  walkLinear(); // materialize the cached streams outside the loop
  for (auto _ : State)
    benchmark::DoNotOptimize(walkLinear());
}
BENCHMARK(BM_InstStreamLinear);

void BM_InstStreamNested(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(walkNested());
}
BENCHMARK(BM_InstStreamNested);

/// Times \p Reps calls of \p Fn and returns microseconds per call.
template <typename FnT> double usPerCall(unsigned Reps, FnT Fn) {
  Timer T;
  for (unsigned I = 0; I != Reps; ++I)
    Fn();
  return T.seconds() * 1e6 / Reps;
}

} // namespace

int main(int argc, char **argv) {
  const unsigned Reps = 200;

  // Hash-consing: fresh-context (all-miss) population build, then the
  // all-hit rebuild. The rebuild must not grow the context.
  SymExprContext HitCtx;
  size_t Roots = buildExprPopulation(HitCtx, suiteFormals());
  size_t UniqueExprs = HitCtx.uniqueExprCount();
  double FreshUs = usPerCall(Reps, [] {
    SymExprContext Ctx;
    buildExprPopulation(Ctx, suiteFormals());
  });
  double HitUs =
      usPerCall(Reps, [&] { buildExprPopulation(HitCtx, suiteFormals()); });
  bool HitStable = HitCtx.uniqueExprCount() == UniqueExprs;

  // VAL meet sweep over a propagator-sized flat row.
  const size_t ValSlots = 4096;
  std::vector<LatticeValue> Probe(ValSlots, LatticeValue::top());
  size_t Lowerings = meetSweep(Probe);
  double MeetUs = usPerCall(Reps, [&] {
    std::vector<LatticeValue> VAL(ValSlots, LatticeValue::top());
    meetSweep(VAL);
  });

  // Instruction-stream traversal, linear vs nested.
  size_t LinearCount = walkLinear();
  size_t NestedCount = walkNested();
  double LinearUs = usPerCall(Reps, [] { walkLinear(); });
  double NestedUs = usPerCall(Reps, [] { walkNested(); });

  std::printf("microcore paths over the %zu-program suite "
              "(%u reps each):\n",
              benchmarkSuite().size(), Reps);
  std::printf("  symexpr fresh build    %8.2f us/build  "
              "(%zu roots -> %zu unique nodes)\n",
              FreshUs, Roots, UniqueExprs);
  std::printf("  symexpr all-hit build  %8.2f us/build  "
              "(context stable: %s)\n",
              HitUs, HitStable ? "yes" : "NO");
  std::printf("  VAL meet sweep         %8.2f us/sweep  "
              "(%zu slots, %zu lowerings)\n",
              MeetUs, ValSlots, Lowerings);
  std::printf("  inst stream linear     %8.2f us/walk   "
              "(%zu instructions)\n",
              LinearUs, LinearCount);
  std::printf("  inst stream nested     %8.2f us/walk   "
              "(%zu instructions)\n",
              NestedUs, NestedCount);
  bool CountsAgree = LinearCount == NestedCount;
  std::printf("  traversals agree: %s\n\n", CountsAgree ? "yes" : "NO");

  JsonValue Doc = JsonValue::object();
  JsonValue Sym = JsonValue::object();
  Sym.set("roots", Roots);
  Sym.set("unique_exprs", UniqueExprs);
  Sym.set("fresh_us", FreshUs);
  Sym.set("all_hit_us", HitUs);
  Sym.set("all_hit_stable", HitStable);
  Doc.set("symexpr", std::move(Sym));
  JsonValue Meet = JsonValue::object();
  Meet.set("slots", ValSlots);
  Meet.set("lowerings", Lowerings);
  Meet.set("sweep_us", MeetUs);
  Doc.set("val_meet", std::move(Meet));
  JsonValue Stream = JsonValue::object();
  Stream.set("instructions", LinearCount);
  Stream.set("linear_us", LinearUs);
  Stream.set("nested_us", NestedUs);
  Doc.set("inst_stream", std::move(Stream));
  Doc.set("ok", HitStable && CountsAgree);
  benchReport("microcore", std::move(Doc));

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return (HitStable && CountsAgree) ? 0 : 1;
}
