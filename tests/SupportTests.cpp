//===- tests/SupportTests.cpp - support library tests ---------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/Casting.h"
#include "support/ConstantMath.h"
#include "support/Diagnostics.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Worklist.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

using namespace ipcp;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Shape {
  enum class Kind { Circle, Square };
  explicit Shape(Kind K) : TheKind(K) {}
  Kind getKind() const { return TheKind; }

private:
  Kind TheKind;
};

struct Circle : Shape {
  Circle() : Shape(Kind::Circle) {}
  static bool classof(const Shape *S) { return S->getKind() == Kind::Circle; }
};

struct Square : Shape {
  Square() : Shape(Kind::Square) {}
  static bool classof(const Shape *S) { return S->getKind() == Kind::Square; }
};

TEST(Casting, IsaAndCast) {
  Circle C;
  Shape *S = &C;
  EXPECT_TRUE(isa<Circle>(S));
  EXPECT_FALSE(isa<Square>(S));
  EXPECT_EQ(cast<Circle>(S), &C);
}

TEST(Casting, VariadicIsa) {
  Square Sq;
  Shape *S = &Sq;
  bool Matches = isa<Circle, Square>(S);
  EXPECT_TRUE(Matches);
}

TEST(Casting, DynCast) {
  Square Sq;
  Shape *S = &Sq;
  EXPECT_EQ(dyn_cast<Circle>(S), nullptr);
  EXPECT_EQ(dyn_cast<Square>(S), &Sq);
}

TEST(Casting, NullTolerantVariants) {
  Shape *Null = nullptr;
  EXPECT_FALSE(isa_and_nonnull<Circle>(Null));
  EXPECT_EQ(dyn_cast_or_null<Circle>(Null), nullptr);
  Circle C;
  Shape *S = &C;
  EXPECT_TRUE(isa_and_nonnull<Circle>(S));
  EXPECT_EQ(dyn_cast_or_null<Circle>(S), &C);
}

TEST(Casting, ConstOverloads) {
  const Circle C;
  const Shape *S = &C;
  EXPECT_EQ(cast<Circle>(S), &C);
  EXPECT_EQ(dyn_cast<Square>(S), nullptr);
}

//===----------------------------------------------------------------------===//
// ConstantMath
//===----------------------------------------------------------------------===//

constexpr ConstantValue IntMax = std::numeric_limits<ConstantValue>::max();
constexpr ConstantValue IntMin = std::numeric_limits<ConstantValue>::min();

TEST(ConstantMath, BasicFolds) {
  EXPECT_EQ(foldBinary(BinaryOp::Add, 2, 3), 5);
  EXPECT_EQ(foldBinary(BinaryOp::Sub, 2, 3), -1);
  EXPECT_EQ(foldBinary(BinaryOp::Mul, -4, 3), -12);
  EXPECT_EQ(foldBinary(BinaryOp::Div, 7, 2), 3);
  EXPECT_EQ(foldBinary(BinaryOp::Div, -7, 2), -3) << "truncating division";
  EXPECT_EQ(foldBinary(BinaryOp::Mod, 7, 3), 1);
  EXPECT_EQ(foldBinary(BinaryOp::Mod, -7, 3), -1) << "C++ remainder sign";
}

TEST(ConstantMath, Comparisons) {
  EXPECT_EQ(foldBinary(BinaryOp::CmpEq, 3, 3), 1);
  EXPECT_EQ(foldBinary(BinaryOp::CmpNe, 3, 3), 0);
  EXPECT_EQ(foldBinary(BinaryOp::CmpLt, 2, 3), 1);
  EXPECT_EQ(foldBinary(BinaryOp::CmpLe, 3, 3), 1);
  EXPECT_EQ(foldBinary(BinaryOp::CmpGt, 2, 3), 0);
  EXPECT_EQ(foldBinary(BinaryOp::CmpGe, 2, 3), 0);
}

TEST(ConstantMath, AddOverflowDeclines) {
  EXPECT_EQ(checkedAdd(IntMax, 1), std::nullopt);
  EXPECT_EQ(checkedAdd(IntMin, -1), std::nullopt);
  EXPECT_EQ(checkedAdd(IntMax, 0), IntMax);
}

TEST(ConstantMath, SubOverflowDeclines) {
  EXPECT_EQ(checkedSub(IntMin, 1), std::nullopt);
  EXPECT_EQ(checkedSub(0, IntMin), std::nullopt);
}

TEST(ConstantMath, MulOverflowDeclines) {
  EXPECT_EQ(checkedMul(IntMax, 2), std::nullopt);
  EXPECT_EQ(checkedMul(IntMin, -1), std::nullopt);
  EXPECT_EQ(checkedMul(IntMax, 1), IntMax);
}

TEST(ConstantMath, DivisionEdgeCases) {
  EXPECT_EQ(checkedDiv(5, 0), std::nullopt);
  EXPECT_EQ(checkedDiv(IntMin, -1), std::nullopt);
  EXPECT_EQ(checkedRem(5, 0), std::nullopt);
  EXPECT_EQ(checkedRem(IntMin, -1), std::nullopt);
  EXPECT_EQ(checkedDiv(IntMin, 1), IntMin);
}

TEST(ConstantMath, NegationEdgeCases) {
  EXPECT_EQ(checkedNeg(IntMin), std::nullopt);
  EXPECT_EQ(checkedNeg(IntMax), -IntMax);
  EXPECT_EQ(foldUnary(UnaryOp::Neg, 5), -5);
  EXPECT_EQ(foldUnary(UnaryOp::Not, 0), 1);
  EXPECT_EQ(foldUnary(UnaryOp::Not, 7), 0);
}

TEST(ConstantMath, OpPredicates) {
  EXPECT_TRUE(isCommutativeOp(BinaryOp::Add));
  EXPECT_TRUE(isCommutativeOp(BinaryOp::Mul));
  EXPECT_TRUE(isCommutativeOp(BinaryOp::CmpEq));
  EXPECT_FALSE(isCommutativeOp(BinaryOp::Sub));
  EXPECT_FALSE(isCommutativeOp(BinaryOp::CmpLt));
  EXPECT_TRUE(isComparisonOp(BinaryOp::CmpGe));
  EXPECT_FALSE(isComparisonOp(BinaryOp::Mod));
}

/// Folding must agree with native arithmetic wherever it succeeds.
class FoldSweep : public ::testing::TestWithParam<int> {};

TEST_P(FoldSweep, MatchesNativeArithmetic) {
  // Small deterministic operand grid derived from the parameter.
  int64_t Seed = GetParam();
  int64_t Values[] = {0, 1, -1, 2, Seed, -Seed, Seed * 37, 1000 - Seed};
  for (int64_t L : Values)
    for (int64_t R : Values) {
      EXPECT_EQ(foldBinary(BinaryOp::Add, L, R), L + R);
      EXPECT_EQ(foldBinary(BinaryOp::Sub, L, R), L - R);
      EXPECT_EQ(foldBinary(BinaryOp::Mul, L, R), L * R);
      if (R != 0) {
        EXPECT_EQ(foldBinary(BinaryOp::Div, L, R), L / R);
        EXPECT_EQ(foldBinary(BinaryOp::Mod, L, R), L % R);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(SmallOperands, FoldSweep,
                         ::testing::Values(3, 7, 11, 25, 99, 123, 1024));

//===----------------------------------------------------------------------===//
// IndexWorklist
//===----------------------------------------------------------------------===//

TEST(IndexWorklist, FifoOrderAndDeduplication) {
  IndexWorklist W;
  W.reserve(10);
  EXPECT_TRUE(W.insert(3));
  EXPECT_TRUE(W.insert(7));
  EXPECT_FALSE(W.insert(3)) << "pending keys deduplicate";
  EXPECT_EQ(W.size(), 2u);
  EXPECT_EQ(W.pop(), 3u);
  EXPECT_TRUE(W.insert(3)) << "popped keys are re-insertable";
  EXPECT_EQ(W.pop(), 7u);
  EXPECT_EQ(W.pop(), 3u);
  EXPECT_TRUE(W.empty());
}

TEST(IndexWorklist, ClearBumpsGeneration) {
  IndexWorklist W;
  W.reserve(4);
  W.insert(0);
  W.insert(1);
  W.clear();
  EXPECT_TRUE(W.empty());
  // Every key insertable again after the O(1) clear, including ones that
  // were pending when it happened.
  EXPECT_TRUE(W.insert(1));
  EXPECT_TRUE(W.insert(0));
  EXPECT_FALSE(W.insert(1));
  EXPECT_EQ(W.pop(), 1u);
  EXPECT_EQ(W.pop(), 0u);
}

TEST(IndexWorklist, ReserveGrowsTheUniverse) {
  IndexWorklist W;
  W.reserve(2);
  W.insert(1);
  W.reserve(100);
  EXPECT_TRUE(W.insert(99));
  EXPECT_EQ(W.pop(), 1u);
  EXPECT_EQ(W.pop(), 99u);
}

TEST(IndexWorklist, ManyGenerationsStayCorrect) {
  IndexWorklist W;
  W.reserve(3);
  for (int Round = 0; Round != 50; ++Round) {
    EXPECT_TRUE(W.insert(Round % 3));
    EXPECT_FALSE(W.insert(Round % 3));
    W.clear();
    EXPECT_TRUE(W.empty());
  }
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
  std::atomic<int> Counter{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Counter] { ++Counter; });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossPhases) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  for (int Phase = 0; Phase != 3; ++Phase) {
    for (int I = 0; I != 10; ++I)
      Pool.submit([&Counter] { ++Counter; });
    Pool.wait();
    EXPECT_EQ(Counter.load(), 10 * (Phase + 1));
  }
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 20; ++I)
      Pool.submit([&Counter] { ++Counter; });
  }
  EXPECT_EQ(Counter.load(), 20);
}

TEST(ThreadPool, ZeroThreadCountClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsErrorsOnly) {
  DiagnosticsEngine Diags;
  Diags.warning(SourceLoc(1, 2), "a warning");
  Diags.note(SourceLoc(), "a note");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(3, 4), "an error");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, Rendering) {
  DiagnosticsEngine Diags;
  Diags.error(SourceLoc(3, 4), "bad thing");
  Diags.note(SourceLoc(), "context");
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("3:4: error: bad thing"), std::string::npos);
  EXPECT_NE(Text.find("note: context"), std::string::npos);
  // An invalid location prints no position prefix.
  EXPECT_EQ(Text.find("<unknown>: note"), std::string::npos);
}

TEST(Diagnostics, Clear) {
  DiagnosticsEngine Diags;
  Diags.error(SourceLoc(1, 1), "x");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(SourceLocTest, Validity) {
  EXPECT_FALSE(SourceLoc().isValid());
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_EQ(SourceLoc(2, 7).str(), "2:7");
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(1, 2), SourceLoc(1, 2));
  EXPECT_NE(SourceLoc(1, 2), SourceLoc(1, 3));
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(Statistics, CountersAccumulate) {
  StatisticSet Stats;
  EXPECT_EQ(Stats.get(Counter::prop_visits), 0u);
  EXPECT_FALSE(Stats.has(Counter::prop_visits));
  Stats.add(Counter::prop_visits);
  Stats.add(Counter::prop_visits, 4);
  EXPECT_EQ(Stats.get(Counter::prop_visits), 5u);
  EXPECT_TRUE(Stats.has(Counter::prop_visits));
}

TEST(Statistics, Merge) {
  StatisticSet A, B;
  A.add(Counter::cache_hits, 1);
  B.add(Counter::cache_hits, 2);
  B.add(Counter::cache_misses, 3);
  A.merge(B);
  EXPECT_EQ(A.get(Counter::cache_hits), 3u);
  EXPECT_EQ(A.get(Counter::cache_misses), 3u);
  EXPECT_TRUE(A.has(Counter::cache_misses));
}

//===----------------------------------------------------------------------===//
// Timer
//===----------------------------------------------------------------------===//

TEST(TimerTest, MeasuresForwardTime) {
  Timer T;
  EXPECT_GE(T.seconds(), 0.0);
  T.restart();
  EXPECT_GE(T.seconds(), 0.0);
}

} // namespace
