//===- tests/ArenaTests.cpp - Arena, dense IDs, and flat-stream IR --------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for the data-oriented substrate (docs/PERFORMANCE.md,
// "Memory layout"): the bump-allocator Arena, the typed DenseId handle,
// and the invariant that materializing a
// procedure's flat instruction stream is observationally invisible — the
// printed IR of every example-corpus and suite module is byte-identical
// before and after instStream(), and again after an invalidate/rebuild
// cycle.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Report.h"
#include "ir/IRPrinter.h"
#include "support/Arena.h"
#include "support/FileIO.h"
#include "support/Ids.h"
#include "workload/Generator.h"
#include "workload/Programs.h"

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

using namespace ipcp;
using namespace ipcp::test;

namespace {

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocationsAreAligned) {
  Arena A;
  for (size_t Align : {size_t(1), size_t(2), size_t(4), size_t(8),
                       size_t(16), size_t(64)}) {
    void *P = A.allocate(3, Align);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "allocation not aligned to " << Align;
  }
}

TEST(Arena, CreateConstructsObjects) {
  struct Point {
    int X, Y;
  };
  static_assert(std::is_trivially_destructible_v<Point>,
                "arena objects must not need destructors");
  Arena A;
  Point *P = A.create<Point>(Point{3, 4});
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
  EXPECT_GE(A.bytesAllocated(), sizeof(Point));
}

TEST(Arena, GrowsAcrossChunksAndCountsBytes) {
  Arena A(/*FirstChunkBytes=*/64);
  EXPECT_EQ(A.bytesAllocated(), 0u);
  size_t Total = 0;
  for (int I = 0; I != 100; ++I) {
    A.allocate(32, alignof(uint64_t));
    Total += 32;
  }
  EXPECT_EQ(A.bytesAllocated(), Total);
  EXPECT_GT(A.chunkCount(), 1u) << "100*32 bytes must outgrow a 64-byte chunk";
}

TEST(Arena, ResetKeepsFirstChunkAndReusesIt) {
  Arena A(/*FirstChunkBytes=*/64);
  for (int I = 0; I != 100; ++I)
    A.allocate(32, alignof(uint64_t));
  ASSERT_GT(A.chunkCount(), 1u);

  A.reset();
  EXPECT_EQ(A.chunkCount(), 1u) << "reset must keep exactly the first chunk";
  EXPECT_EQ(A.bytesAllocated(), 0u);

  // A refill that fits the retained chunk allocates no new chunks.
  void *First = A.allocate(16, alignof(uint64_t));
  EXPECT_EQ(A.chunkCount(), 1u);
  A.reset();
  void *Again = A.allocate(16, alignof(uint64_t));
  EXPECT_EQ(First, Again) << "reset must rewind to the start of chunk 0";
}

TEST(Arena, MovedFromArenaDoesNotAliasTarget) {
  Arena A;
  int *Kept = A.create<int>(1);
  Arena B(std::move(A));
  // The source is empty; a new allocation from it takes a fresh chunk
  // instead of bumping through the chunk B now owns.
  EXPECT_EQ(A.chunkCount(), 0u);
  EXPECT_EQ(A.bytesAllocated(), 0u);
  int *FromA = A.create<int>(2);
  int *FromB = B.create<int>(3);
  EXPECT_NE(FromA, FromB);
  EXPECT_EQ(*FromA, 2);
  EXPECT_EQ(*FromB, 3);
  EXPECT_EQ(*Kept, 1) << "the moved chunk keeps its contents";

  Arena C;
  C.create<int>(4);
  C = std::move(B);
  EXPECT_EQ(B.chunkCount(), 0u);
  int *FromC = C.create<int>(5);
  int *FromB2 = B.create<int>(6);
  EXPECT_NE(FromC, FromB2);
  EXPECT_EQ(*FromC, 5);
  EXPECT_EQ(*FromB2, 6);
  EXPECT_EQ(*FromB, 3);
}

TEST(Arena, ExactFirstChunkHoldsItsBytes) {
  // A first chunk sized to what its owner will allocate takes all of it:
  // the chunk's bookkeeping does not come out of the payload.
  Arena A(/*FirstChunkBytes=*/96);
  for (int I = 0; I != 12; ++I)
    A.allocate(8, alignof(uint64_t));
  EXPECT_EQ(A.bytesAllocated(), 96u);
  EXPECT_EQ(A.chunkCount(), 1u);
  A.allocate(1, 1);
  EXPECT_EQ(A.chunkCount(), 2u) << "the 97th byte needs a second chunk";
}

// Lowering sizes each procedure's first arena chunk to the bytes the
// procedure takes (ArenaSizer in ir/AstLower.cpp), so every procedure a
// compile lowers owns exactly one chunk.
TEST(Arena, CompiledProceduresOwnOneChunkEach) {
  for (unsigned NumProcs : {64u, 512u}) {
    GeneratorConfig Config;
    Config.Seed = 1;
    Config.NumProcs = NumProcs;
    AnalysisRequest Req;
    RequestRun Run(Req);
    ASSERT_TRUE(Run.compile(generateProgram(Config))) << NumProcs;
    const auto &Procs = Run.M->procedures();
    EXPECT_EQ(Procs.size(), NumProcs + 1) << "the generated procs and main";
    std::vector<std::string> Spilled;
    for (const std::unique_ptr<Procedure> &P : Procs)
      if (P->arena().chunkCount() != 1)
        Spilled.push_back(P->getName());
    EXPECT_TRUE(Spilled.empty())
        << Spilled.size() << " of " << Procs.size() << " procedures at "
        << NumProcs << " own other than one chunk, first "
        << (Spilled.empty() ? "" : Spilled.front());
  }
}

#if defined(__SANITIZE_ADDRESS__)
// An erased instruction stays in its procedure's arena, poisoned, so
// AddressSanitizer still reports a stale pointer to it.
TEST(ArenaDeathTest, ErasedInstructionIsPoisoned) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto M = lowerOk("proc main() { var x; x = 1 + 2; print x; }");
  PrintInst *Print = firstInst<PrintInst>(*getProc(*M, "main"));
  ASSERT_NE(Print, nullptr);
  Print->getParent()->erase(Print);
  EXPECT_DEATH(
      {
        volatile Value *Stale = Print->getValueOperand();
        (void)Stale;
      },
      "use-after-poison");
}
#endif

//===----------------------------------------------------------------------===//
// DenseId
//===----------------------------------------------------------------------===//

TEST(DenseId, InvalidAndRoundTrip) {
  ExprId None;
  EXPECT_FALSE(None.isValid());
  EXPECT_FALSE(bool(None));
  EXPECT_EQ(None, ExprId::invalid());
  EXPECT_EQ(None.rawValue(), ExprId::InvalidIndex);

  ExprId E = ExprId::fromIndex(42);
  EXPECT_TRUE(E.isValid());
  EXPECT_EQ(E.index(), 42u);
  EXPECT_EQ(E.rawValue(), 42u);
  EXPECT_EQ(E, ExprId(42));
  EXPECT_NE(E, None);
  EXPECT_LT(ExprId::fromIndex(7), E);
}

//===----------------------------------------------------------------------===//
// Flat instruction stream: printed IR is invariant
//===----------------------------------------------------------------------===//

/// Prints \p M, materializes every procedure's flat stream, prints again,
/// then invalidates and rebuilds the streams and prints a third time; all
/// three renderings must be byte-identical, and each stream must cover
/// the procedure exactly.
void expectStreamInvisible(Module &M, const std::string &Label) {
  std::string Before = printModule(M);
  for (const auto &P : M.procedures()) {
    const Procedure::InstStream &S = P->instStream();
    EXPECT_EQ(S.size(), P->instructionCount()) << Label << ": stream size";
    EXPECT_EQ(S.numBlocks(), P->blocks().size()) << Label << ": span count";
    uint32_t Cursor = 0;
    for (const Procedure::InstStream::Span &Span : S.Spans) {
      EXPECT_EQ(Span.Begin, Cursor) << Label << ": spans must be contiguous";
      EXPECT_LE(Span.End, S.Insts.size());
      Cursor = Span.End;
    }
    EXPECT_EQ(Cursor, S.Insts.size()) << Label << ": spans must cover stream";
  }
  EXPECT_EQ(printModule(M), Before)
      << Label << ": materializing the stream changed the printed IR";
  for (const auto &P : M.procedures()) {
    P->invalidateInstStream();
    (void)P->instStream();
  }
  EXPECT_EQ(printModule(M), Before)
      << Label << ": an invalidate/rebuild cycle changed the printed IR";
}

TEST(InstStreamEquivalence, ExampleCorpus) {
  unsigned Checked = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(IPCP_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".mf")
      continue;
    std::string Source, Error;
    ASSERT_TRUE(readFileToString(Entry.path().string(), Source, &Error))
        << Error;
    DiagnosticsEngine Diags;
    std::optional<Program> Prog = parseAndCheck(Source, Diags);
    if (!Prog)
      continue; // e.g. bad_syntax.mf — frontend rejection is its own test
    std::unique_ptr<Module> M = lowerProgram(*Prog);
    expectStreamInvisible(*M, Entry.path().filename().string());
    ++Checked;
  }
  EXPECT_GE(Checked, 3u) << "examples/programs/ lost its corpus";
}

TEST(InstStreamEquivalence, BenchmarkSuite) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    expectStreamInvisible(*M, Prog.Name);
  }
}

} // namespace
