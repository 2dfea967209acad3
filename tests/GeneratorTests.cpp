//===- tests/GeneratorTests.cpp - random program generator tests ----------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CallGraph.h"
#include "interp/Interpreter.h"
#include "support/StableHash.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <set>

using namespace ipcp;
using namespace ipcp::test;

namespace {

TEST(Generator, DeterministicPerSeed) {
  GeneratorConfig Config;
  Config.Seed = 42;
  EXPECT_EQ(generateProgram(Config), generateProgram(Config));
  GeneratorConfig Other = Config;
  Other.Seed = 43;
  EXPECT_NE(generateProgram(Config), generateProgram(Other));
}

// The generated text is an input of the benchmark and of many tests, so
// its bytes are pinned: a change to the generator, or to the order its
// random draws happen in, fails here instead of silently moving them.
TEST(Generator, GeneratedTextIsPinned) {
  struct Pin {
    uint64_t Seed;
    unsigned NumProcs;
    bool AllowRecursion;
    bool UseArrays;
    const char *Hash;
  };
  const Pin Pins[] = {
      {1, 8, false, true, "bf9999aa795323cd"},
      {7, 5, true, true, "2834e383c8b3bd60"},
      {42, 64, false, true, "06c28727792f328a"},
      {1, 512, false, true, "e2c02fd06ab26957"},
      {3, 3, true, false, "de70c0c7b64175ec"},
  };
  for (const Pin &P : Pins) {
    GeneratorConfig Config;
    Config.Seed = P.Seed;
    Config.NumProcs = P.NumProcs;
    Config.AllowRecursion = P.AllowRecursion;
    Config.UseArrays = P.UseArrays;
    EXPECT_EQ(stableHashHex(stableHashBytes(generateProgram(Config))), P.Hash)
        << "seed " << P.Seed << ", " << P.NumProcs << " procedures";
  }
}

TEST(Generator, RespectsShapeParameters) {
  GeneratorConfig Config;
  Config.Seed = 7;
  Config.NumProcs = 5;
  Config.NumGlobals = 3;
  std::string Source = generateProgram(Config);
  auto M = lowerOk(Source);
  EXPECT_EQ(M->procedures().size(), 6u) << "main plus NumProcs";
  EXPECT_EQ(M->globals().size(), 4u) << "three scalars plus the array";
}

TEST(Generator, NoGlobalsConfig) {
  GeneratorConfig Config;
  Config.Seed = 3;
  Config.NumGlobals = 0;
  Config.GlobalAssignChance = 0;
  Config.UseArrays = false;
  std::string Source = generateProgram(Config);
  auto M = lowerOk(Source);
  EXPECT_TRUE(M->globals().empty());
}

TEST(Generator, ArraysAndWhileLoopsAppear) {
  bool SawArray = false, SawWhile = false;
  for (uint64_t Seed = 1; Seed <= 12 && !(SawArray && SawWhile); ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    std::string Source = generateProgram(Config);
    SawArray |= Source.find("ga[") != std::string::npos ||
                Source.find("la[") != std::string::npos;
    SawWhile |= Source.find("while (") != std::string::npos;
  }
  EXPECT_TRUE(SawArray);
  EXPECT_TRUE(SawWhile);
}

TEST(Generator, AcyclicByDefault) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    auto M = lowerOk(generateProgram(Config));
    CallGraph CG(*M);
    for (Procedure *P : CG.procedures())
      EXPECT_FALSE(CG.isRecursive(P)) << "seed " << Seed;
  }
}

TEST(Generator, RecursionWhenRequested) {
  bool SawRecursion = false;
  for (uint64_t Seed = 1; Seed <= 10 && !SawRecursion; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.AllowRecursion = true;
    auto M = lowerOk(generateProgram(Config));
    CallGraph CG(*M);
    for (Procedure *P : CG.procedures())
      SawRecursion |= CG.isRecursive(P);
  }
  EXPECT_TRUE(SawRecursion);
}

TEST(Generator, NeverPassesGlobalsByReference) {
  // The Fortran no-alias discipline (DESIGN.md): generated variable
  // actuals are locals and formals only, and are distinct within a call.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    auto M = lowerOk(generateProgram(Config));
    for (const std::unique_ptr<Procedure> &P : M->procedures())
      for (CallInst *Call : P->callSites()) {
        std::set<Variable *> Seen;
        for (unsigned I = 0; I != Call->getNumActuals(); ++I) {
          Variable *Loc = Call->getActual(I).ByRefLoc;
          if (!Loc)
            continue;
          EXPECT_FALSE(Loc->isGlobal()) << "seed " << Seed;
          EXPECT_TRUE(Seen.insert(Loc).second)
              << "duplicate by-ref actual, seed " << Seed;
        }
      }
  }
}

class GeneratedProgramsAreValid : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedProgramsAreValid, CompilesVerifiesAndTerminates) {
  GeneratorConfig Config;
  Config.Seed = GetParam();
  Config.NumProcs = 6;
  std::string Source = generateProgram(Config);
  auto M = lowerOk(Source);

  ExecutionOptions Opts;
  Opts.MaxSteps = 2'000'000;
  ExecutionResult R = interpret(*M, Opts);
  // Generated programs avoid division, so the only legal stops are
  // normal completion, an (unlikely) multiplication overflow, or fuel:
  // loops are bounded and the call graph acyclic, so termination is
  // structural, but sequential call fan-out is exponential in the
  // layer depth and can legitimately outrun any fixed step budget.
  if (R.TheStatus == ExecutionResult::Status::Trap) {
    EXPECT_NE(R.TrapMessage.find("arithmetic fault"), std::string::npos)
        << R.TrapMessage;
  } else if (R.TheStatus == ExecutionResult::Status::OutOfFuel) {
    EXPECT_GE(R.Steps, Opts.MaxSteps)
        << "fuel stop must be the step budget, not the depth guard";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedProgramsAreValid,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
