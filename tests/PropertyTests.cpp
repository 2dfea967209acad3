//===- tests/PropertyTests.cpp - cross-cutting invariants -----------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Property tests over randomly generated programs, enforcing the paper's
// stated relationships between configurations plus the soundness
// definition itself:
//
//  1. containment (Section 3.1): constants found with literal <= intra
//     <= pass-through <= polynomial jump functions;
//  2. return jump functions only add information;
//  3. MOD information only adds information;
//  4. complete propagation finds at least as much as a single pass, and
//     counts each constant load once over its rounds;
//  5. soundness: every claimed CONSTANTS pair holds on every dynamic
//     procedure entry (interpreter oracle), in every configuration;
//  6. determinism: repeated analysis produces identical results.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Pipeline.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Programs.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace ipcp;
using namespace ipcp::test;

namespace {

struct GeneratedCase {
  std::unique_ptr<Module> M;

  explicit GeneratedCase(uint64_t Seed, bool Recursion = false) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumProcs = 6;
    Config.NumGlobals = 4;
    Config.AllowRecursion = Recursion;
    M = lowerOk(generateProgram(Config));
  }

  unsigned refs(IPCPOptions Opts) { return runIPCP(*M, Opts).TotalConstantRefs; }
};

/// Complete propagation by hand on a clone of \p M, under each of five
/// configurations: rounds of runIPCP and applyFacts until one removes no
/// block (at most eight), each load any round proves constant counted
/// once by its ID. runCompletePropagation must agree on both figures.
void expectCompleteMatchesReference(const Module &M, const std::string &Name) {
  std::vector<IPCPOptions> Configs(5);
  Configs[1].ForwardKind = JumpFunctionKind::Literal;
  Configs[2].UseModInformation = false;
  Configs[3].UseGatedSSA = true;
  Configs[4].Engine = PropagationEngine::Contexts;
  for (size_t C = 0; C != Configs.size(); ++C) {
    std::unique_ptr<Module> Working = M.clone();
    std::unordered_set<uint64_t> Loads;
    unsigned Rounds = 0;
    for (bool DeadCode = true; DeadCode && Rounds != 8;) {
      IPCPResult R = runIPCP(*Working, Configs[C]);
      ++Rounds;
      for (const auto &[Id, Value] : R.Facts.ConstantLoads)
        Loads.insert(Id);
      DeadCode = applyFacts(*Working, R.Facts).foundDeadCode();
    }
    CompletePropagationResult CP = runCompletePropagation(M, Configs[C]);
    EXPECT_EQ(CP.TotalConstantRefs, Loads.size()) << Name << " config " << C;
    EXPECT_EQ(CP.Rounds, Rounds) << Name << " config " << C;
  }
}

TEST(CompletePropagation, SuiteCountsEachConstantLoadOnce) {
  for (const SuiteProgram &Prog : benchmarkSuite())
    expectCompleteMatchesReference(*loadSuiteModule(Prog), Prog.Name);
}

class GeneratedProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedProperties, JumpFunctionContainment) {
  GeneratedCase Case(GetParam());
  IPCPOptions Opts;
  Opts.ForwardKind = JumpFunctionKind::Literal;
  unsigned Literal = Case.refs(Opts);
  Opts.ForwardKind = JumpFunctionKind::IntraproceduralConstant;
  unsigned Intra = Case.refs(Opts);
  Opts.ForwardKind = JumpFunctionKind::PassThrough;
  unsigned Pass = Case.refs(Opts);
  Opts.ForwardKind = JumpFunctionKind::Polynomial;
  unsigned Poly = Case.refs(Opts);
  EXPECT_LE(Literal, Intra);
  EXPECT_LE(Intra, Pass);
  EXPECT_LE(Pass, Poly);
}

TEST_P(GeneratedProperties, ReturnJumpFunctionsOnlyAdd) {
  GeneratedCase Case(GetParam());
  IPCPOptions With;
  IPCPOptions Without;
  Without.UseReturnJumpFunctions = false;
  EXPECT_GE(Case.refs(With), Case.refs(Without));
}

TEST_P(GeneratedProperties, ModInformationOnlyAdds) {
  GeneratedCase Case(GetParam());
  IPCPOptions With;
  IPCPOptions Without;
  Without.UseModInformation = false;
  EXPECT_GE(Case.refs(With), Case.refs(Without));
}

TEST_P(GeneratedProperties, CompleteAtLeastSinglePass) {
  GeneratedCase Case(GetParam());
  unsigned Single = Case.refs(IPCPOptions());
  CompletePropagationResult Complete = runCompletePropagation(*Case.M);
  EXPECT_GE(Complete.TotalConstantRefs, Single);
}

TEST_P(GeneratedProperties, CompleteCountsEachConstantLoadOnce) {
  GeneratedCase Case(GetParam());
  expectCompleteMatchesReference(*Case.M, "seed " + std::to_string(GetParam()));
}

TEST_P(GeneratedProperties, InterproceduralBeatsIntraprocedural) {
  GeneratedCase Case(GetParam());
  IPCPOptions Intra;
  Intra.IntraproceduralOnly = true;
  EXPECT_GE(Case.refs(IPCPOptions()), Case.refs(Intra));
}

TEST_P(GeneratedProperties, SoundInEveryConfiguration) {
  GeneratedCase Case(GetParam());
  ExecutionOptions Exec;
  Exec.MaxSteps = 2'000'000;
  Exec.InputSeed = GetParam();

  std::vector<IPCPOptions> Configs;
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial})
    for (bool Ret : {false, true})
      for (bool Mod : {false, true}) {
        IPCPOptions Opts;
        Opts.ForwardKind = Kind;
        Opts.UseReturnJumpFunctions = Ret;
        Opts.UseModInformation = Mod;
        Configs.push_back(Opts);
      }

  for (const IPCPOptions &Opts : Configs) {
    IPCPResult R = runIPCP(*Case.M, Opts);
    OracleReport Report = checkSoundness(*Case.M, R, Exec);
    EXPECT_TRUE(Report.Sound)
        << "seed " << GetParam() << " kind "
        << jumpFunctionKindName(Opts.ForwardKind) << " ret "
        << Opts.UseReturnJumpFunctions << " mod " << Opts.UseModInformation
        << ": " << Report.str();
  }
}

TEST_P(GeneratedProperties, DeterministicAnalysis) {
  GeneratedCase Case(GetParam());
  IPCPResult R1 = runIPCP(*Case.M);
  IPCPResult R2 = runIPCP(*Case.M);
  ASSERT_EQ(R1.Procs.size(), R2.Procs.size());
  for (unsigned I = 0; I != R1.Procs.size(); ++I) {
    EXPECT_EQ(R1.Procs[I].EntryConstants, R2.Procs[I].EntryConstants);
    EXPECT_EQ(R1.Procs[I].ConstantRefs, R2.Procs[I].ConstantRefs);
  }
  EXPECT_EQ(R1.Facts.ConstantLoads, R2.Facts.ConstantLoads);
}

TEST_P(GeneratedProperties, SSAFormVerifies) {
  GeneratedCase Case(GetParam());
  CallGraph CG(*Case.M);
  ModRefInfo MRI = ModRefInfo::compute(*Case.M, CG);
  for (const std::unique_ptr<Procedure> &P : Case.M->procedures())
    expectVerifiesSSA(*P, constructSSA(*P, MRI));
  expectVerifies(*Case.M);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedProperties,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// The same soundness sweep over recursive programs.
//===----------------------------------------------------------------------===//

class RecursiveProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecursiveProperties, SoundWithRecursion) {
  GeneratedCase Case(GetParam(), /*Recursion=*/true);
  ExecutionOptions Exec;
  Exec.MaxSteps = 2'000'000;
  IPCPResult R = runIPCP(*Case.M);
  OracleReport Report = checkSoundness(*Case.M, R, Exec);
  EXPECT_TRUE(Report.Sound) << Report.str();
}

TEST_P(RecursiveProperties, ContainmentWithRecursion) {
  GeneratedCase Case(GetParam(), /*Recursion=*/true);
  IPCPOptions Literal;
  Literal.ForwardKind = JumpFunctionKind::Literal;
  IPCPOptions Poly;
  EXPECT_LE(Case.refs(Literal), Case.refs(Poly));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecursiveProperties,
                         ::testing::Range<uint64_t>(100, 113));

//===----------------------------------------------------------------------===//
// Complete propagation also stays sound (the transformed program keeps
// the original observable behavior).
//===----------------------------------------------------------------------===//

class TransformProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformProperties, SubstitutionPreservesOutput) {
  GeneratedCase Case(GetParam());
  ExecutionOptions Exec;
  Exec.MaxSteps = 2'000'000;
  Exec.InputSeed = 99;
  ExecutionResult Before = interpret(*Case.M, Exec);

  IPCPResult R = runIPCP(*Case.M);
  applyFacts(*Case.M, R.Facts);
  expectVerifies(*Case.M);
  ExecutionResult After = interpret(*Case.M, Exec);

  if (Before.ok()) {
    EXPECT_EQ(After.TheStatus, Before.TheStatus);
    EXPECT_EQ(Before.Output, After.Output)
        << "substituting proven constants must not change behavior";
  } else {
    // A trapping run may produce fewer outputs after DCE removes the
    // trapping dead computation; the prefix must still agree.
    size_t Common = std::min(Before.Output.size(), After.Output.size());
    for (size_t I = 0; I != Common; ++I)
      EXPECT_EQ(Before.Output[I], After.Output[I]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperties,
                         ::testing::Range<uint64_t>(200, 213));

} // namespace
