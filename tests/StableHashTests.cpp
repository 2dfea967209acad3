//===- tests/StableHashTests.cpp - Stable structural hashing --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// Pins the properties the summary cache's keys depend on
// (docs/INCREMENTAL.md):
//
//  - the byte-level format: 64-bit FNV-1a with the published offset
//    basis and prime, integers serialized little-endian regardless of
//    host byte order, strings length-prefixed;
//  - run-to-run and state invariance: the hash of a procedure body
//    depends only on its structure, never on allocation order, ambient
//    trace/counter state, or which module clone it lives in;
//  - sensitivity: any single-instruction mutation changes the hash.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Instructions.h"
#include "support/StableHash.h"
#include "support/Trace.h"
#include "workload/Generator.h"
#include "workload/Study.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

//===----------------------------------------------------------------------===//
// Byte-level format
//===----------------------------------------------------------------------===//

// The classic published FNV-1a test vectors: an empty input returns the
// offset basis untouched, and single characters match the reference
// implementation. These pin the exact function, not just "some hash".
TEST(StableHash, PinnedFnv1aVectors) {
  EXPECT_EQ(stableHashBytes(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(stableHashBytes("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(stableHashBytes("foobar"), 0x85944171f73967e8ULL);
}

// Integers enter the stream as explicit little-endian bytes, so the
// hash of u32/u64 must equal the hash of the equivalent byte string on
// every host. This is what makes the on-disk keys endian-portable.
TEST(StableHash, IntegersAreLittleEndian) {
  StableHasher A;
  A.u32(0x04030201u);
  EXPECT_EQ(A.result(), stableHashBytes(std::string_view("\x01\x02\x03\x04", 4)));

  StableHasher B;
  B.u64(0x0807060504030201ULL);
  EXPECT_EQ(B.result(),
            stableHashBytes(std::string_view("\x01\x02\x03\x04\x05\x06\x07\x08", 8)));
}

// Strings are length-prefixed: "ab"+"c" and "a"+"bc" must differ even
// though the concatenated bytes agree.
TEST(StableHash, StringsAreLengthPrefixed) {
  StableHasher A, B;
  A.str("ab");
  A.str("c");
  B.str("a");
  B.str("bc");
  EXPECT_NE(A.result(), B.result());
}

TEST(StableHash, HexRenderingIsFixedWidth) {
  EXPECT_EQ(stableHashHex(0), "0000000000000000");
  EXPECT_EQ(stableHashHex(0xcbf29ce484222325ULL), "cbf29ce484222325");
}

//===----------------------------------------------------------------------===//
// Invariance
//===----------------------------------------------------------------------===//

const char *const Example = R"(
global acc;

proc helper(a, b) {
  var t;
  t = a + b * 2;
  acc = t;
  a = t;
}

proc main() {
  var x;
  x = 3;
  call helper(x, 4);
  print x;
  print acc;
}
)";

// Lowering the same source twice gives different allocations, different
// instruction/variable ids, different everything except structure — the
// hashes must agree anyway.
TEST(StableHash, RunToRunInvariance) {
  std::unique_ptr<Module> M1 = lowerOk(Example);
  std::unique_ptr<Module> M2 = lowerOk(Example);
  for (const std::unique_ptr<Procedure> &P : M1->procedures()) {
    Procedure *Twin = M2->findProcedure(P->getName());
    ASSERT_NE(Twin, nullptr);
    EXPECT_EQ(hashProcedureBody(*P), hashProcedureBody(*Twin)) << P->getName();
  }
}

// Module::clone preserves structure (and even ids); hashing must not
// distinguish the clone from the original.
TEST(StableHash, CloneInvariance) {
  std::unique_ptr<Module> M = lowerOk(Example);
  std::unique_ptr<Module> C = M->clone();
  for (const std::unique_ptr<Procedure> &P : M->procedures())
    EXPECT_EQ(hashProcedureBody(*P),
              hashProcedureBody(*C->findProcedure(P->getName())));
}

// Ambient observability state — an active trace collector — must be
// invisible to the hash: the cache key of a body cannot depend on how
// the run is being watched.
TEST(StableHash, TraceStateInvariance) {
  std::unique_ptr<Module> M = lowerOk(Example);
  Procedure *P = getProc(*M, "helper");
  uint64_t Plain = hashProcedureBody(*P);

  Trace TraceData;
  Trace::setActive(&TraceData);
  uint64_t Traced = hashProcedureBody(*P);
  Trace::setActive(nullptr);
  EXPECT_EQ(Plain, Traced);
}

// The same invariances over the whole benchmark suite and a spread of
// generated programs: every procedure's hash survives a reload from
// source and a clone.
TEST(StableHash, SuiteAndGeneratedInvariance) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> A = loadSuiteModule(Prog);
    std::unique_ptr<Module> B = loadSuiteModule(Prog);
    std::unique_ptr<Module> C = A->clone();
    for (const std::unique_ptr<Procedure> &P : A->procedures()) {
      uint64_t H = hashProcedureBody(*P);
      EXPECT_EQ(H, hashProcedureBody(*B->findProcedure(P->getName())))
          << Prog.Name << "/" << P->getName();
      EXPECT_EQ(H, hashProcedureBody(*C->findProcedure(P->getName())))
          << Prog.Name << "/" << P->getName();
    }
  }
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    std::string Source = generateProgram(Config);
    std::unique_ptr<Module> A = lowerOk(Source);
    std::unique_ptr<Module> B = lowerOk(Source);
    for (const std::unique_ptr<Procedure> &P : A->procedures())
      EXPECT_EQ(hashProcedureBody(*P),
                hashProcedureBody(*B->findProcedure(P->getName())))
          << "seed " << Seed << "/" << P->getName();
  }
}

//===----------------------------------------------------------------------===//
// Sensitivity
//===----------------------------------------------------------------------===//

/// Hash of procedure \p Name after lowering \p Source.
uint64_t hashOf(const std::string &Source, const std::string &Name) {
  std::unique_ptr<Module> M = lowerOk(Source);
  return hashProcedureBody(*getProc(*M, Name));
}

/// A one-procedure body with a hole for the mutated statement.
std::string fWith(const std::string &Stmt) {
  return "proc f(a) {\n  var t;\n  " + Stmt +
         "\n  a = t;\n}\n"
         "proc main() {\n  var x;\n  x = 5;\n  call f(x);\n  print x;\n}\n";
}

// Single-token source mutations that each change exactly one lowered
// instruction (or one operand of one) must all produce distinct hashes.
TEST(StableHash, SingleInstructionMutationsChangeTheHash) {
  uint64_t H = hashOf(fWith("t = a + 1;"), "f");

  // A different literal.
  EXPECT_NE(H, hashOf(fWith("t = a + 2;"), "f"));
  // A different operator.
  EXPECT_NE(H, hashOf(fWith("t = a - 1;"), "f"));
  // A different operand variable.
  EXPECT_NE(H, hashOf(fWith("t = t + 1;"), "f"));
  // An extra statement.
  EXPECT_NE(H, hashOf(fWith("t = a + 1;\n  print t;"), "f"));
}

// Callee identity and actual shape are part of the body: calls to
// different procedures, or with a literal instead of a variable actual,
// hash differently.
TEST(StableHash, CallSitesAreSensitive) {
  auto MainCalling = [](const std::string &Call) {
    return "proc inc(x) {\n  x = x + 1;\n}\nproc dec(x) {\n  x = x + 1;\n}\n"
           "proc main() {\n  var v;\n  v = 1;\n  " +
           Call + "\n  print v;\n}\n";
  };
  uint64_t H = hashOf(MainCalling("call inc(v);"), "main");
  EXPECT_NE(H, hashOf(MainCalling("call dec(v);"), "main"));
  EXPECT_NE(H, hashOf(MainCalling("call inc(1);"), "main"));
}

// Across a generated corpus: prepending one `print` to any procedure
// must change that procedure's hash and leave every other hash alone
// (the property the early-cutoff invalidation rests on).
TEST(StableHash, MutationCorpusSensitivity) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumProcs = 4;
    std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
    for (const std::unique_ptr<Procedure> &Victim : M->procedures()) {
      std::unique_ptr<Module> Mut = M->clone();
      Procedure *P = Mut->findProcedure(Victim->getName());
      P->getEntryBlock()->insertAtTop(P->create<PrintInst>(
          Mut->nextInstId(), SourceLoc(), Mut->getConstant(9)));
      for (const std::unique_ptr<Procedure> &Q : M->procedures()) {
        uint64_t Before = hashProcedureBody(*Q);
        uint64_t After = hashProcedureBody(*Mut->findProcedure(Q->getName()));
        if (Q.get() == Victim.get())
          EXPECT_NE(Before, After) << "seed " << Seed << "/" << Q->getName();
        else
          EXPECT_EQ(Before, After) << "seed " << Seed << "/" << Q->getName();
      }
    }
  }
}

} // namespace
