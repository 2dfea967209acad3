//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#ifndef IPCP_TESTS_TESTUTIL_H
#define IPCP_TESTS_TESTUTIL_H

#include "analysis/SSAConstruction.h"
#include "frontend/Parser.h"
#include "ir/AstLower.h"
#include "ir/Module.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace ipcp {

class ServiceDispatcher;

namespace test {

/// Parses and checks \p Source; fails the current test on any diagnostic.
Program parseOk(const std::string &Source);

/// Parses \p Source expecting at least one error; returns the rendered
/// diagnostics for substring assertions.
std::string parseErrors(const std::string &Source);

/// Parses, checks, lowers, and pre-SSA-verifies \p Source.
std::unique_ptr<Module> lowerOk(const std::string &Source);

/// Finds a procedure or aborts the test.
Procedure *getProc(Module &M, const std::string &Name);

/// Finds the first instruction of kind T in \p P; null if absent.
template <typename T> T *firstInst(Procedure &P) {
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      if (auto *Match = dyn_cast<T>(Inst))
        return Match;
  return nullptr;
}

/// Counts instructions of kind T in \p P.
template <typename T> unsigned countInsts(Procedure &P) {
  unsigned Count = 0;
  for (BasicBlock *BB : P.blocks())
    for (Instruction *Inst : BB->instructions())
      if (isa<T>(Inst))
        ++Count;
  return Count;
}

/// Expects a clean verifier result; reports all violations otherwise.
void expectVerifies(const Module &M);

/// Expects \p SSA to pass verifySSA against \p P.
void expectVerifiesSSA(const Procedure &P, const SSAResult &SSA);

/// \p P's promoted loads in stream order, each with the SSA value that
/// stands for it.
std::vector<std::pair<const LoadInst *, Value *>>
promotedLoads(const Procedure &P, const SSAResult &SSA);

/// Replays \p Lines through one stream of \p Svc the way the daemon
/// does — a consumer thread drains responses while the caller submits,
/// and a shutdown line ends the input — and returns the response lines.
std::vector<std::string> runLines(ServiceDispatcher &Svc,
                                  const std::vector<std::string> &Lines);

} // namespace test
} // namespace ipcp

#endif // IPCP_TESTS_TESTUTIL_H
