//===- tests/CallGraphTests.cpp - call graph & SCC tests ------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CallGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

using namespace ipcp;
using namespace ipcp::test;

namespace {

TEST(CallGraph, EdgesAndSites) {
  auto M = lowerOk("proc a() { }\n"
                   "proc b() { call a(); call a(); }\n"
                   "proc main() { call b(); call a(); }");
  CallGraph CG(*M);
  Procedure *A = getProc(*M, "a");
  Procedure *B = getProc(*M, "b");
  Procedure *Main = getProc(*M, "main");

  EXPECT_EQ(CG.callSitesIn(B).size(), 2u) << "parallel edges preserved";
  EXPECT_EQ(CG.callees(B), std::vector<Procedure *>{A});
  EXPECT_EQ(CG.callees(Main).size(), 2u);
  std::vector<Procedure *> CallersOfA = CG.callers(A);
  EXPECT_EQ(CallersOfA.size(), 2u);
  EXPECT_TRUE(std::find(CallersOfA.begin(), CallersOfA.end(), B) !=
              CallersOfA.end());
  EXPECT_TRUE(CG.callers(Main).empty());
}

TEST(CallGraph, DirectRecursionDetected) {
  auto M = lowerOk("proc f(n) { if (n > 0) { call f(n - 1); } }\n"
                   "proc main() { call f(3); }");
  CallGraph CG(*M);
  EXPECT_TRUE(CG.isRecursive(getProc(*M, "f")));
  EXPECT_FALSE(CG.isRecursive(getProc(*M, "main")));
}

TEST(CallGraph, MutualRecursionFormsOneSCC) {
  auto M = lowerOk("proc even(n) { if (n > 0) { call odd(n - 1); } }\n"
                   "proc odd(n) { if (n > 0) { call even(n - 1); } }\n"
                   "proc main() { call even(4); }");
  CallGraph CG(*M);
  EXPECT_TRUE(CG.isRecursive(getProc(*M, "even")));
  EXPECT_TRUE(CG.isRecursive(getProc(*M, "odd")));
  bool FoundPair = false;
  for (const std::vector<Procedure *> &SCC : CG.sccsBottomUp())
    if (SCC.size() == 2)
      FoundPair = true;
  EXPECT_TRUE(FoundPair);
}

TEST(CallGraph, BottomUpOrderPutsCalleesFirst) {
  auto M = lowerOk("proc leaf() { }\n"
                   "proc mid() { call leaf(); }\n"
                   "proc main() { call mid(); }");
  CallGraph CG(*M);
  std::unordered_map<Procedure *, size_t> Position;
  size_t Index = 0;
  for (const std::vector<Procedure *> &SCC : CG.sccsBottomUp())
    for (Procedure *P : SCC)
      Position[P] = Index++;
  EXPECT_LT(Position[getProc(*M, "leaf")], Position[getProc(*M, "mid")]);
  EXPECT_LT(Position[getProc(*M, "mid")], Position[getProc(*M, "main")]);
}

TEST(CallGraph, BottomUpOrderPropertyOnAcyclicGraphs) {
  auto M = lowerOk("proc d() { }\n"
                   "proc c() { call d(); }\n"
                   "proc b() { call d(); call c(); }\n"
                   "proc a() { call b(); call c(); }\n"
                   "proc main() { call a(); }");
  CallGraph CG(*M);
  std::unordered_map<Procedure *, size_t> Position;
  size_t Index = 0;
  for (const std::vector<Procedure *> &SCC : CG.sccsBottomUp()) {
    EXPECT_EQ(SCC.size(), 1u) << "acyclic program";
    Position[SCC.front()] = Index++;
  }
  // Every callee must appear before its caller.
  for (Procedure *P : CG.procedures())
    for (Procedure *Q : CG.callees(P))
      EXPECT_LT(Position[Q], Position[P])
          << Q->getName() << " should precede " << P->getName();
}

TEST(CallGraph, SCCsPartitionTheProcedures) {
  auto M = lowerOk("proc x() { call y(); }\n"
                   "proc y() { call x(); }\n"
                   "proc z() { }\n"
                   "proc main() { call x(); call z(); }");
  CallGraph CG(*M);
  unsigned Total = 0;
  for (const std::vector<Procedure *> &SCC : CG.sccsBottomUp())
    Total += SCC.size();
  EXPECT_EQ(Total, M->procedures().size());
}

TEST(CallGraph, ReachabilityFromEntry) {
  auto M = lowerOk("proc used() { }\n"
                   "proc unused() { call used(); }\n"
                   "proc main() { call used(); }");
  CallGraph CG(*M);
  auto Reachable = CG.reachableFrom(getProc(*M, "main"));
  EXPECT_TRUE(Reachable.count(getProc(*M, "used")));
  EXPECT_FALSE(Reachable.count(getProc(*M, "unused")));
  EXPECT_TRUE(Reachable.count(getProc(*M, "main")));
  EXPECT_TRUE(CG.reachableFrom(nullptr).empty());
}

TEST(CallGraph, SelfLoopSCC) {
  auto M = lowerOk("proc f() { call f(); }\nproc main() { }");
  CallGraph CG(*M);
  EXPECT_TRUE(CG.isRecursive(getProc(*M, "f")));
  for (const std::vector<Procedure *> &SCC : CG.sccsBottomUp())
    EXPECT_EQ(SCC.size(), 1u);
}

} // namespace
