//===- tests/DominatorTests.cpp - dominator & frontier tests --------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Dominators.h"
#include "ir/Traversal.h"

#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>

using namespace ipcp;
using namespace ipcp::test;

namespace {

BasicBlock *blockNamed(Procedure &P, const std::string &Prefix) {
  for (BasicBlock *BB : P.blocks())
    if (BB->getName().rfind(Prefix, 0) == 0)
      return BB;
  ADD_FAILURE() << "no block with prefix " << Prefix;
  return nullptr;
}

TEST(Traversal, RPOStartsAtEntryAndCoversAll) {
  auto M = lowerOk(
      "proc main() { var x; if (x) { x = 1; } else { x = 2; } print x; }");
  Procedure *Main = getProc(*M, "main");
  std::vector<BasicBlock *> RPO = reversePostOrder(*Main);
  EXPECT_EQ(RPO.front(), Main->getEntryBlock());
  EXPECT_EQ(RPO.size(), Main->blocks().size());
}

TEST(Traversal, PostOrderVisitsSuccessorsFirst) {
  auto M = lowerOk("proc main() { var x; if (x) { x = 1; } print x; }");
  Procedure *Main = getProc(*M, "main");
  std::vector<BasicBlock *> PO = postOrder(*Main);
  EXPECT_EQ(PO.back(), Main->getEntryBlock());
}

TEST(Dominators, DiamondJoinDominatedByFork) {
  auto M = lowerOk(
      "proc main() { var x; if (x) { x = 1; } else { x = 2; } print x; }");
  Procedure *Main = getProc(*M, "main");
  DominatorTree DT(*Main);
  BasicBlock *Entry = Main->getEntryBlock();
  BasicBlock *Then = blockNamed(*Main, "if.then");
  BasicBlock *Else = blockNamed(*Main, "if.else");
  BasicBlock *Merge = blockNamed(*Main, "if.merge");

  EXPECT_EQ(DT.idom(Entry), nullptr);
  EXPECT_EQ(DT.idom(Then), Entry);
  EXPECT_EQ(DT.idom(Else), Entry);
  EXPECT_EQ(DT.idom(Merge), Entry) << "join is dominated by the fork only";
  EXPECT_TRUE(DT.dominates(Entry, Merge));
  EXPECT_FALSE(DT.dominates(Then, Merge));
  EXPECT_TRUE(DT.dominates(Merge, Merge)) << "dominance is reflexive";
}

TEST(Dominators, LoopHeaderDominatesBody) {
  auto M = lowerOk("proc main() { var x; while (x < 3) { x = x + 1; } }");
  Procedure *Main = getProc(*M, "main");
  DominatorTree DT(*Main);
  BasicBlock *Header = blockNamed(*Main, "while.header");
  BasicBlock *Body = blockNamed(*Main, "while.body");
  BasicBlock *ExitBB = blockNamed(*Main, "while.exit");
  EXPECT_EQ(DT.idom(Body), Header);
  EXPECT_EQ(DT.idom(ExitBB), Header);
  EXPECT_TRUE(DT.dominates(Header, Body));
  EXPECT_FALSE(DT.dominates(Body, Header));
}

TEST(DominanceFrontier, DiamondBranchesHaveMergeInFrontier) {
  auto M = lowerOk(
      "proc main() { var x; if (x) { x = 1; } else { x = 2; } print x; }");
  Procedure *Main = getProc(*M, "main");
  DominatorTree DT(*Main);
  DominanceFrontier DF(*Main, DT);
  BasicBlock *Then = blockNamed(*Main, "if.then");
  BasicBlock *Merge = blockNamed(*Main, "if.merge");
  const std::vector<BasicBlock *> &Frontier = DF.frontier(Then);
  EXPECT_NE(std::find(Frontier.begin(), Frontier.end(), Merge),
            Frontier.end());
  // The entry dominates everything: its frontier is empty.
  EXPECT_TRUE(DF.frontier(Main->getEntryBlock()).empty());
}

TEST(DominanceFrontier, LoopHeaderInItsOwnFrontier) {
  auto M = lowerOk("proc main() { var x; while (x < 3) { x = x + 1; } }");
  Procedure *Main = getProc(*M, "main");
  DominatorTree DT(*Main);
  DominanceFrontier DF(*Main, DT);
  BasicBlock *Header = blockNamed(*Main, "while.header");
  BasicBlock *Body = blockNamed(*Main, "while.body");
  const std::vector<BasicBlock *> &Frontier = DF.frontier(Body);
  EXPECT_NE(std::find(Frontier.begin(), Frontier.end(), Header),
            Frontier.end())
      << "back edge puts the header in the body's frontier";
}

//===----------------------------------------------------------------------===//
// Property: the computed dominators agree with the definition — B is
// dominated by A iff removing A disconnects B from the entry.
//===----------------------------------------------------------------------===//

bool reachableAvoiding(Procedure &P, BasicBlock *Avoid, BasicBlock *Target) {
  if (Avoid == P.getEntryBlock())
    return Target == P.getEntryBlock() && Target != Avoid;
  std::unordered_set<BasicBlock *> Seen{Avoid};
  std::deque<BasicBlock *> Queue;
  if (P.getEntryBlock() != Avoid) {
    Queue.push_back(P.getEntryBlock());
    Seen.insert(P.getEntryBlock());
  }
  while (!Queue.empty()) {
    BasicBlock *BB = Queue.front();
    Queue.pop_front();
    if (BB == Target)
      return true;
    for (BasicBlock *Succ : BB->successors())
      if (Seen.insert(Succ).second)
        Queue.push_back(Succ);
  }
  return false;
}

class DominatorDefinitionCheck : public ::testing::TestWithParam<const char *> {
};

TEST_P(DominatorDefinitionCheck, MatchesRemovalDefinition) {
  auto M = lowerOk(GetParam());
  for (const std::unique_ptr<Procedure> &P : M->procedures()) {
    DominatorTree DT(*P);
    for (BasicBlock *A : P->blocks())
      for (BasicBlock *B : P->blocks()) {
        if (A == B)
          continue;
        bool Dominates = DT.dominates(A, B);
        bool Disconnects = !reachableAvoiding(*P, A, B);
        EXPECT_EQ(Dominates, Disconnects)
            << P->getName() << ": " << A->getName() << " vs " << B->getName();
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DominatorDefinitionCheck,
    ::testing::Values(
        "proc main() { var x; if (x) { x = 1; } else { x = 2; } print x; }",
        "proc main() { var x; while (x < 5) { if (x) { x = x + 2; } } }",
        "proc main() { var i, j; do i = 1, 3 { do j = 1, 3 { print i * j; } "
        "} }",
        "proc main() { var x; if (x) { if (x > 1) { x = 2; } } else { while "
        "(x < 0) { x = x + 1; } } print x; }",
        "proc main() { var x; if (x) { return; } print x; }"));

} // namespace
