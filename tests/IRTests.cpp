//===- tests/IRTests.cpp - IR data structure tests ------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/DeadCode.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

#include <set>

using namespace ipcp;
using namespace ipcp::test;

namespace {

TEST(IRModule, ConstantsAreUniqued) {
  Module M;
  EXPECT_EQ(M.getConstant(42), M.getConstant(42));
  EXPECT_NE(M.getConstant(42), M.getConstant(43));
  EXPECT_EQ(M.getConstant(-1)->getValue(), -1);
}

TEST(IRModule, InstructionIdsAreUnique) {
  auto M = lowerOk("proc main() { var x; x = 1 + 2; print x; }");
  std::set<uint64_t> Ids;
  for (const std::unique_ptr<Procedure> &P : M->procedures())
    for (BasicBlock *BB : P->blocks())
      for (Instruction *Inst : BB->instructions())
        EXPECT_TRUE(Ids.insert(Inst->getId()).second)
            << "duplicate id " << Inst->getId();
}

TEST(IRModule, CloneIsStructurallyIdentical) {
  auto M = lowerOk("global g;\n"
                   "proc f(a, b) { a = b + g; call f(a, 1); }\n"
                   "proc main() { var x, m[4]; m[0] = x; call f(x, m[1]); "
                   "read x; print x; }");
  auto Clone = M->clone();
  EXPECT_EQ(printModule(*M), printModule(*Clone));
  expectVerifies(*Clone);
}

TEST(IRModule, ClonePreservesIds) {
  auto M = lowerOk("proc main() { var x; x = 2 * 3; print x; }");
  auto Clone = M->clone();
  auto Collect = [](Module &Mod) {
    std::vector<uint64_t> Ids;
    for (const std::unique_ptr<Procedure> &P : Mod.procedures())
      for (BasicBlock *BB : P->blocks())
        for (Instruction *Inst : BB->instructions())
          Ids.push_back(Inst->getId());
    return Ids;
  };
  EXPECT_EQ(Collect(*M), Collect(*Clone));
}

TEST(IRModule, CloneIsIndependent) {
  auto M = lowerOk("proc main() { var x; x = 1; }");
  auto Clone = M->clone();
  // Mutating the clone must not affect the original.
  Procedure *CloneMain = Clone->findProcedure("main");
  BasicBlock *Entry = CloneMain->getEntryBlock();
  Instruction *First = Entry->instructions().front();
  Entry->erase(First);
  EXPECT_NE(printModule(*M), printModule(*Clone));
}

TEST(IRModule, CloneVariableIdentityMapsByIdAndName) {
  auto M = lowerOk("global g;\nproc main() { var x; x = g; }");
  auto Clone = M->clone();
  EXPECT_EQ(M->globals()[0]->getId(), Clone->globals()[0]->getId());
  Procedure *Main = getProc(*M, "main");
  Procedure *CloneMain = getProc(*Clone, "main");
  ASSERT_EQ(Main->locals().size(), CloneMain->locals().size());
  EXPECT_EQ(Main->locals()[0]->getId(), CloneMain->locals()[0]->getId());
  EXPECT_NE(Main->locals()[0], CloneMain->locals()[0]);
}

TEST(IRModule, CallsResolveToLaterProcedures) {
  auto M = lowerOk("proc main() { call later(1); }\n"
                   "proc later(x) { print x; }");
  Procedure *Later = getProc(*M, "later");
  EXPECT_EQ(Later->getModuleIndex(), 1u);
  auto *Call = firstInst<CallInst>(*getProc(*M, "main"));
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->getCallee(), Later);
}

TEST(IRModule, CloneFindsItsOwnProcedures) {
  auto M = lowerOk("proc f(a) { a = 1; }\n"
                   "proc main() { var x; call f(x); }");
  auto Clone = M->clone();
  for (const std::unique_ptr<Procedure> &P : M->procedures()) {
    Procedure *Twin = Clone->findProcedure(P->getName());
    ASSERT_NE(Twin, nullptr) << P->getName();
    EXPECT_NE(Twin, P.get());
    EXPECT_EQ(Twin->getModule(), Clone.get());
    EXPECT_EQ(M->findProcedure(P->getName()), P.get());
  }
  EXPECT_EQ(firstInst<CallInst>(*getProc(*Clone, "main"))->getCallee(),
            Clone->findProcedure("f"));
}

TEST(IRModule, CloneProcedureIsFoundByItsNewName) {
  auto M = lowerOk("proc p(a) { print a; }\nproc main() { call p(1); }");
  Procedure *P = getProc(*M, "p");
  Procedure *Copy = M->cloneProcedure(*P, "p.clone1");
  EXPECT_EQ(M->findProcedure("p.clone1"), Copy);
  EXPECT_EQ(Copy->getModuleIndex(), 2u);
  EXPECT_EQ(M->findProcedure("p"), P);
  expectVerifies(*M);
}

TEST(IRModule, ErasedProcedureIsNoLongerFound) {
  auto M = lowerOk("proc a() { }\nproc b() { }\nproc c() { }\n"
                   "proc main() { }");
  Procedure *C = getProc(*M, "c");
  Procedure *Main = getProc(*M, "main");
  M->eraseProcedure(getProc(*M, "b"));
  EXPECT_EQ(M->findProcedure("b"), nullptr);
  EXPECT_EQ(M->findProcedure("a"), M->procedures()[0].get());
  EXPECT_EQ(M->findProcedure("c"), C);
  EXPECT_EQ(M->findProcedure("main"), Main);
  EXPECT_EQ(C->getModuleIndex(), 1u);
  EXPECT_EQ(Main->getModuleIndex(), 2u);
}

TEST(IRModule, FirstNamesakeWinsUntilErased) {
  Module M;
  Procedure *First = M.createProcedure("f");
  M.createProcedure("g");
  Procedure *Second = M.createProcedure("f");
  EXPECT_EQ(M.findProcedure("f"), First);
  M.eraseProcedure(First);
  EXPECT_EQ(M.findProcedure("f"), Second);
  M.eraseProcedure(Second);
  EXPECT_EQ(M.findProcedure("f"), nullptr);
  EXPECT_NE(M.findProcedure("g"), nullptr);
}

TEST(IRBasicBlock, SuccessorsFromTerminator) {
  auto M = lowerOk("proc main() { var x; if (x) { x = 1; } }");
  Procedure *Main = getProc(*M, "main");
  BasicBlock *Entry = Main->getEntryBlock();
  EXPECT_EQ(Entry->successors().size(), 2u);
  EXPECT_EQ(Main->getExitBlock()->successors().size(), 0u);
}

TEST(IRBasicBlock, PredecessorListsMatchEdges) {
  auto M =
      lowerOk("proc main() { var x; while (x < 2) { x = x + 1; } print x; }");
  expectVerifies(*M); // includes the edge consistency check
}

TEST(IRProcedure, RemoveUnreachableBlocks) {
  auto M = lowerOk("proc main() { var x; x = 1; }");
  Procedure *Main = getProc(*M, "main");
  // Manufacture an unreachable block.
  BasicBlock *Dead = Main->createBlock("dead");
  Dead->append(Main->create<BranchInst>(M->nextInstId(), SourceLoc(),
                                        Main->getExitBlock()));
  Main->getExitBlock()->addPredecessor(Dead);
  EXPECT_EQ(Main->removeUnreachableBlocks(), 1u);
  expectVerifies(*M);
}

TEST(IRInstruction, TerminatorPredicate) {
  Module M;
  Procedure *P = M.createProcedure("p");
  BasicBlock *A = P->createBlock("a");
  auto *Br = P->create<BranchInst>(M.nextInstId(), SourceLoc(), A);
  EXPECT_TRUE(Br->isTerminator());
  auto *Read = P->create<ReadInst>(M.nextInstId(), SourceLoc());
  EXPECT_FALSE(Read->isTerminator());
}

TEST(IRValue, KindPredicates) {
  Module M;
  EXPECT_TRUE(M.getConstant(5)->producesValue());
  EXPECT_FALSE(M.getConstant(5)->isInstruction());
  EXPECT_TRUE(M.getUndef()->producesValue());
  Procedure *P = M.createProcedure("p");
  auto *Print =
      P->create<PrintInst>(M.nextInstId(), SourceLoc(), M.getConstant(1));
  EXPECT_TRUE(Print->isInstruction());
  EXPECT_FALSE(Print->producesValue());
}

//===----------------------------------------------------------------------===//
// Verifier negative tests: each broken invariant is reported.
//===----------------------------------------------------------------------===//

TEST(Verifier, ReportsMissingTerminator) {
  Module M;
  Procedure *P = M.createProcedure("p");
  BasicBlock *BB = P->createBlock("entry");
  BB->append(P->create<ReadInst>(M.nextInstId(), SourceLoc()));
  std::vector<std::string> Errors;
  verifyProcedure(*P, Errors);
  ASSERT_FALSE(Errors.empty());
  bool Found = false;
  for (const std::string &E : Errors)
    if (E.find("terminators") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Verifier, ReportsInconsistentPredecessors) {
  Module M;
  Procedure *P = M.createProcedure("p");
  BasicBlock *A = P->createBlock("a");
  BasicBlock *B = P->createBlock("b");
  P->setExitBlock(B);
  A->append(P->create<BranchInst>(M.nextInstId(), SourceLoc(), B));
  B->append(P->create<RetInst>(M.nextInstId(), SourceLoc()));
  // Deliberately forget B->addPredecessor(A).
  std::vector<std::string> Errors;
  verifyProcedure(*P, Errors);
  bool Found = false;
  for (const std::string &E : Errors)
    if (E.find("inconsistent pred/succ") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Verifier, ReportsPhiInPreSSA) {
  auto M = lowerOk("proc main() { var x; x = 1; }");
  Procedure *Main = getProc(*M, "main");
  // Phis live in SSA side tables, never in an arena; this one lives here.
  PhiInst Phi(M->nextInstId(), SourceLoc(), Main->locals()[0]);
  Main->getEntryBlock()->insertAtTop(&Phi);
  std::vector<std::string> Errors;
  verifyProcedure(*Main, Errors);
  bool Found = false;
  for (const std::string &E : Errors)
    if (E.find("phi/callout") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Verifier, ReportsCallArityMismatch) {
  Module M;
  Procedure *Callee = M.createProcedure("callee");
  Callee->addFormal("a");
  BasicBlock *CB = Callee->createBlock("entry");
  Callee->setExitBlock(CB);
  CB->append(Callee->create<RetInst>(M.nextInstId(), SourceLoc()));

  Procedure *P = M.createProcedure("p");
  BasicBlock *BB = P->createBlock("entry");
  P->setExitBlock(BB);
  BB->append(P->create<CallInst>(M.nextInstId(), SourceLoc(), Callee,
                                 std::span<const CallActual>()));
  BB->append(P->create<RetInst>(M.nextInstId(), SourceLoc()));
  std::vector<std::string> Errors;
  verifyProcedure(*P, Errors);
  bool Found = false;
  for (const std::string &E : Errors)
    if (E.find("passes 0 actuals") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Fact application (applyFacts) on pre-SSA modules.
//===----------------------------------------------------------------------===//

TEST(ApplyFacts, SubstitutesConstantLoads) {
  auto M = lowerOk("global g;\nproc main() { g = 4; print g + 1; }");
  Procedure *Main = getProc(*M, "main");
  auto *Load = firstInst<LoadInst>(*Main);
  ASSERT_NE(Load, nullptr);
  TransformFacts Facts;
  Facts.ConstantLoads[Load->getId()] = 4;
  TransformStats Stats = applyFacts(*M, Facts);
  EXPECT_EQ(Stats.LoadsReplaced, 1u);
  EXPECT_EQ(countInsts<LoadInst>(*Main), 0u);
  expectVerifies(*M);
}

TEST(ApplyFacts, FoldsBranchesAndRemovesDeadBlocks) {
  auto M = lowerOk(
      "proc main() { var x; if (x == 0) { print 1; } else { print 2; } }");
  Procedure *Main = getProc(*M, "main");
  auto *CBr = firstInst<CondBranchInst>(*Main);
  ASSERT_NE(CBr, nullptr);
  TransformFacts Facts;
  Facts.FoldedBranches[CBr->getId()] = true; // always take the then-branch
  TransformStats Stats = applyFacts(*M, Facts);
  EXPECT_EQ(Stats.BranchesFolded, 1u);
  EXPECT_EQ(Stats.BlocksRemoved, 1u);
  EXPECT_TRUE(Stats.foundDeadCode());
  EXPECT_EQ(countInsts<PrintInst>(*Main), 1u);
  expectVerifies(*M);
}

TEST(ApplyFacts, RemovesTriviallyDeadChains) {
  auto M = lowerOk("proc main() { var x, y; y = (x + 1) * (x - 2); }");
  Procedure *Main = getProc(*M, "main");
  // Deleting the final store manually leaves the whole expression dead.
  StoreInst *TheStore = nullptr;
  for (BasicBlock *BB : Main->blocks())
    for (Instruction *Inst : BB->instructions())
      if (auto *Store = dyn_cast<StoreInst>(Inst))
        if (Store->getVariable()->getName() == "y")
          TheStore = Store;
  ASSERT_NE(TheStore, nullptr);
  TheStore->getParent()->erase(TheStore);
  unsigned Removed = removeTriviallyDeadInstructions(*Main);
  EXPECT_GE(Removed, 3u) << "the add, sub, mul and loads are dead";
  EXPECT_EQ(countInsts<BinaryInst>(*Main), 0u);
}

TEST(ApplyFacts, ReadsAreNeverDeleted) {
  auto M = lowerOk("proc main() { var x; read x; }");
  Procedure *Main = getProc(*M, "main");
  // The read's value is stored; delete the store so the read is unused.
  auto *Store = firstInst<StoreInst>(*Main);
  // Find the store fed by the read specifically.
  for (BasicBlock *BB : Main->blocks())
    for (Instruction *Inst : BB->instructions())
      if (auto *S = dyn_cast<StoreInst>(Inst))
        if (isa<ReadInst>(S->getValueOperand()))
          Store = S;
  Store->getParent()->erase(Store);
  removeTriviallyDeadInstructions(*Main);
  EXPECT_EQ(countInsts<ReadInst>(*Main), 1u)
      << "reads consume external input and must survive DCE";
}

} // namespace
