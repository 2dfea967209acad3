//===- ir/AstLower.cpp ----------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/AstLower.h"

#include "support/Casting.h"

#include <unordered_map>

using namespace ipcp;

namespace {

/// Lowers one program; one instance per lowerProgram call.
class LoweringContext {
public:
  std::unique_ptr<Module> run(const Program &Prog);

private:
  // Block plumbing -------------------------------------------------------

  /// Adds a CFG edge and maintains the predecessor list.
  void link(BasicBlock *From, BasicBlock *To) { To->addPredecessor(From); }

  template <typename InstT, typename... ArgTs> InstT *emit(ArgTs &&...Args) {
    auto Inst = std::make_unique<InstT>(M->nextInstId(),
                                        std::forward<ArgTs>(Args)...);
    InstT *Raw = Inst.get();
    Cur->append(std::move(Inst));
    return Raw;
  }

  void branchTo(SourceLoc Loc, BasicBlock *Target) {
    emit<BranchInst>(Loc, Target);
    link(Cur, Target);
  }

  void condBranchTo(SourceLoc Loc, Value *Cond, BasicBlock *TrueBB,
                    BasicBlock *FalseBB) {
    assert(TrueBB != FalseBB && "lowering never emits degenerate branches");
    emit<CondBranchInst>(Loc, Cond, TrueBB, FalseBB);
    link(Cur, TrueBB);
    link(Cur, FalseBB);
  }

  // Name resolution ------------------------------------------------------

  Variable *resolve(const std::string &Name) {
    Variable *V = CurProc->findVariable(Name);
    if (!V)
      V = M->findGlobal(Name);
    assert(V && "Sema guarantees every name resolves");
    return V;
  }

  // Lowering -------------------------------------------------------------

  void declareProcVars(Procedure *P, const ProcDecl &Decl);
  void lowerProc(const ProcDecl &Decl);
  void lowerStmt(const Stmt *S);
  Value *lowerExpr(const Expr *E);
  void lowerStore(const Expr *Target, Value *Val, SourceLoc Loc);

  std::unique_ptr<Module> OwnedModule;
  Module *M = nullptr;
  Procedure *CurProc = nullptr;
  BasicBlock *Cur = nullptr;
  BasicBlock *Exit = nullptr;
  unsigned NameCounter = 0;

  std::string freshName(const char *Stem) {
    return std::string(Stem) + std::to_string(NameCounter++);
  }
};

} // namespace

void LoweringContext::declareProcVars(Procedure *P, const ProcDecl &Decl) {
  for (const DeclItem &Param : Decl.Params)
    P->addFormal(Param.Name);

  // Hoist every local declaration (Fortran-style flat procedure scope).
  forEachLocalDecl(Decl, [P](const DeclItem &Item) {
    P->addLocal(Item.Name, Item.ArraySize);
  });
}

Value *LoweringContext::lowerExpr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return M->getConstant(cast<IntLiteralExpr>(E)->getValue());
  case Expr::Kind::VarRef: {
    Variable *Var = resolve(cast<VarRefExpr>(E)->getName());
    return emit<LoadInst>(E->getLoc(), Var);
  }
  case Expr::Kind::ArrayRef: {
    const auto *Ref = cast<ArrayRefExpr>(E);
    Value *Index = lowerExpr(Ref->getIndex());
    return emit<ArrayLoadInst>(E->getLoc(), resolve(Ref->getName()), Index);
  }
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    Value *LHS = lowerExpr(Bin->getLHS());
    Value *RHS = lowerExpr(Bin->getRHS());
    return emit<BinaryInst>(E->getLoc(), Bin->getOp(), LHS, RHS);
  }
  case Expr::Kind::Unary: {
    const auto *Un = cast<UnaryExpr>(E);
    Value *Operand = lowerExpr(Un->getOperand());
    return emit<UnaryInst>(E->getLoc(), Un->getOp(), Operand);
  }
  }
  return nullptr;
}

void LoweringContext::lowerStore(const Expr *Target, Value *Val,
                                 SourceLoc Loc) {
  if (const auto *Ref = dyn_cast<VarRefExpr>(Target)) {
    emit<StoreInst>(Loc, resolve(Ref->getName()), Val);
    return;
  }
  const auto *Ref = cast<ArrayRefExpr>(Target);
  Value *Index = lowerExpr(Ref->getIndex());
  emit<ArrayStoreInst>(Loc, resolve(Ref->getName()), Index, Val);
}

void LoweringContext::lowerStmt(const Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::VarDecl:
    return; // declarations were hoisted
  case Stmt::Kind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    Value *Val = lowerExpr(Assign->getValue());
    lowerStore(Assign->getTarget(), Val, S->getLoc());
    return;
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    Value *Cond = lowerExpr(If->getCond());
    BasicBlock *ThenBB = CurProc->createBlock(freshName("if.then."));
    BasicBlock *MergeBB = CurProc->createBlock(freshName("if.merge."));
    BasicBlock *ElseBB =
        If->getElse() ? CurProc->createBlock(freshName("if.else.")) : MergeBB;
    condBranchTo(S->getLoc(), Cond, ThenBB, ElseBB);

    Cur = ThenBB;
    lowerStmt(If->getThen());
    if (!Cur->hasTerminator())
      branchTo(S->getLoc(), MergeBB);

    if (If->getElse()) {
      Cur = ElseBB;
      lowerStmt(If->getElse());
      if (!Cur->hasTerminator())
        branchTo(S->getLoc(), MergeBB);
    }
    Cur = MergeBB;
    return;
  }
  case Stmt::Kind::While: {
    const auto *While = cast<WhileStmt>(S);
    BasicBlock *Header = CurProc->createBlock(freshName("while.header."));
    BasicBlock *Body = CurProc->createBlock(freshName("while.body."));
    BasicBlock *ExitBB = CurProc->createBlock(freshName("while.exit."));
    branchTo(S->getLoc(), Header);

    Cur = Header;
    Value *Cond = lowerExpr(While->getCond());
    condBranchTo(S->getLoc(), Cond, Body, ExitBB);

    Cur = Body;
    lowerStmt(While->getBody());
    if (!Cur->hasTerminator())
      branchTo(S->getLoc(), Header);

    Cur = ExitBB;
    return;
  }
  case Stmt::Kind::DoLoop: {
    const auto *Do = cast<DoLoopStmt>(S);
    Variable *IndVar = resolve(Do->getIndVar());

    // Fortran semantics: bounds and step are evaluated once, on entry.
    Value *Lo = lowerExpr(Do->getLo());
    Value *Hi = lowerExpr(Do->getHi());
    Value *Step =
        Do->getStep() ? lowerExpr(Do->getStep()) : M->getConstant(1);
    bool Descending = false;
    if (const auto *StepLit =
            dyn_cast_or_null<IntLiteralExpr>(Do->getStep()))
      Descending = StepLit->getValue() < 0;
    emit<StoreInst>(S->getLoc(), IndVar, Lo);

    BasicBlock *Header = CurProc->createBlock(freshName("do.header."));
    BasicBlock *Body = CurProc->createBlock(freshName("do.body."));
    BasicBlock *ExitBB = CurProc->createBlock(freshName("do.exit."));
    branchTo(S->getLoc(), Header);

    Cur = Header;
    Value *IV = emit<LoadInst>(S->getLoc(), IndVar);
    Value *Cond = emit<BinaryInst>(
        S->getLoc(), Descending ? BinaryOp::CmpGe : BinaryOp::CmpLe, IV, Hi);
    condBranchTo(S->getLoc(), Cond, Body, ExitBB);

    Cur = Body;
    lowerStmt(Do->getBody());
    if (!Cur->hasTerminator()) {
      Value *IV2 = emit<LoadInst>(S->getLoc(), IndVar);
      Value *Next = emit<BinaryInst>(S->getLoc(), BinaryOp::Add, IV2, Step);
      emit<StoreInst>(S->getLoc(), IndVar, Next);
      branchTo(S->getLoc(), Header);
    }

    Cur = ExitBB;
    return;
  }
  case Stmt::Kind::Call: {
    const auto *Call = cast<CallStmt>(S);
    Procedure *Callee = M->findProcedure(Call->getCallee());
    assert(Callee && "Sema guarantees the callee exists");
    std::vector<CallActual> Actuals;
    for (const ExprPtr &Arg : Call->getArgs()) {
      CallActual Actual;
      if (const auto *Lit = dyn_cast<IntLiteralExpr>(Arg.get())) {
        Actual.Val = M->getConstant(Lit->getValue());
        Actual.WasLiteral = true;
      } else if (const auto *Ref = dyn_cast<VarRefExpr>(Arg.get())) {
        Variable *Var = resolve(Ref->getName());
        assert(Var->isScalar() && "Sema rejects bare array arguments");
        Actual.Val = emit<LoadInst>(Arg->getLoc(), Var);
        Actual.ByRefLoc = Var; // Fortran by-reference binding
      } else {
        Actual.Val = lowerExpr(Arg.get()); // hidden temporary
      }
      Actuals.push_back(Actual);
    }
    emit<CallInst>(S->getLoc(), Callee, std::move(Actuals));
    return;
  }
  case Stmt::Kind::Print: {
    Value *Val = lowerExpr(cast<PrintStmt>(S)->getValue());
    emit<PrintInst>(S->getLoc(), Val);
    return;
  }
  case Stmt::Kind::Read: {
    Value *Val = emit<ReadInst>(S->getLoc());
    lowerStore(cast<ReadStmt>(S)->getTarget(), Val, S->getLoc());
    return;
  }
  case Stmt::Kind::Return: {
    branchTo(S->getLoc(), Exit);
    // Statements after the return are unreachable; park them in a block
    // that removeUnreachableBlocks deletes.
    Cur = CurProc->createBlock(freshName("dead."));
    return;
  }
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->getStmts())
      lowerStmt(Child.get());
    return;
  }
}

void LoweringContext::lowerProc(const ProcDecl &Decl) {
  CurProc = M->findProcedure(Decl.Name);
  Cur = CurProc->createBlock("entry");
  Exit = CurProc->createBlock("exit");
  CurProc->setExitBlock(Exit);

  // Zero-initialize scalar locals (MiniFort semantics); arrays are
  // zero-filled by the runtime and opaque to the analysis.
  for (Variable *Local : CurProc->locals())
    if (Local->isScalar())
      emit<StoreInst>(Decl.Loc, Local, M->getConstant(0));

  lowerStmt(Decl.Body.get());
  if (!Cur->hasTerminator())
    branchTo(Decl.Loc, Exit);

  Cur = Exit;
  emit<RetInst>(Decl.Loc);

  CurProc->removeUnreachableBlocks();
}

std::unique_ptr<Module> LoweringContext::run(const Program &Prog) {
  OwnedModule = std::make_unique<Module>();
  M = OwnedModule.get();

  for (const GlobalDecl &G : Prog.Globals)
    for (const DeclItem &Item : G.Items)
      M->addGlobal(Item.Name, Item.ArraySize);

  // Create all procedures first so calls can be resolved in one pass.
  for (const ProcDecl &P : Prog.Procs)
    declareProcVars(M->createProcedure(P.Name), P);

  for (const ProcDecl &P : Prog.Procs)
    lowerProc(P);

  return std::move(OwnedModule);
}

std::unique_ptr<Module> ipcp::lowerProgram(const Program &Prog) {
  LoweringContext Ctx;
  return Ctx.run(Prog);
}
