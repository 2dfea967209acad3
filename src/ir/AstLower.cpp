//===- ir/AstLower.cpp ----------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/AstLower.h"

#include "support/Casting.h"

#include <charconv>
#include <cstring>
#include <vector>

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
    uint64_t Id = M->nextInstId();
    InstT *Inst = CurProc->create<InstT>(Id, std::forward<ArgTs>(Args)...);
    Cur->append(Inst);
    return Inst;
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

  Variable *resolve(std::string_view Name) {
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
  /// Reused for each call's actual list (calls do not nest).
  std::vector<CallActual> Actuals;
  char NameBuf[32];

  /// \p Stem followed by the next counter value; valid until the next
  /// call (createBlock copies it).
  std::string_view freshName(std::string_view Stem) {
    size_t Len = Stem.copy(NameBuf, sizeof(NameBuf) - 12);
    auto Res =
        std::to_chars(NameBuf + Len, NameBuf + sizeof(NameBuf), NameCounter++);
    return {NameBuf, size_t(Res.ptr - NameBuf)};
  }
};

/// Predicts the arena bytes lowering a procedure takes, so its arena's
/// first chunk holds all of them: no second chunk, no slack. It walks the
/// body in lowering's order and mirrors what each construct creates, block
/// names included (it keeps its own copy of the name counter). A mismatch
/// costs memory, never correctness.
class ArenaSizer {
public:
  size_t procBytes(const ProcDecl &Decl) {
    Bytes = 0;
    NumBlocks = 0;
    ExitPreds = 1; // the body's fall-through edge
    NumLocals = NumScalars = 0;
    for (const DeclItem &Param : Decl.Params)
      variable(Param.Name);
    Bytes += listBytes(Decl.Params.size());
    forEachLocalDecl(Decl, [this](const DeclItem &Item) {
      variable(Item.Name);
      ++NumLocals;
      NumScalars += !Item.isArray();
    });
    Bytes += listBytes(NumLocals);

    block(std::strlen("entry"), 0);
    Bytes += NumScalars * instBytes<StoreInst>(); // zero-initialization
    stmt(Decl.Body);
    Bytes += instBytes<BranchInst>() + instBytes<RetInst>();
    block(std::strlen("exit"), ExitPreds);
    return Bytes + listBytes(NumBlocks);
  }

private:
  template <typename InstT> static constexpr size_t instBytes() {
    return InstT::NumFixedOps * sizeof(Value *) + sizeof(InstT);
  }
  /// A name is padded by the 8-aligned block or variable that follows it.
  static size_t alignedName(size_t Len) {
    static_assert(alignof(BasicBlock) == 8 && alignof(Variable) == 8);
    return (Len + 7) & ~size_t(7);
  }
  /// An ArenaVector of \p N pointers: every capacity it grew through.
  static size_t listBytes(size_t N) {
    size_t Total = 0;
    for (size_t Cap = 2; N != 0; Cap *= 2) {
      Total += Cap;
      if (Cap >= N)
        break;
    }
    return Total * sizeof(void *);
  }

  void variable(std::string_view Name) {
    Bytes += alignedName(Name.size()) + sizeof(Variable);
  }
  void block(size_t NameLen, size_t Preds) {
    Bytes += alignedName(NameLen) + sizeof(BasicBlock) + listBytes(Preds);
    ++NumBlocks;
  }
  void freshBlock(std::string_view Stem, size_t Preds) {
    char Digits[16];
    auto Res = std::to_chars(Digits, Digits + sizeof(Digits), NameCounter++);
    block(Stem.size() + size_t(Res.ptr - Digits), Preds);
  }

  void expr(const Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral:
      return; // a module constant
    case Expr::Kind::VarRef:
      Bytes += instBytes<LoadInst>();
      return;
    case Expr::Kind::ArrayRef:
      expr(cast<ArrayRefExpr>(E)->getIndex());
      Bytes += instBytes<ArrayLoadInst>();
      return;
    case Expr::Kind::Binary:
      expr(cast<BinaryExpr>(E)->getLHS());
      expr(cast<BinaryExpr>(E)->getRHS());
      Bytes += instBytes<BinaryInst>();
      return;
    case Expr::Kind::Unary:
      expr(cast<UnaryExpr>(E)->getOperand());
      Bytes += instBytes<UnaryInst>();
      return;
    }
  }

  void store(const Expr *Target) {
    if (const auto *Ref = dyn_cast<ArrayRefExpr>(Target)) {
      expr(Ref->getIndex());
      Bytes += instBytes<ArrayStoreInst>();
    } else {
      Bytes += instBytes<StoreInst>();
    }
  }

  // Every statement leaves an unterminated block behind (a return leaves
  // its dead block), so each arm and loop body ends in one more branch.
  void stmt(const Stmt *S) {
    switch (S->getKind()) {
    case Stmt::Kind::VarDecl:
      return;
    case Stmt::Kind::Assign:
      expr(cast<AssignStmt>(S)->getValue());
      store(cast<AssignStmt>(S)->getTarget());
      return;
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      expr(If->getCond());
      freshBlock("if.then.", 1);
      freshBlock("if.merge.", 2);
      if (If->getElse())
        freshBlock("if.else.", 1);
      Bytes += instBytes<CondBranchInst>();
      stmt(If->getThen());
      Bytes += instBytes<BranchInst>();
      if (If->getElse()) {
        stmt(If->getElse());
        Bytes += instBytes<BranchInst>();
      }
      return;
    }
    case Stmt::Kind::While:
      freshBlock("while.header.", 2);
      freshBlock("while.body.", 1);
      freshBlock("while.exit.", 1);
      expr(cast<WhileStmt>(S)->getCond());
      stmt(cast<WhileStmt>(S)->getBody());
      Bytes += 2 * instBytes<BranchInst>() + instBytes<CondBranchInst>();
      return;
    case Stmt::Kind::DoLoop: {
      const auto *Do = cast<DoLoopStmt>(S);
      expr(Do->getLo());
      expr(Do->getHi());
      if (Do->getStep())
        expr(Do->getStep());
      freshBlock("do.header.", 2);
      freshBlock("do.body.", 1);
      freshBlock("do.exit.", 1);
      stmt(Do->getBody());
      Bytes += 2 * (instBytes<StoreInst>() + instBytes<LoadInst>() +
                    instBytes<BinaryInst>() + instBytes<BranchInst>()) +
               instBytes<CondBranchInst>();
      return;
    }
    case Stmt::Kind::Call: {
      std::span<Expr *const> Args = cast<CallStmt>(S)->getArgs();
      for (const Expr *Arg : Args)
        if (!isa<IntLiteralExpr>(Arg))
          expr(Arg); // a variable is loaded, like an expression
      Bytes += sizeof(CallInst) +
               Args.size() * (sizeof(Value *) + sizeof(CallActual));
      return;
    }
    case Stmt::Kind::Print:
      expr(cast<PrintStmt>(S)->getValue());
      Bytes += instBytes<PrintInst>();
      return;
    case Stmt::Kind::Read:
      Bytes += instBytes<ReadInst>();
      store(cast<ReadStmt>(S)->getTarget());
      return;
    case Stmt::Kind::Return:
      Bytes += instBytes<BranchInst>();
      ++ExitPreds;
      freshBlock("dead.", 0);
      return;
    case Stmt::Kind::Block:
      for (const Stmt *Child : cast<BlockStmt>(S)->getStmts())
        stmt(Child);
      return;
    }
  }

  size_t Bytes = 0;
  size_t NumBlocks = 0;
  size_t ExitPreds = 0;
  size_t NumLocals = 0;
  size_t NumScalars = 0;
  unsigned NameCounter = 0;
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
    Actuals.clear();
    for (const Expr *Arg : Call->getArgs()) {
      CallActual Actual;
      if (const auto *Lit = dyn_cast<IntLiteralExpr>(Arg)) {
        Actual.Val = M->getConstant(Lit->getValue());
        Actual.WasLiteral = true;
      } else if (const auto *Ref = dyn_cast<VarRefExpr>(Arg)) {
        Variable *Var = resolve(Ref->getName());
        assert(Var->isScalar() && "Sema rejects bare array arguments");
        Actual.Val = emit<LoadInst>(Arg->getLoc(), Var);
        Actual.ByRefLoc = Var; // Fortran by-reference binding
      } else {
        Actual.Val = lowerExpr(Arg); // hidden temporary
      }
      Actuals.push_back(Actual);
    }
    emit<CallInst>(S->getLoc(), Callee,
                   std::span<const CallActual>(Actuals));
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
    for (const Stmt *Child : cast<BlockStmt>(S)->getStmts())
      lowerStmt(Child);
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

  lowerStmt(Decl.Body);
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
  ArenaSizer Sizer;
  for (const ProcDecl &P : Prog.Procs)
    declareProcVars(M->createProcedure(P.Name, Sizer.procBytes(P)), P);

  for (const ProcDecl &P : Prog.Procs)
    lowerProc(P);

  return std::move(OwnedModule);
}

std::unique_ptr<Module> ipcp::lowerProgram(const Program &Prog) {
  LoweringContext Ctx;
  return Ctx.run(Prog);
}
