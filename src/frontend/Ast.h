//===- frontend/Ast.h - MiniFort abstract syntax tree -----------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniFort AST: expressions, statements, declarations, and the Program
/// root. Nodes carry source locations and participate in the LLVM-style
/// isa/cast/dyn_cast machinery through Kind enums.
///
/// Semantics relevant to the analysis (see DESIGN.md):
///  - all scalar values are 64-bit integers;
///  - parameters are passed by reference (Fortran call semantics) — a plain
///    variable actual aliases the callee formal, any other actual is copied
///    into a hidden temporary whose final value is discarded;
///  - global variables are shared by all procedures (COMMON semantics) and
///    initialized to zero;
///  - arrays are opaque to constant propagation, as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FRONTEND_AST_H
#define IPCP_FRONTEND_AST_H

#include "support/Casting.h"
#include "support/ConstantMath.h"
#include "support/SourceLoc.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ipcp {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of every MiniFort expression.
class Expr {
public:
  enum class Kind {
    IntLiteral,
    VarRef,
    ArrayRef,
    Binary,
    Unary,
  };

  virtual ~Expr();

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Expr(Kind TheKind, SourceLoc Loc) : TheKind(TheKind), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

using ExprPtr = std::unique_ptr<Expr>;

/// An integer literal such as `42`.
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(SourceLoc Loc, ConstantValue Value)
      : Expr(Kind::IntLiteral, Loc), Value(Value) {}

  ConstantValue getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::IntLiteral;
  }

private:
  ConstantValue Value;
};

/// A reference to a scalar variable (local, formal, or global).
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, std::string Name)
      : Expr(Kind::VarRef, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

private:
  std::string Name;
};

/// A subscripted array reference `a[i]`.
class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(SourceLoc Loc, std::string Name, ExprPtr Index)
      : Expr(Kind::ArrayRef, Loc), Name(std::move(Name)),
        Index(std::move(Index)) {}

  const std::string &getName() const { return Name; }
  const Expr *getIndex() const { return Index.get(); }
  Expr *getIndex() { return Index.get(); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::ArrayRef; }

private:
  std::string Name;
  ExprPtr Index;
};

/// A binary arithmetic or comparison expression.
class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp getOp() const { return Op; }
  const Expr *getLHS() const { return LHS.get(); }
  const Expr *getRHS() const { return RHS.get(); }
  Expr *getLHS() { return LHS.get(); }
  Expr *getRHS() { return RHS.get(); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  ExprPtr LHS;
  ExprPtr RHS;
};

/// A unary negation or logical-not expression.
class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, ExprPtr Operand)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp getOp() const { return Op; }
  const Expr *getOperand() const { return Operand.get(); }
  Expr *getOperand() { return Operand.get(); }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Operand;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of every MiniFort statement.
class Stmt {
public:
  enum class Kind {
    VarDecl,
    Assign,
    If,
    While,
    DoLoop,
    Call,
    Print,
    Read,
    Return,
    Block,
  };

  virtual ~Stmt();

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Stmt(Kind TheKind, SourceLoc Loc) : TheKind(TheKind), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// One declared name: a scalar, or an array with its extent.
struct DeclItem {
  SourceLoc Loc;
  std::string Name;
  /// Zero for scalars; the declared extent for arrays.
  ConstantValue ArraySize = 0;
  bool isArray() const { return ArraySize != 0; }
};

/// `var a, b;` or `var t[10];` — procedure-scoped declarations.
class VarDeclStmt : public Stmt {
public:
  VarDeclStmt(SourceLoc Loc, std::vector<DeclItem> Items)
      : Stmt(Kind::VarDecl, Loc), Items(std::move(Items)) {}

  const std::vector<DeclItem> &getItems() const { return Items; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::VarDecl; }

private:
  std::vector<DeclItem> Items;
};

/// `lvalue = expr;`. The target is a VarRefExpr or ArrayRefExpr.
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, ExprPtr Target, ExprPtr Value)
      : Stmt(Kind::Assign, Loc), Target(std::move(Target)),
        Value(std::move(Value)) {}

  const Expr *getTarget() const { return Target.get(); }
  const Expr *getValue() const { return Value.get(); }
  Expr *getTarget() { return Target.get(); }
  Expr *getValue() { return Value.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  ExprPtr Target;
  ExprPtr Value;
};

/// `if (cond) block [else block-or-if]`. Nonzero condition is true.
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, ExprPtr Cond, StmtPtr Then, StmtPtr Else)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  const Stmt *getThen() const { return Then.get(); }
  Stmt *getThen() { return Then.get(); }
  /// May be null.
  const Stmt *getElse() const { return Else.get(); }
  Stmt *getElse() { return Else.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else;
};

/// `while (cond) block`.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, ExprPtr Cond, StmtPtr Body)
      : Stmt(Kind::While, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}

  const Expr *getCond() const { return Cond.get(); }
  Expr *getCond() { return Cond.get(); }
  const Stmt *getBody() const { return Body.get(); }
  Stmt *getBody() { return Body.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

private:
  ExprPtr Cond;
  StmtPtr Body;
};

/// `do i = lo, hi [, step] block` — the Fortran DO loop. The induction
/// variable counts from `lo` while `i <= hi` (or `i >= hi` when the step is
/// a negative literal), incremented by `step` (default 1) each iteration.
class DoLoopStmt : public Stmt {
public:
  DoLoopStmt(SourceLoc Loc, std::string IndVar, ExprPtr Lo, ExprPtr Hi,
             ExprPtr Step, StmtPtr Body)
      : Stmt(Kind::DoLoop, Loc), IndVar(std::move(IndVar)), Lo(std::move(Lo)),
        Hi(std::move(Hi)), Step(std::move(Step)), Body(std::move(Body)) {}

  const std::string &getIndVar() const { return IndVar; }
  const Expr *getLo() const { return Lo.get(); }
  Expr *getLo() { return Lo.get(); }
  const Expr *getHi() const { return Hi.get(); }
  Expr *getHi() { return Hi.get(); }
  /// May be null (step 1).
  const Expr *getStep() const { return Step.get(); }
  Expr *getStep() { return Step.get(); }
  const Stmt *getBody() const { return Body.get(); }
  Stmt *getBody() { return Body.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::DoLoop; }

private:
  std::string IndVar;
  ExprPtr Lo;
  ExprPtr Hi;
  ExprPtr Step;
  StmtPtr Body;
};

/// `call p(e1, ..., en);`.
class CallStmt : public Stmt {
public:
  CallStmt(SourceLoc Loc, std::string Callee, std::vector<ExprPtr> Args)
      : Stmt(Kind::Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &getCallee() const { return Callee; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }
  std::vector<ExprPtr> &getArgs() { return Args; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<ExprPtr> Args;
};

/// `print expr;` — the observable output of a program.
class PrintStmt : public Stmt {
public:
  PrintStmt(SourceLoc Loc, ExprPtr Value)
      : Stmt(Kind::Print, Loc), Value(std::move(Value)) {}

  const Expr *getValue() const { return Value.get(); }
  Expr *getValue() { return Value.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Print; }

private:
  ExprPtr Value;
};

/// `read lvalue;` — reads an external (hence non-constant) integer.
class ReadStmt : public Stmt {
public:
  ReadStmt(SourceLoc Loc, ExprPtr Target)
      : Stmt(Kind::Read, Loc), Target(std::move(Target)) {}

  const Expr *getTarget() const { return Target.get(); }
  Expr *getTarget() { return Target.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Read; }

private:
  ExprPtr Target;
};

/// `return;` — exits the current procedure.
class ReturnStmt : public Stmt {
public:
  explicit ReturnStmt(SourceLoc Loc) : Stmt(Kind::Return, Loc) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }
};

/// `{ stmt* }`.
class BlockStmt : public Stmt {
public:
  BlockStmt(SourceLoc Loc, std::vector<StmtPtr> Stmts)
      : Stmt(Kind::Block, Loc), Stmts(std::move(Stmts)) {}

  const std::vector<StmtPtr> &getStmts() const { return Stmts; }
  std::vector<StmtPtr> &getStmts() { return Stmts; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }

private:
  std::vector<StmtPtr> Stmts;
};

//===----------------------------------------------------------------------===//
// Declarations and the program root
//===----------------------------------------------------------------------===//

/// A `global` declaration of one or more shared scalars or arrays.
struct GlobalDecl {
  SourceLoc Loc;
  std::vector<DeclItem> Items;
};

/// A `proc name(params) { ... }` definition.
struct ProcDecl {
  SourceLoc Loc;
  std::string Name;
  std::vector<DeclItem> Params; // always scalars
  std::unique_ptr<BlockStmt> Body;
};

/// Calls \p Visit on each item of every `var` declaration in \p Proc's
/// body, nested blocks included. A procedure has one flat, Fortran-style
/// scope, so Sema declares and lowering allocates every local before the
/// body runs. The visiting order fixes each local's variable ID.
void forEachLocalDecl(const ProcDecl &Proc,
                      const std::function<void(const DeclItem &)> &Visit);

/// A whole MiniFort compilation unit.
struct Program {
  std::vector<GlobalDecl> Globals;
  std::vector<ProcDecl> Procs;

  /// Finds a procedure by name; null if absent.
  const ProcDecl *findProc(const std::string &Name) const {
    for (const ProcDecl &P : Procs)
      if (P.Name == Name)
        return &P;
    return nullptr;
  }
};

} // namespace ipcp

#endif // IPCP_FRONTEND_AST_H
