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
/// Every node is trivially destructible and bump-allocated from the arena
/// its Program owns: child links are plain pointers, child lists are spans
/// of arena memory, and names are views into the Program's own copy of
/// the source text. Dropping a Program frees the whole tree in O(chunks).
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

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/ConstantMath.h"
#include "support/SourceLoc.h"

#include <functional>
#include <span>
#include <string_view>

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

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Expr(Kind TheKind, SourceLoc Loc) : TheKind(TheKind), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

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
  VarRefExpr(SourceLoc Loc, std::string_view Name)
      : Expr(Kind::VarRef, Loc), Name(Name) {}

  std::string_view getName() const { return Name; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

private:
  std::string_view Name;
};

/// A subscripted array reference `a[i]`.
class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(SourceLoc Loc, std::string_view Name, Expr *Index)
      : Expr(Kind::ArrayRef, Loc), Name(Name), Index(Index) {}

  std::string_view getName() const { return Name; }
  const Expr *getIndex() const { return Index; }
  Expr *getIndex() { return Index; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::ArrayRef; }

private:
  std::string_view Name;
  Expr *Index;
};

/// A binary arithmetic or comparison expression.
class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *LHS, Expr *RHS)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp getOp() const { return Op; }
  const Expr *getLHS() const { return LHS; }
  const Expr *getRHS() const { return RHS; }
  Expr *getLHS() { return LHS; }
  Expr *getRHS() { return RHS; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// A unary negation or logical-not expression.
class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Operand)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(Operand) {}

  UnaryOp getOp() const { return Op; }
  const Expr *getOperand() const { return Operand; }
  Expr *getOperand() { return Operand; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  Expr *Operand;
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

  Kind getKind() const { return TheKind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Stmt(Kind TheKind, SourceLoc Loc) : TheKind(TheKind), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

/// One declared name: a scalar, or an array with its extent.
struct DeclItem {
  SourceLoc Loc;
  std::string_view Name;
  /// Zero for scalars; the declared extent for arrays.
  ConstantValue ArraySize = 0;
  bool isArray() const { return ArraySize != 0; }
};

/// `var a, b;` or `var t[10];` — procedure-scoped declarations.
class VarDeclStmt : public Stmt {
public:
  VarDeclStmt(SourceLoc Loc, std::span<const DeclItem> Items)
      : Stmt(Kind::VarDecl, Loc), Items(Items) {}

  std::span<const DeclItem> getItems() const { return Items; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::VarDecl; }

private:
  std::span<const DeclItem> Items;
};

/// `lvalue = expr;`. The target is a VarRefExpr or ArrayRefExpr.
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, Expr *Target, Expr *Value)
      : Stmt(Kind::Assign, Loc), Target(Target), Value(Value) {}

  const Expr *getTarget() const { return Target; }
  const Expr *getValue() const { return Value; }
  Expr *getTarget() { return Target; }
  Expr *getValue() { return Value; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  Expr *Target;
  Expr *Value;
};

/// `if (cond) block [else block-or-if]`. Nonzero condition is true.
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  const Expr *getCond() const { return Cond; }
  Expr *getCond() { return Cond; }
  const Stmt *getThen() const { return Then; }
  Stmt *getThen() { return Then; }
  /// May be null.
  const Stmt *getElse() const { return Else; }
  Stmt *getElse() { return Else; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

/// `while (cond) block`.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}

  const Expr *getCond() const { return Cond; }
  Expr *getCond() { return Cond; }
  const Stmt *getBody() const { return Body; }
  Stmt *getBody() { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

private:
  Expr *Cond;
  Stmt *Body;
};

/// `do i = lo, hi [, step] block` — the Fortran DO loop. The induction
/// variable counts from `lo` while `i <= hi` (or `i >= hi` when the step is
/// a negative literal), incremented by `step` (default 1) each iteration.
class DoLoopStmt : public Stmt {
public:
  DoLoopStmt(SourceLoc Loc, std::string_view IndVar, Expr *Lo, Expr *Hi,
             Expr *Step, Stmt *Body)
      : Stmt(Kind::DoLoop, Loc), IndVar(IndVar), Lo(Lo), Hi(Hi), Step(Step),
        Body(Body) {}

  std::string_view getIndVar() const { return IndVar; }
  const Expr *getLo() const { return Lo; }
  Expr *getLo() { return Lo; }
  const Expr *getHi() const { return Hi; }
  Expr *getHi() { return Hi; }
  /// May be null (step 1).
  const Expr *getStep() const { return Step; }
  Expr *getStep() { return Step; }
  const Stmt *getBody() const { return Body; }
  Stmt *getBody() { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::DoLoop; }

private:
  std::string_view IndVar;
  Expr *Lo;
  Expr *Hi;
  Expr *Step;
  Stmt *Body;
};

/// `call p(e1, ..., en);`.
class CallStmt : public Stmt {
public:
  CallStmt(SourceLoc Loc, std::string_view Callee,
           std::span<Expr *const> Args)
      : Stmt(Kind::Call, Loc), Callee(Callee), Args(Args) {}

  std::string_view getCallee() const { return Callee; }
  std::span<Expr *const> getArgs() const { return Args; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Call; }

private:
  std::string_view Callee;
  std::span<Expr *const> Args;
};

/// `print expr;` — the observable output of a program.
class PrintStmt : public Stmt {
public:
  PrintStmt(SourceLoc Loc, Expr *Value)
      : Stmt(Kind::Print, Loc), Value(Value) {}

  const Expr *getValue() const { return Value; }
  Expr *getValue() { return Value; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Print; }

private:
  Expr *Value;
};

/// `read lvalue;` — reads an external (hence non-constant) integer.
class ReadStmt : public Stmt {
public:
  ReadStmt(SourceLoc Loc, Expr *Target)
      : Stmt(Kind::Read, Loc), Target(Target) {}

  const Expr *getTarget() const { return Target; }
  Expr *getTarget() { return Target; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Read; }

private:
  Expr *Target;
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
  BlockStmt(SourceLoc Loc, std::span<Stmt *const> Stmts)
      : Stmt(Kind::Block, Loc), Stmts(Stmts) {}

  std::span<Stmt *const> getStmts() const { return Stmts; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }

private:
  std::span<Stmt *const> Stmts;
};

//===----------------------------------------------------------------------===//
// Declarations and the program root
//===----------------------------------------------------------------------===//

/// A `global` declaration of one or more shared scalars or arrays.
struct GlobalDecl {
  SourceLoc Loc;
  std::span<const DeclItem> Items;
};

/// A `proc name(params) { ... }` definition.
struct ProcDecl {
  SourceLoc Loc;
  std::string_view Name;
  std::span<const DeclItem> Params; // always scalars
  const BlockStmt *Body = nullptr;
};

/// Calls \p Visit on each item of every `var` declaration in \p Proc's
/// body, nested blocks included. A procedure has one flat, Fortran-style
/// scope, so Sema declares and lowering allocates every local before the
/// body runs. The visiting order fixes each local's variable ID.
void forEachLocalDecl(const ProcDecl &Proc,
                      const std::function<void(const DeclItem &)> &Visit);

/// A whole MiniFort compilation unit. It owns the arena holding every
/// node, declaration list and name of its tree, plus its own copy of the
/// source text the names view, so it outlives the buffer it was parsed
/// from. Movable; moving keeps every node in place.
class Program {
public:
  Program() = default;

  std::span<const GlobalDecl> Globals;
  std::span<const ProcDecl> Procs;

private:
  friend class Parser;

  Arena Mem;
};

} // namespace ipcp

#endif // IPCP_FRONTEND_AST_H
