//===- frontend/Sema.h - MiniFort semantic checks ---------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for MiniFort programs. Checks performed:
///
///  - no duplicate global, procedure, parameter, or local names
///    (declarations are procedure-scoped, as in Fortran — nested blocks do
///    not open new scopes);
///  - locals must not shadow parameters; either may shadow a global;
///  - every referenced variable is declared; every called procedure exists;
///  - call argument count matches the callee's parameter count;
///  - arrays are always subscripted and scalars never are;
///  - arrays are not passed as bare call arguments (globals are the
///    sharing mechanism, matching the analysis' array-opacity assumption);
///  - a zero-argument `main` procedure exists (whole-program analysis
///    needs an entry point);
///  - warning when a do-loop induction variable is assigned in the loop
///    body (nonconforming Fortran; the analysis stays sound regardless).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FRONTEND_SEMA_H
#define IPCP_FRONTEND_SEMA_H

#include "frontend/Ast.h"
#include "support/Diagnostics.h"

#include <memory_resource>
#include <optional>
#include <string_view>
#include <unordered_map>

namespace ipcp {

/// MiniFort's entry procedure (docs/LANGUAGE.md). Sema requires it with
/// no parameters; the interpreter starts there; the analysis starts the
/// entry's globals at zero on its virtual entry edge; cloning never
/// copies it and integration keeps what it reaches.
inline constexpr std::string_view EntryProcedureName = "main";

/// Runs the MiniFort semantic checks and reports through a
/// DiagnosticsEngine.
class Sema {
public:
  explicit Sema(DiagnosticsEngine &Diags) : Diags(Diags) {}

  /// Checks \p Prog; returns true when no errors were found.
  bool check(const Program &Prog);

private:
  /// What a name refers to inside a procedure.
  enum class Symbol { Scalar, Array };

  /// Names view the checked Program's text; map nodes come from NodePool.
  template <typename V>
  using NameMap = std::pmr::unordered_map<std::string_view, V>;

  struct ProcScope {
    explicit ProcScope(std::pmr::memory_resource *Pool) : Names(Pool) {}
    NameMap<Symbol> Names;
    const ProcDecl *Proc = nullptr;
  };

  void checkProc(const ProcDecl &Proc);
  void declare(ProcScope &Scope, const DeclItem &Item, const char *What);
  void checkStmt(ProcScope &Scope, const Stmt *S,
                 const std::string_view *LoopIndVar);
  void checkExpr(const ProcScope &Scope, const Expr *E);
  void checkLValue(const ProcScope &Scope, const Expr *E);
  /// Looks up \p Name in the procedure scope, then globals; nullopt when
  /// undeclared.
  std::optional<Symbol> lookup(const ProcScope &Scope,
                               std::string_view Name) const;

  DiagnosticsEngine &Diags;
  /// Recycles map nodes from one procedure's scope to the next, so a
  /// check allocates per pool block rather than per name.
  std::pmr::unsynchronized_pool_resource NodePool;
  NameMap<Symbol> GlobalNames{&NodePool};
  /// Name -> first definition of that name; empty outside check().
  NameMap<const ProcDecl *> ProcDecls{&NodePool};
};

} // namespace ipcp

#endif // IPCP_FRONTEND_SEMA_H
