//===- frontend/Ast.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Ast.h"

using namespace ipcp;

/// Visits the declarations under \p S in reverse pre-order: children last
/// to first, an `else` before its `then`. That is the order lowering has
/// always numbered locals in.
static void
visitLocalDecls(const Stmt *S,
                const std::function<void(const DeclItem &)> &Visit) {
  if (const auto *Block = dyn_cast<BlockStmt>(S)) {
    std::span<Stmt *const> Stmts = Block->getStmts();
    for (size_t I = Stmts.size(); I-- != 0;)
      visitLocalDecls(Stmts[I], Visit);
  } else if (const auto *If = dyn_cast<IfStmt>(S)) {
    if (If->getElse())
      visitLocalDecls(If->getElse(), Visit);
    visitLocalDecls(If->getThen(), Visit);
  } else if (const auto *While = dyn_cast<WhileStmt>(S)) {
    visitLocalDecls(While->getBody(), Visit);
  } else if (const auto *Do = dyn_cast<DoLoopStmt>(S)) {
    visitLocalDecls(Do->getBody(), Visit);
  } else if (const auto *Decl = dyn_cast<VarDeclStmt>(S)) {
    for (const DeclItem &Item : Decl->getItems())
      Visit(Item);
  }
}

void ipcp::forEachLocalDecl(
    const ProcDecl &Proc, const std::function<void(const DeclItem &)> &Visit) {
  visitLocalDecls(Proc.Body, Visit);
}
