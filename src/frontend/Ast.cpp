//===- frontend/Ast.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Ast.h"

using namespace ipcp;

// Out-of-line virtual destructors anchor the vtables (see LLVM coding
// standards, "Provide a Virtual Method Anchor for Classes in Headers").
Expr::~Expr() = default;
Stmt::~Stmt() = default;

void ipcp::forEachLocalDecl(
    const ProcDecl &Proc, const std::function<void(const DeclItem &)> &Visit) {
  std::vector<const Stmt *> Stack{Proc.Body.get()};
  while (!Stack.empty()) {
    const Stmt *S = Stack.back();
    Stack.pop_back();
    if (const auto *Block = dyn_cast<BlockStmt>(S)) {
      for (const StmtPtr &Child : Block->getStmts())
        Stack.push_back(Child.get());
    } else if (const auto *If = dyn_cast<IfStmt>(S)) {
      Stack.push_back(If->getThen());
      if (If->getElse())
        Stack.push_back(If->getElse());
    } else if (const auto *While = dyn_cast<WhileStmt>(S)) {
      Stack.push_back(While->getBody());
    } else if (const auto *Do = dyn_cast<DoLoopStmt>(S)) {
      Stack.push_back(Do->getBody());
    } else if (const auto *Decl = dyn_cast<VarDeclStmt>(S)) {
      for (const DeclItem &Item : Decl->getItems())
        Visit(Item);
    }
  }
}
