//===- frontend/AstPrinter.cpp --------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/AstPrinter.h"

#include "support/Casting.h"

using namespace ipcp;

namespace {

/// Stateful pretty printer with indentation tracking.
class PrinterImpl {
public:
  std::string run(const Program &Prog) {
    for (const GlobalDecl &G : Prog.Globals) {
      Out += "global ";
      printItems(G.Items);
      Out += ";\n";
    }
    for (const ProcDecl &P : Prog.Procs) {
      Out += "\nproc ";
      Out += P.Name;
      Out += "(";
      for (size_t I = 0; I != P.Params.size(); ++I) {
        if (I)
          Out += ", ";
        Out += P.Params[I].Name;
      }
      Out += ") ";
      printStmt(P.Body);
      Out += "\n";
    }
    return std::move(Out);
  }

  void printExprInto(const Expr *E) { printExpr(E); }
  std::string take() { return std::move(Out); }

private:
  void indent() { Out.append(2 * Depth, ' '); }

  void printItems(std::span<const DeclItem> Items) {
    for (size_t I = 0; I != Items.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Items[I].Name;
      if (Items[I].isArray()) {
        Out += "[";
        Out += std::to_string(Items[I].ArraySize);
        Out += "]";
      }
    }
  }

  void printExpr(const Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral: {
      ConstantValue V = cast<IntLiteralExpr>(E)->getValue();
      if (V < 0)
        Out += "(";
      Out += std::to_string(V);
      if (V < 0)
        Out += ")";
      return;
    }
    case Expr::Kind::VarRef:
      Out += cast<VarRefExpr>(E)->getName();
      return;
    case Expr::Kind::ArrayRef: {
      const auto *Ref = cast<ArrayRefExpr>(E);
      Out += Ref->getName();
      Out += "[";
      printExpr(Ref->getIndex());
      Out += "]";
      return;
    }
    case Expr::Kind::Binary: {
      const auto *Bin = cast<BinaryExpr>(E);
      Out += "(";
      printExpr(Bin->getLHS());
      Out += " ";
      Out += binaryOpSpelling(Bin->getOp());
      Out += " ";
      printExpr(Bin->getRHS());
      Out += ")";
      return;
    }
    case Expr::Kind::Unary: {
      const auto *Un = cast<UnaryExpr>(E);
      Out += "(";
      Out += unaryOpSpelling(Un->getOp());
      printExpr(Un->getOperand());
      Out += ")";
      return;
    }
    }
  }

  void printStmt(const Stmt *S) {
    switch (S->getKind()) {
    case Stmt::Kind::VarDecl:
      Out += "var ";
      printItems(cast<VarDeclStmt>(S)->getItems());
      Out += ";";
      return;
    case Stmt::Kind::Assign: {
      const auto *Assign = cast<AssignStmt>(S);
      printExpr(Assign->getTarget());
      Out += " = ";
      printExpr(Assign->getValue());
      Out += ";";
      return;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      Out += "if (";
      printExpr(If->getCond());
      Out += ") ";
      printStmt(If->getThen());
      if (If->getElse()) {
        Out += " else ";
        printStmt(If->getElse());
      }
      return;
    }
    case Stmt::Kind::While: {
      const auto *While = cast<WhileStmt>(S);
      Out += "while (";
      printExpr(While->getCond());
      Out += ") ";
      printStmt(While->getBody());
      return;
    }
    case Stmt::Kind::DoLoop: {
      const auto *Do = cast<DoLoopStmt>(S);
      Out += "do ";
      Out += Do->getIndVar();
      Out += " = ";
      printExpr(Do->getLo());
      Out += ", ";
      printExpr(Do->getHi());
      if (Do->getStep()) {
        Out += ", ";
        printExpr(Do->getStep());
      }
      Out += " ";
      printStmt(Do->getBody());
      return;
    }
    case Stmt::Kind::Call: {
      const auto *Call = cast<CallStmt>(S);
      Out += "call ";
      Out += Call->getCallee();
      Out += "(";
      std::span<Expr *const> Args = Call->getArgs();
      for (size_t I = 0; I != Args.size(); ++I) {
        if (I)
          Out += ", ";
        printExpr(Args[I]);
      }
      Out += ");";
      return;
    }
    case Stmt::Kind::Print:
      Out += "print ";
      printExpr(cast<PrintStmt>(S)->getValue());
      Out += ";";
      return;
    case Stmt::Kind::Read:
      Out += "read ";
      printExpr(cast<ReadStmt>(S)->getTarget());
      Out += ";";
      return;
    case Stmt::Kind::Return:
      Out += "return;";
      return;
    case Stmt::Kind::Block: {
      Out += "{\n";
      ++Depth;
      for (const Stmt *Child : cast<BlockStmt>(S)->getStmts()) {
        indent();
        printStmt(Child);
        Out += "\n";
      }
      --Depth;
      indent();
      Out += "}";
      return;
    }
    }
  }

  std::string Out;
  unsigned Depth = 0;
};

} // namespace

std::string ipcp::printExpr(const Expr *E) {
  PrinterImpl Impl;
  Impl.printExprInto(E);
  return Impl.take();
}

std::string ipcp::printProgram(const Program &Prog) {
  PrinterImpl Impl;
  return Impl.run(Prog);
}
