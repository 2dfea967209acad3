//===- frontend/Parser.h - MiniFort parser ----------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniFort. The grammar (see DESIGN.md):
///
/// \code
///   program   := topdecl*
///   topdecl   := 'global' item (',' item)* ';'
///              | 'proc' ident '(' [ident (',' ident)*] ')' block
///   item      := ident ['[' intlit ']']
///   block     := '{' stmt* '}'
///   stmt      := 'var' item (',' item)* ';'
///              | lvalue '=' expr ';'
///              | 'if' '(' expr ')' block ['else' (block | ifstmt)]
///              | 'while' '(' expr ')' block
///              | 'do' ident '=' expr ',' expr [',' expr] block
///              | 'call' ident '(' [expr (',' expr)*] ')' ';'
///              | 'print' expr ';'   | 'read' lvalue ';'  | 'return' ';'
///   lvalue    := ident ['[' expr ']']
///   expr      := addexpr [relop addexpr]
///   addexpr   := mulexpr (('+'|'-') mulexpr)*
///   mulexpr   := unary (('*'|'/'|'%') unary)*
///   unary     := ('-'|'!') unary | intlit | lvalue | '(' expr ')'
/// \endcode
///
/// The parser copies the source into the Program it builds and lexes that
/// copy, so tokens, and the names the AST keeps, view memory the Program
/// owns. Nodes come from the Program's arena; child lists are gathered on
/// reusable scratch stacks and copied into the arena once complete.
///
/// On a syntax error the parser reports a diagnostic and synchronizes at
/// the next statement or declaration boundary, so one run reports many
/// errors. A program with errors must not be consumed downstream.
///
/// The parser is total on adversarial input: recursion depth is always
/// bounded (ResourceLimits::MaxParseDepth, finite even without a guard),
/// so `((((...` diagnoses "nesting too deep" instead of exhausting the
/// C++ stack, and an attached ResourceGuard additionally budgets token
/// and AST-node counts. A tripped budget aborts the parse with one
/// diagnostic and latches the guard so drivers can tell resource
/// degradation apart from a plain syntax error.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FRONTEND_PARSER_H
#define IPCP_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Lexer.h"
#include "support/Diagnostics.h"
#include "support/ResourceGuard.h"

#include <optional>

namespace ipcp {

/// Parses one MiniFort source buffer into a Program.
class Parser {
public:
  /// \p Guard, when non-null, supplies the depth/token/AST budgets and is
  /// latched when one trips; without a guard the default MaxParseDepth
  /// still bounds recursion.
  Parser(std::string_view Source, DiagnosticsEngine &Diags,
         ResourceGuard *Guard = nullptr);

  /// Parses the whole buffer. Check \p Diags for errors afterwards.
  Program parseProgram();

private:
  const Token &peek() const { return Tokens[Index]; }
  const Token &peekAhead() const;
  const Token &consume();
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool match(TokenKind Kind);
  /// Consumes a token of kind \p Kind or reports an error; returns whether
  /// the expected token was present.
  bool expect(TokenKind Kind, const char *Context);
  void syncToStmtBoundary();
  void syncToTopLevel();

  /// Jumps the cursor to Eof: a tripped budget ends the whole parse.
  void abortParse() { Index = Tokens.size() - 1; }
  /// True (after reporting once and aborting) when the recursion budget
  /// is exhausted. Checked on entry to every recursive production.
  bool atDepthLimit();
  /// Charges one AST node against the guard's budget.
  void noteNode();
  /// Allocates an AST node in the program's arena, charging the budget.
  template <typename T, typename... ArgTs> T *makeNode(ArgTs &&...Args) {
    noteNode();
    return Prog.Mem.create<T>(std::forward<ArgTs>(Args)...);
  }
  /// Moves \p Stack's entries from \p Begin on into the arena.
  template <typename T>
  std::span<const T> popInto(std::vector<T> &Stack, size_t Begin) {
    std::span<const T> Items = Prog.Mem.copyArray(
        std::span<const T>(Stack.data() + Begin, Stack.size() - Begin));
    Stack.resize(Begin);
    return Items;
  }
  /// RAII recursion-depth counter.
  struct DepthScope {
    Parser &P;
    explicit DepthScope(Parser &P) : P(P) { ++P.Depth; }
    ~DepthScope() { --P.Depth; }
  };

  std::span<const DeclItem> parseDeclItems(bool AllowArrays);
  void parseGlobalDecl();
  void parseProcDecl();
  BlockStmt *parseBlock();
  Stmt *parseStmt();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseDoLoop();
  Stmt *parseCall();
  Stmt *parseAssign();
  Expr *parseLValue();
  Expr *parseExpr();
  Expr *parseAddExpr();
  Expr *parseMulExpr();
  Expr *parseUnary();

  Program Prog;
  std::vector<Token> Tokens;
  /// Scratch stacks for child lists under construction; a nested list
  /// pushes above its parent's and is popped before the parent resumes.
  std::vector<Stmt *> StmtStack;
  std::vector<Expr *> ArgStack;
  std::vector<DeclItem> ItemStack;
  std::vector<GlobalDecl> GlobalList;
  std::vector<ProcDecl> ProcList;
  size_t Index = 0;
  DiagnosticsEngine &Diags;
  ResourceGuard *Guard = nullptr;
  unsigned Depth = 0;
  unsigned MaxDepth = ResourceLimits().MaxParseDepth;
  uint64_t NodeCount = 0;
  bool BudgetReported = false;
};

/// Convenience: lex+parse+check \p Source; returns nullopt (with
/// diagnostics) on any error, a missing or parameterized `main` included.
/// \p Guard, when non-null, bounds the frontend's work (see Parser).
std::optional<Program> parseAndCheck(std::string_view Source,
                                     DiagnosticsEngine &Diags,
                                     ResourceGuard *Guard = nullptr);

} // namespace ipcp

#endif // IPCP_FRONTEND_PARSER_H
