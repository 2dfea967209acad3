//===- frontend/Parser.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Sema.h"

#include <algorithm>

using namespace ipcp;

/// First chunk of a Program's arena per source byte: the text copy plus
/// the tree, which takes about eight bytes per source byte.
constexpr size_t ArenaBytesPerSourceByte = 10;

Parser::Parser(std::string_view Source, DiagnosticsEngine &Diags,
               ResourceGuard *Guard)
    : Diags(Diags), Guard(Guard) {
  Prog.Mem = Arena(std::max<size_t>(4096, Source.size() *
                                              ArenaBytesPerSourceByte),
                   /*MaxChunkBytes=*/1 << 20);
  Lexer Lex(Prog.Mem.copyString(Source), Diags);
  Tokens = Lex.lexAll();
  if (Guard) {
    if (Guard->limits().MaxParseDepth != 0)
      MaxDepth = Guard->limits().MaxParseDepth;
    // lexAll always appends Eof; only real tokens count.
    if (!Guard->checkTokens(Tokens.size() - 1)) {
      Diags.error(Tokens.front().Loc,
                  "input exceeds the token budget (limit " +
                      std::to_string(Guard->limits().MaxTokens) + ")");
      BudgetReported = true;
      Tokens.erase(Tokens.begin(), Tokens.end() - 1); // keep Eof only
    }
  }
}

bool Parser::atDepthLimit() {
  if (Depth < MaxDepth)
    return false;
  if (!BudgetReported) {
    BudgetReported = true;
    Diags.error(peek().Loc, "nesting too deep (parser depth limit " +
                                std::to_string(MaxDepth) + ")");
    if (Guard)
      Guard->trip("parse-depth", "frontend");
    abortParse();
  }
  return true;
}

void Parser::noteNode() {
  ++NodeCount;
  if (Guard && !Guard->checkAstNodes(NodeCount) && !BudgetReported) {
    BudgetReported = true;
    Diags.error(peek().Loc,
                "program exceeds the AST node budget (limit " +
                    std::to_string(Guard->limits().MaxAstNodes) + ")");
    abortParse();
  }
}

const Token &Parser::peekAhead() const {
  size_t Next = Index + 1;
  if (Next >= Tokens.size())
    Next = Tokens.size() - 1; // Eof
  return Tokens[Next];
}

const Token &Parser::consume() {
  const Token &Tok = Tokens[Index];
  if (!Tok.is(TokenKind::Eof))
    ++Index;
  return Tok;
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (match(Kind))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokenKindName(Kind) +
                              " " + Context + ", found " +
                              tokenKindName(peek().Kind));
  return false;
}

void Parser::syncToStmtBoundary() {
  while (!check(TokenKind::Eof)) {
    if (match(TokenKind::Semicolon))
      return;
    if (check(TokenKind::RBrace) || check(TokenKind::LBrace) ||
        check(TokenKind::KwProc) || check(TokenKind::KwGlobal))
      return;
    consume();
  }
}

void Parser::syncToTopLevel() {
  while (!check(TokenKind::Eof) && !check(TokenKind::KwProc) &&
         !check(TokenKind::KwGlobal))
    consume();
}

std::span<const DeclItem> Parser::parseDeclItems(bool AllowArrays) {
  size_t Begin = ItemStack.size();
  do {
    const Token &Name = consume();
    if (!Name.is(TokenKind::Identifier)) {
      Diags.error(Name.Loc, "expected identifier in declaration, found " +
                                std::string(tokenKindName(Name.Kind)));
      break;
    }
    DeclItem Item;
    Item.Loc = Name.Loc;
    Item.Name = Name.Text;
    if (check(TokenKind::LBracket)) {
      consume();
      const Token &Size = consume();
      if (!Size.is(TokenKind::IntLiteral)) {
        Diags.error(Size.Loc, "expected integer literal array extent");
      } else if (Size.IntValue <= 0) {
        Diags.error(Size.Loc, "array extent must be positive");
      } else if (!AllowArrays) {
        Diags.error(Name.Loc, "array '" + std::string(Item.Name) +
                                  "' not allowed in this context");
      } else {
        Item.ArraySize = Size.IntValue;
      }
      expect(TokenKind::RBracket, "after array extent");
    }
    ItemStack.push_back(Item);
  } while (match(TokenKind::Comma));
  return popInto(ItemStack, Begin);
}

void Parser::parseGlobalDecl() {
  GlobalDecl Decl;
  Decl.Loc = consume().Loc; // 'global'
  Decl.Items = parseDeclItems(/*AllowArrays=*/true);
  expect(TokenKind::Semicolon, "after global declaration");
  GlobalList.push_back(Decl);
}

void Parser::parseProcDecl() {
  ProcDecl Decl;
  Decl.Loc = consume().Loc; // 'proc'
  const Token &Name = consume();
  if (!Name.is(TokenKind::Identifier)) {
    Diags.error(Name.Loc, "expected procedure name after 'proc'");
    syncToTopLevel();
    return;
  }
  Decl.Name = Name.Text;
  if (!expect(TokenKind::LParen, "after procedure name")) {
    syncToTopLevel();
    return;
  }
  if (!check(TokenKind::RParen))
    Decl.Params = parseDeclItems(/*AllowArrays=*/false);
  expect(TokenKind::RParen, "after parameter list");
  if (!check(TokenKind::LBrace)) {
    Diags.error(peek().Loc, "expected '{' to begin procedure body");
    syncToTopLevel();
    return;
  }
  Decl.Body = parseBlock();
  ProcList.push_back(Decl);
}

BlockStmt *Parser::parseBlock() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::LBrace, "to begin block");
  size_t Begin = StmtStack.size();
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    // Stop when we fell off the end of a malformed body into a new
    // top-level declaration.
    if (check(TokenKind::KwProc) || check(TokenKind::KwGlobal))
      break;
    if (Stmt *S = parseStmt())
      StmtStack.push_back(S);
  }
  expect(TokenKind::RBrace, "to end block");
  std::span<Stmt *const> Stmts = popInto(StmtStack, Begin);
  return makeNode<BlockStmt>(Loc, Stmts);
}

Stmt *Parser::parseStmt() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::KwVar: {
    consume();
    std::span<const DeclItem> Items = parseDeclItems(/*AllowArrays=*/true);
    expect(TokenKind::Semicolon, "after variable declaration");
    return makeNode<VarDeclStmt>(Loc, Items);
  }
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwDo:
    return parseDoLoop();
  case TokenKind::KwCall:
    return parseCall();
  case TokenKind::KwPrint: {
    consume();
    Expr *Value = parseExpr();
    expect(TokenKind::Semicolon, "after print statement");
    if (!Value)
      return nullptr;
    return makeNode<PrintStmt>(Loc, Value);
  }
  case TokenKind::KwRead: {
    consume();
    Expr *Target = parseLValue();
    expect(TokenKind::Semicolon, "after read statement");
    if (!Target)
      return nullptr;
    return makeNode<ReadStmt>(Loc, Target);
  }
  case TokenKind::KwReturn: {
    consume();
    expect(TokenKind::Semicolon, "after return statement");
    return makeNode<ReturnStmt>(Loc);
  }
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::Identifier:
    return parseAssign();
  default:
    Diags.error(Loc, std::string("expected statement, found ") +
                         tokenKindName(peek().Kind));
    syncToStmtBoundary();
    return nullptr;
  }
}

Stmt *Parser::parseIf() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = consume().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  Stmt *Then = parseBlock();
  Stmt *Else = nullptr;
  if (match(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf))
      Else = parseIf();
    else
      Else = parseBlock();
  }
  if (!Cond || !Then)
    return nullptr;
  return makeNode<IfStmt>(Loc, Cond, Then, Else);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = consume().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  Stmt *Body = parseBlock();
  if (!Cond || !Body)
    return nullptr;
  return makeNode<WhileStmt>(Loc, Cond, Body);
}

Stmt *Parser::parseDoLoop() {
  SourceLoc Loc = consume().Loc; // 'do'
  const Token &IndVar = consume();
  if (!IndVar.is(TokenKind::Identifier)) {
    Diags.error(IndVar.Loc, "expected induction variable after 'do'");
    syncToStmtBoundary();
    return nullptr;
  }
  expect(TokenKind::Assign, "after do-loop induction variable");
  Expr *Lo = parseExpr();
  expect(TokenKind::Comma, "after do-loop lower bound");
  Expr *Hi = parseExpr();
  Expr *Step = nullptr;
  if (match(TokenKind::Comma))
    Step = parseExpr();
  Stmt *Body = parseBlock();
  if (!Lo || !Hi || !Body)
    return nullptr;
  return makeNode<DoLoopStmt>(Loc, IndVar.Text, Lo, Hi, Step, Body);
}

Stmt *Parser::parseCall() {
  SourceLoc Loc = consume().Loc; // 'call'
  const Token &Callee = consume();
  if (!Callee.is(TokenKind::Identifier)) {
    Diags.error(Callee.Loc, "expected procedure name after 'call'");
    syncToStmtBoundary();
    return nullptr;
  }
  expect(TokenKind::LParen, "after callee name");
  size_t Begin = ArgStack.size();
  if (!check(TokenKind::RParen)) {
    do {
      if (Expr *Arg = parseExpr())
        ArgStack.push_back(Arg);
      else
        break;
    } while (match(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "after call arguments");
  expect(TokenKind::Semicolon, "after call statement");
  std::span<Expr *const> Args = popInto(ArgStack, Begin);
  return makeNode<CallStmt>(Loc, Callee.Text, Args);
}

Stmt *Parser::parseAssign() {
  SourceLoc Loc = peek().Loc;
  Expr *Target = parseLValue();
  if (!Target) {
    syncToStmtBoundary();
    return nullptr;
  }
  if (!expect(TokenKind::Assign, "in assignment")) {
    syncToStmtBoundary();
    return nullptr;
  }
  Expr *Value = parseExpr();
  expect(TokenKind::Semicolon, "after assignment");
  if (!Value)
    return nullptr;
  return makeNode<AssignStmt>(Loc, Target, Value);
}

Expr *Parser::parseLValue() {
  const Token &Name = consume();
  if (!Name.is(TokenKind::Identifier)) {
    Diags.error(Name.Loc, "expected variable name, found " +
                              std::string(tokenKindName(Name.Kind)));
    return nullptr;
  }
  if (match(TokenKind::LBracket)) {
    Expr *Index = parseExpr();
    expect(TokenKind::RBracket, "after array subscript");
    if (!Index)
      return nullptr;
    return makeNode<ArrayRefExpr>(Name.Loc, Name.Text, Index);
  }
  return makeNode<VarRefExpr>(Name.Loc, Name.Text);
}

static std::optional<BinaryOp> relOpFor(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EqEq:
    return BinaryOp::CmpEq;
  case TokenKind::NotEq:
    return BinaryOp::CmpNe;
  case TokenKind::Less:
    return BinaryOp::CmpLt;
  case TokenKind::LessEq:
    return BinaryOp::CmpLe;
  case TokenKind::Greater:
    return BinaryOp::CmpGt;
  case TokenKind::GreaterEq:
    return BinaryOp::CmpGe;
  default:
    return std::nullopt;
  }
}

Expr *Parser::parseExpr() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  Expr *LHS = parseAddExpr();
  if (!LHS)
    return nullptr;
  if (auto Op = relOpFor(peek().Kind)) {
    SourceLoc Loc = consume().Loc;
    Expr *RHS = parseAddExpr();
    if (!RHS)
      return nullptr;
    return makeNode<BinaryExpr>(Loc, *Op, LHS, RHS);
  }
  return LHS;
}

Expr *Parser::parseAddExpr() {
  Expr *LHS = parseMulExpr();
  while (LHS && (check(TokenKind::Plus) || check(TokenKind::Minus))) {
    const Token &Op = consume();
    Expr *RHS = parseMulExpr();
    if (!RHS)
      return nullptr;
    BinaryOp Kind =
        Op.is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    LHS = makeNode<BinaryExpr>(Op.Loc, Kind, LHS, RHS);
  }
  return LHS;
}

Expr *Parser::parseMulExpr() {
  Expr *LHS = parseUnary();
  while (LHS && (check(TokenKind::Star) || check(TokenKind::Slash) ||
                 check(TokenKind::Percent))) {
    const Token &Op = consume();
    Expr *RHS = parseUnary();
    if (!RHS)
      return nullptr;
    BinaryOp Kind = Op.is(TokenKind::Star)    ? BinaryOp::Mul
                    : Op.is(TokenKind::Slash) ? BinaryOp::Div
                                              : BinaryOp::Mod;
    LHS = makeNode<BinaryExpr>(Op.Loc, Kind, LHS, RHS);
  }
  return LHS;
}

Expr *Parser::parseUnary() {
  if (atDepthLimit())
    return nullptr;
  DepthScope Scope(*this);
  SourceLoc Loc = peek().Loc;
  if (match(TokenKind::Minus)) {
    // Fold a negated literal into a single literal so `-5` is a literal
    // constant for the literal jump function, as it would be in Fortran.
    if (check(TokenKind::IntLiteral)) {
      const Token &Lit = consume();
      return makeNode<IntLiteralExpr>(Loc, -Lit.IntValue);
    }
    Expr *Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return makeNode<UnaryExpr>(Loc, UnaryOp::Neg, Operand);
  }
  if (match(TokenKind::Not)) {
    Expr *Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return makeNode<UnaryExpr>(Loc, UnaryOp::Not, Operand);
  }
  if (check(TokenKind::IntLiteral)) {
    const Token &Lit = consume();
    return makeNode<IntLiteralExpr>(Loc, Lit.IntValue);
  }
  if (match(TokenKind::LParen)) {
    Expr *Inner = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return Inner;
  }
  if (check(TokenKind::Identifier))
    return parseLValue();
  Diags.error(Loc, std::string("expected expression, found ") +
                       tokenKindName(peek().Kind));
  consume();
  return nullptr;
}

Program Parser::parseProgram() {
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::KwGlobal)) {
      parseGlobalDecl();
    } else if (check(TokenKind::KwProc)) {
      parseProcDecl();
    } else {
      Diags.error(peek().Loc,
                  std::string("expected 'global' or 'proc' at top level, "
                              "found ") +
                      tokenKindName(peek().Kind));
      syncToTopLevel();
      if (check(TokenKind::Eof))
        break;
    }
  }
  Prog.Globals = Prog.Mem.copyArray(std::span<const GlobalDecl>(GlobalList));
  Prog.Procs = Prog.Mem.copyArray(std::span<const ProcDecl>(ProcList));
  return std::move(Prog);
}

std::optional<Program> ipcp::parseAndCheck(std::string_view Source,
                                           DiagnosticsEngine &Diags,
                                           ResourceGuard *Guard) {
  Parser P(Source, Diags, Guard);
  Program Prog = P.parseProgram();
  if (Diags.hasErrors())
    return std::nullopt;
  Sema Checker(Diags);
  Checker.check(Prog);
  if (Diags.hasErrors())
    return std::nullopt;
  return Prog;
}
