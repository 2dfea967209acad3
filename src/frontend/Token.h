//===- frontend/Token.h - MiniFort tokens -----------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and the Token record produced by the MiniFort lexer.
///
/// MiniFort is the small imperative language this reproduction analyzes in
/// place of FORTRAN 77 (see DESIGN.md). It has Fortran semantics — integer
/// scalars, opaque arrays, by-reference parameters, global (COMMON-like)
/// variables, DO loops, subroutine calls — with a C-like surface syntax.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FRONTEND_TOKEN_H
#define IPCP_FRONTEND_TOKEN_H

#include "support/ConstantMath.h"
#include "support/SourceLoc.h"

#include <string_view>

namespace ipcp {

/// Every lexical token kind in MiniFort.
enum class TokenKind {
  // Sentinels.
  Eof,
  Error,

  // Literals and identifiers.
  Identifier,
  IntLiteral,

  // Keywords.
  KwGlobal,
  KwProc,
  KwVar,
  KwArray,
  KwIf,
  KwElse,
  KwWhile,
  KwDo,
  KwCall,
  KwPrint,
  KwRead,
  KwReturn,

  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Semicolon,

  // Operators.
  Assign,  // =
  Plus,    // +
  Minus,   // -
  Star,    // *
  Slash,   // /
  Percent, // %
  EqEq,    // ==
  NotEq,   // !=
  Less,    // <
  LessEq,  // <=
  Greater, // >
  GreaterEq, // >=
  Not,       // !
};

/// Returns a stable human-readable name for \p Kind ("identifier", "'=='").
const char *tokenKindName(TokenKind Kind);

/// One lexed token: a view of its spelling in the lexed buffer, which must
/// outlive the token. \c IntValue is set only for IntLiteral tokens.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  std::string_view Text;
  ConstantValue IntValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace ipcp

#endif // IPCP_FRONTEND_TOKEN_H
