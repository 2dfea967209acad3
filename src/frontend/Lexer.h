//===- frontend/Lexer.h - MiniFort lexer ------------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MiniFort. Comments run from `//` to end of line.
/// Integer literals are decimal; a leading `-` is a separate token handled
/// by the parser as unary negation.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FRONTEND_LEXER_H
#define IPCP_FRONTEND_LEXER_H

#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <string_view>
#include <vector>

namespace ipcp {

/// Streams tokens out of a MiniFort source buffer.
class Lexer {
public:
  /// \p Source must outlive the lexer and its tokens, whose spellings
  /// view it. Errors go to \p Diags.
  Lexer(std::string_view Source, DiagnosticsEngine &Diags);

  /// Lexes and returns the next token. After end of input, returns Eof
  /// tokens forever.
  Token next();

  /// Lexes the whole buffer; the last element is always Eof.
  std::vector<Token> lexAll();

private:
  char peek() const;
  char peekAhead() const;
  char advance();
  bool atEnd() const { return Pos >= Source.size(); }
  void skipWhitespaceAndComments();
  Token makeToken(TokenKind Kind, SourceLoc Loc, std::string_view Text);
  Token lexIdentifierOrKeyword(SourceLoc Loc);
  Token lexNumber(SourceLoc Loc);

  std::string_view Source;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
};

} // namespace ipcp

#endif // IPCP_FRONTEND_LEXER_H
