//===- tests/LexerTests.cpp - MiniFort lexer tests ------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <gtest/gtest.h>

using namespace ipcp;

namespace {

/// Tokens view \p Source, which must outlive them (the callers pass
/// literals).
std::vector<Token> lex(std::string_view Source, DiagnosticsEngine &Diags) {
  Lexer Lex(Source, Diags);
  return Lex.lexAll();
}

std::vector<TokenKind> kinds(const std::string &Source) {
  DiagnosticsEngine Diags;
  std::vector<TokenKind> Kinds;
  for (const Token &Tok : lex(Source, Diags))
    Kinds.push_back(Tok.Kind);
  EXPECT_FALSE(Diags.hasErrors());
  return Kinds;
}

TEST(Lexer, EmptyInputIsJustEof) {
  EXPECT_EQ(kinds(""), std::vector<TokenKind>{TokenKind::Eof});
  EXPECT_EQ(kinds("   \n\t  "), std::vector<TokenKind>{TokenKind::Eof});
}

TEST(Lexer, Identifiers) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("foo _bar x1 loop_counter", Diags);
  ASSERT_EQ(Tokens.size(), 5u);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[0].Text, "foo");
  EXPECT_EQ(Tokens[1].Text, "_bar");
  EXPECT_EQ(Tokens[2].Text, "x1");
}

TEST(Lexer, Keywords) {
  std::vector<TokenKind> Expected = {
      TokenKind::KwGlobal, TokenKind::KwProc,  TokenKind::KwVar,
      TokenKind::KwArray,  TokenKind::KwIf,    TokenKind::KwElse,
      TokenKind::KwWhile,  TokenKind::KwDo,    TokenKind::KwCall,
      TokenKind::KwPrint,  TokenKind::KwRead,  TokenKind::KwReturn,
      TokenKind::Eof};
  EXPECT_EQ(
      kinds("global proc var array if else while do call print read return"),
      Expected);
}

TEST(Lexer, KeywordPrefixIsIdentifier) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("iffy globalx doit", Diags);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
}

TEST(Lexer, IntegerLiterals) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("0 7 1234567890", Diags);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 7);
  EXPECT_EQ(Tokens[2].IntValue, 1234567890);
}

TEST(Lexer, IntegerLiteralOverflowIsAnError) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("99999999999999999999999", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Error);
}

TEST(Lexer, MaxInt64Literal) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("9223372036854775807", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Tokens[0].IntValue, 9223372036854775807LL);
}

TEST(Lexer, Operators) {
  std::vector<TokenKind> Expected = {
      TokenKind::Plus,    TokenKind::Minus,     TokenKind::Star,
      TokenKind::Slash,   TokenKind::Percent,   TokenKind::Assign,
      TokenKind::EqEq,    TokenKind::NotEq,     TokenKind::Less,
      TokenKind::LessEq,  TokenKind::Greater,   TokenKind::GreaterEq,
      TokenKind::Not,     TokenKind::Eof};
  EXPECT_EQ(kinds("+ - * / % = == != < <= > >= !"), Expected);
}

TEST(Lexer, MaximalMunchForComparisons) {
  // "<=" is one token, "< =" is two.
  EXPECT_EQ(kinds("<="),
            (std::vector<TokenKind>{TokenKind::LessEq, TokenKind::Eof}));
  EXPECT_EQ(kinds("< ="), (std::vector<TokenKind>{TokenKind::Less,
                                                  TokenKind::Assign,
                                                  TokenKind::Eof}));
  EXPECT_EQ(kinds("==="),
            (std::vector<TokenKind>{TokenKind::EqEq, TokenKind::Assign,
                                    TokenKind::Eof}));
}

TEST(Lexer, Punctuation) {
  std::vector<TokenKind> Expected = {
      TokenKind::LParen,   TokenKind::RParen,   TokenKind::LBrace,
      TokenKind::RBrace,   TokenKind::LBracket, TokenKind::RBracket,
      TokenKind::Comma,    TokenKind::Semicolon, TokenKind::Eof};
  EXPECT_EQ(kinds("( ) { } [ ] , ;"), Expected);
}

TEST(Lexer, LineComments) {
  EXPECT_EQ(kinds("// whole line\nx // trailing\n// eof comment"),
            (std::vector<TokenKind>{TokenKind::Identifier, TokenKind::Eof}));
}

TEST(Lexer, SlashVersusComment) {
  EXPECT_EQ(kinds("a / b"),
            (std::vector<TokenKind>{TokenKind::Identifier, TokenKind::Slash,
                                    TokenKind::Identifier, TokenKind::Eof}));
}

TEST(Lexer, SourceLocations) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("a\n  b\n\nc", Diags);
  EXPECT_EQ(Tokens[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ(Tokens[1].Loc, SourceLoc(2, 3));
  EXPECT_EQ(Tokens[2].Loc, SourceLoc(4, 1));
}

TEST(Lexer, UnknownCharacterReportsError) {
  DiagnosticsEngine Diags;
  std::vector<Token> Tokens = lex("a $ b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
  // Lexing continues after the bad character.
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
}

TEST(Lexer, EofIsSticky) {
  DiagnosticsEngine Diags;
  Lexer Lex("x", Diags);
  EXPECT_EQ(Lex.next().Kind, TokenKind::Identifier);
  EXPECT_EQ(Lex.next().Kind, TokenKind::Eof);
  EXPECT_EQ(Lex.next().Kind, TokenKind::Eof);
}

TEST(Lexer, TokenKindNamesAreStable) {
  EXPECT_STREQ(tokenKindName(TokenKind::KwProc), "'proc'");
  EXPECT_STREQ(tokenKindName(TokenKind::Identifier), "identifier");
  EXPECT_STREQ(tokenKindName(TokenKind::LessEq), "'<='");
}

} // namespace
