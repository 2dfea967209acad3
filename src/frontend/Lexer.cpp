//===- frontend/Lexer.cpp -------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <string>

using namespace ipcp;

const char *ipcp::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwGlobal:
    return "'global'";
  case TokenKind::KwProc:
    return "'proc'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwArray:
    return "'array'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwCall:
    return "'call'";
  case TokenKind::KwPrint:
    return "'print'";
  case TokenKind::KwRead:
    return "'read'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Not:
    return "'!'";
  }
  return "unknown token";
}

Lexer::Lexer(std::string_view Source, DiagnosticsEngine &Diags)
    : Source(Source), Diags(Diags) {}

char Lexer::peek() const { return atEnd() ? '\0' : Source[Pos]; }

char Lexer::peekAhead() const {
  return Pos + 1 >= Source.size() ? '\0' : Source[Pos + 1];
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peekAhead() == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    break;
  }
}

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc, std::string_view Text) {
  Token Tok;
  Tok.Kind = Kind;
  Tok.Loc = Loc;
  Tok.Text = Text;
  return Tok;
}

/// The keyword spelled \p Text, or Identifier. Dispatches on length and
/// first letter, so no identifier is hashed.
static TokenKind keywordKind(std::string_view Text) {
  auto Is = [&](std::string_view Spelling, TokenKind Kind) {
    return Text == Spelling ? Kind : TokenKind::Identifier;
  };
  switch (Text.size()) {
  case 2:
    return Text[0] == 'i' ? Is("if", TokenKind::KwIf)
                          : Is("do", TokenKind::KwDo);
  case 3:
    return Is("var", TokenKind::KwVar);
  case 4:
    switch (Text[0]) {
    case 'p':
      return Is("proc", TokenKind::KwProc);
    case 'e':
      return Is("else", TokenKind::KwElse);
    case 'c':
      return Is("call", TokenKind::KwCall);
    case 'r':
      return Is("read", TokenKind::KwRead);
    default:
      return TokenKind::Identifier;
    }
  case 5:
    switch (Text[0]) {
    case 'a':
      return Is("array", TokenKind::KwArray);
    case 'w':
      return Is("while", TokenKind::KwWhile);
    case 'p':
      return Is("print", TokenKind::KwPrint);
    default:
      return TokenKind::Identifier;
    }
  case 6:
    return Text[0] == 'g' ? Is("global", TokenKind::KwGlobal)
                          : Is("return", TokenKind::KwReturn);
  default:
    return TokenKind::Identifier;
  }
}

Token Lexer::lexIdentifierOrKeyword(SourceLoc Loc) {
  size_t Begin = Pos;
  while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                      peek() == '_'))
    advance();
  std::string_view Text = Source.substr(Begin, Pos - Begin);
  return makeToken(keywordKind(Text), Loc, Text);
}

Token Lexer::lexNumber(SourceLoc Loc) {
  size_t Begin = Pos;
  ConstantValue Value = 0;
  bool Overflow = false;
  while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
    int Digit = advance() - '0';
    if (auto Scaled = checkedMul(Value, 10)) {
      if (auto Sum = checkedAdd(*Scaled, Digit)) {
        Value = *Sum;
        continue;
      }
    }
    Overflow = true;
  }
  std::string_view Text = Source.substr(Begin, Pos - Begin);
  if (Overflow) {
    Diags.error(Loc, "integer literal '" + std::string(Text) +
                         "' is too large");
    return makeToken(TokenKind::Error, Loc, Text);
  }
  Token Tok = makeToken(TokenKind::IntLiteral, Loc, Text);
  Tok.IntValue = Value;
  return Tok;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  SourceLoc Loc(Line, Col);
  if (atEnd())
    return makeToken(TokenKind::Eof, Loc, "");

  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdentifierOrKeyword(Loc);
  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber(Loc);

  advance();
  switch (C) {
  case '(':
    return makeToken(TokenKind::LParen, Loc, "(");
  case ')':
    return makeToken(TokenKind::RParen, Loc, ")");
  case '{':
    return makeToken(TokenKind::LBrace, Loc, "{");
  case '}':
    return makeToken(TokenKind::RBrace, Loc, "}");
  case '[':
    return makeToken(TokenKind::LBracket, Loc, "[");
  case ']':
    return makeToken(TokenKind::RBracket, Loc, "]");
  case ',':
    return makeToken(TokenKind::Comma, Loc, ",");
  case ';':
    return makeToken(TokenKind::Semicolon, Loc, ";");
  case '+':
    return makeToken(TokenKind::Plus, Loc, "+");
  case '-':
    return makeToken(TokenKind::Minus, Loc, "-");
  case '*':
    return makeToken(TokenKind::Star, Loc, "*");
  case '/':
    return makeToken(TokenKind::Slash, Loc, "/");
  case '%':
    return makeToken(TokenKind::Percent, Loc, "%");
  case '=':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::EqEq, Loc, "==");
    }
    return makeToken(TokenKind::Assign, Loc, "=");
  case '!':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::NotEq, Loc, "!=");
    }
    return makeToken(TokenKind::Not, Loc, "!");
  case '<':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::LessEq, Loc, "<=");
    }
    return makeToken(TokenKind::Less, Loc, "<");
  case '>':
    if (peek() == '=') {
      advance();
      return makeToken(TokenKind::GreaterEq, Loc, ">=");
    }
    return makeToken(TokenKind::Greater, Loc, ">");
  default:
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    return makeToken(TokenKind::Error, Loc, Source.substr(Pos - 1, 1));
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  // MiniFort averages well over three source bytes per token.
  Tokens.reserve(Source.size() / 3 + 16);
  while (true) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokenKind::Eof))
      break;
  }
  return Tokens;
}
