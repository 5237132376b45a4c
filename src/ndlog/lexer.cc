#include "src/ndlog/lexer.h"

#include <cctype>
#include <cstdint>

namespace dpc {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kPeriod: return "'.'";
    case TokenKind::kAt: return "'@'";
    case TokenKind::kImplies: return "':-'";
    case TokenKind::kAssign: return "':='";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kEof: return "end of input";
  }
  return "?";
}

std::string Token::Describe() const {
  if (kind == TokenKind::kIdent) return "identifier '" + text + "'";
  if (kind == TokenKind::kString) return "string \"" + text + "\"";
  if (kind == TokenKind::kNumber) return "number " + std::to_string(number);
  return TokenKindName(kind);
}

bool IsVariableName(std::string_view ident) {
  return !ident.empty() &&
         (std::isupper(static_cast<unsigned char>(ident[0])) ||
          ident[0] == '_');
}

bool IsFunctionName(std::string_view ident) {
  return ident.rfind("f_", 0) == 0;
}

namespace {

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      if (AtEnd()) break;
      DPC_ASSIGN_OR_RETURN(Token tok, Next());
      tokens.push_back(std::move(tok));
    }
    tokens.push_back(Simple(TokenKind::kEof));
    return tokens;
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#' || (c == '/' && Peek(1) == '/')) {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else {
        break;
      }
    }
  }

  Token Simple(TokenKind kind) {
    Token t;
    t.kind = kind;
    t.line = line_;
    t.column = column_;
    return t;
  }

  Status ErrorHere(const std::string& msg) {
    return Status::ParseError(msg + " at line " + std::to_string(line_) +
                              ", column " + std::to_string(column_));
  }

  Result<Token> Next() {
    Token tok = Simple(TokenKind::kEof);
    char c = Peek();

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '_')) {
        ident.push_back(Advance());
      }
      tok.kind = TokenKind::kIdent;
      tok.text = std::move(ident);
      return tok;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Magnitudes up to 2^63 lex; the parser accepts 2^63 only negated
      // (INT64_MIN). Anything larger is out of int64's range.
      constexpr uint64_t kMaxMagnitude = uint64_t{1} << 63;
      uint64_t v = 0;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        uint64_t digit = static_cast<uint64_t>(Advance() - '0');
        if (v > (kMaxMagnitude - digit) / 10) {
          return ErrorHere("integer literal out of range");
        }
        v = v * 10 + digit;
      }
      tok.kind = TokenKind::kNumber;
      tok.number = static_cast<int64_t>(v);  // 2^63 reads as INT64_MIN
      return tok;
    }

    if (c == '"') {
      Advance();
      std::string body;
      while (!AtEnd() && Peek() != '"') {
        char ch = Advance();
        if (ch == '\\' && !AtEnd()) {
          char esc = Advance();
          switch (esc) {
            case 'n': body.push_back('\n'); break;
            case 't': body.push_back('\t'); break;
            default: body.push_back(esc); break;
          }
        } else {
          body.push_back(ch);
        }
      }
      if (AtEnd()) return ErrorHere("unterminated string literal");
      Advance();  // closing quote
      tok.kind = TokenKind::kString;
      tok.text = std::move(body);
      return tok;
    }

    Advance();
    switch (c) {
      case '(': tok.kind = TokenKind::kLParen; return tok;
      case ')': tok.kind = TokenKind::kRParen; return tok;
      case ',': tok.kind = TokenKind::kComma; return tok;
      case '.': tok.kind = TokenKind::kPeriod; return tok;
      case '@': tok.kind = TokenKind::kAt; return tok;
      case '+': tok.kind = TokenKind::kPlus; return tok;
      case '-': tok.kind = TokenKind::kMinus; return tok;
      case '*': tok.kind = TokenKind::kStar; return tok;
      case '/': tok.kind = TokenKind::kSlash; return tok;
      case '%': tok.kind = TokenKind::kPercent; return tok;
      case ':':
        if (Peek() == '-') {
          Advance();
          tok.kind = TokenKind::kImplies;
          return tok;
        }
        if (Peek() == '=') {
          Advance();
          tok.kind = TokenKind::kAssign;
          return tok;
        }
        return ErrorHere("expected ':-' or ':='");
      case '=':
        if (Peek() == '=') {
          Advance();
          tok.kind = TokenKind::kEq;
          return tok;
        }
        return ErrorHere("expected '=='");
      case '!':
        if (Peek() == '=') {
          Advance();
          tok.kind = TokenKind::kNe;
          return tok;
        }
        return ErrorHere("expected '!='");
      case '<':
        if (Peek() == '=') {
          Advance();
          tok.kind = TokenKind::kLe;
          return tok;
        }
        tok.kind = TokenKind::kLt;
        return tok;
      case '>':
        if (Peek() == '=') {
          Advance();
          tok.kind = TokenKind::kGe;
          return tok;
        }
        tok.kind = TokenKind::kGt;
        return tok;
      default:
        return ErrorHere(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view source) {
  return Lexer(source).Run();
}

}  // namespace dpc
