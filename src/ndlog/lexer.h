// Tokenizer for NDlog source text.
#ifndef DPC_NDLOG_LEXER_H_
#define DPC_NDLOG_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace dpc {

enum class TokenKind {
  kIdent,      // packet, RT, f_isSubDomain, r1
  kNumber,     // 42
  kString,     // "data"
  kLParen,     // (
  kRParen,     // )
  kComma,      // ,
  kPeriod,     // .
  kAt,         // @
  kImplies,    // :-
  kAssign,     // :=
  kEq,         // ==
  kNe,         // !=
  kLe,         // <=
  kGe,         // >=
  kLt,         // <
  kGt,         // >
  kPlus,       // +
  kMinus,      // -
  kStar,       // *
  kSlash,      // /
  kPercent,    // %
  kEof,
};

const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind;
  std::string text;   // identifier / string literal body
  // kNumber: the literal's magnitude; 2^63 (only valid negated) reads as
  // INT64_MIN.
  int64_t number = 0;
  int line = 0;
  int column = 0;

  std::string Describe() const;
};

// Tokenizes `source`. Comments run from "//" or "#" to end of line.
// Returns a ParseError (with line/column info) on malformed input.
Result<std::vector<Token>> Tokenize(std::string_view source);

// True if `ident` names an NDlog variable (starts with an uppercase letter
// or underscore).
bool IsVariableName(std::string_view ident);

// True if `ident` names a user-defined function (f_ prefix by convention).
bool IsFunctionName(std::string_view ident);

}  // namespace dpc

#endif  // DPC_NDLOG_LEXER_H_
