// Tokenizer coverage: every token kind, comments, errors with positions.
#include "src/ndlog/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace dpc {
namespace {

std::vector<TokenKind> KindsOf(const std::string& src) {
  auto tokens = Tokenize(src);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  return kinds;
}

TEST(LexerTest, SimpleRule) {
  auto kinds = KindsOf("recv(@L) :- packet(@L).");
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kLParen, TokenKind::kAt,
                TokenKind::kIdent, TokenKind::kRParen, TokenKind::kImplies,
                TokenKind::kIdent, TokenKind::kLParen, TokenKind::kAt,
                TokenKind::kIdent, TokenKind::kRParen, TokenKind::kPeriod,
                TokenKind::kEof}));
}

TEST(LexerTest, AllOperators) {
  auto kinds = KindsOf(":= == != <= >= < > + - * / %");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kAssign, TokenKind::kEq, TokenKind::kNe,
                       TokenKind::kLe, TokenKind::kGe, TokenKind::kLt,
                       TokenKind::kGt, TokenKind::kPlus, TokenKind::kMinus,
                       TokenKind::kStar, TokenKind::kSlash,
                       TokenKind::kPercent, TokenKind::kEof}));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 \"hello world\"").value();
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[0].number, 42);
  EXPECT_EQ(tokens[1].kind, TokenKind::kString);
  EXPECT_EQ(tokens[1].text, "hello world");
}

// Literals are untrusted file input: a magnitude past 2^63 is an error,
// never a signed overflow.
TEST(LexerTest, IntegerLiteralRange) {
  auto max = Tokenize("9223372036854775807").value();
  EXPECT_EQ(max[0].number, INT64_MAX);
  auto min_magnitude = Tokenize("9223372036854775808").value();
  EXPECT_EQ(min_magnitude[0].number, INT64_MIN);  // valid only negated
  EXPECT_FALSE(Tokenize("9223372036854775809").ok());
  EXPECT_FALSE(Tokenize("99999999999999999999").ok());
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Tokenize(R"("a\"b\nc\\d")").value();
  EXPECT_EQ(tokens[0].text, "a\"b\nc\\d");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto kinds = KindsOf("// whole line\nfoo # trailing\nbar");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{TokenKind::kIdent,
                                           TokenKind::kIdent,
                                           TokenKind::kEof}));
}

TEST(LexerTest, LineTrackingInTokens) {
  auto tokens = Tokenize("a\nb\n  c").value();
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 3);
  EXPECT_EQ(tokens[2].column, 3);
}

TEST(LexerTest, IdentifiersWithUnderscoresAndDigits) {
  auto tokens = Tokenize("f_isSubDomain rule_2 X9").value();
  EXPECT_EQ(tokens[0].text, "f_isSubDomain");
  EXPECT_EQ(tokens[1].text, "rule_2");
  EXPECT_EQ(tokens[2].text, "X9");
}

TEST(LexerTest, UnterminatedStringIsError) {
  auto tokens = Tokenize("\"never closed");
  EXPECT_FALSE(tokens.ok());
  EXPECT_TRUE(tokens.status().IsParseError());
}

TEST(LexerTest, LoneColonIsError) {
  EXPECT_FALSE(Tokenize("a : b").ok());
}

TEST(LexerTest, LoneEqualsIsError) {
  EXPECT_FALSE(Tokenize("a = b").ok());
}

TEST(LexerTest, LoneBangIsError) {
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

TEST(LexerTest, UnexpectedCharacterReportsPosition) {
  auto tokens = Tokenize("abc\n  $");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 2"), std::string::npos);
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto kinds = KindsOf("");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{TokenKind::kEof}));
}

TEST(NamingTest, VariableNames) {
  EXPECT_TRUE(IsVariableName("X"));
  EXPECT_TRUE(IsVariableName("Dest"));
  EXPECT_TRUE(IsVariableName("_tmp"));
  EXPECT_FALSE(IsVariableName("packet"));
  EXPECT_FALSE(IsVariableName(""));
}

TEST(NamingTest, FunctionNames) {
  EXPECT_TRUE(IsFunctionName("f_isSubDomain"));
  EXPECT_TRUE(IsFunctionName("f_x"));
  EXPECT_FALSE(IsFunctionName("isSubDomain"));
  EXPECT_FALSE(IsFunctionName("F_upper"));
}

}  // namespace
}  // namespace dpc
