// Value: typing, ordering, truthiness, serialization.
#include "src/db/value.h"

#include <gtest/gtest.h>

#include <limits>

namespace dpc {
namespace {

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Int(1).is_int());
  EXPECT_TRUE(Value::Str("x").is_string());
  EXPECT_TRUE(Value::Bool(true).is_int());  // booleans are 0/1 integers
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
  EXPECT_EQ(Value::Bool(false).AsInt(), 0);
}

TEST(ValueTest, DefaultIsZeroInt) {
  Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 0);
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_NE(Value::Int(5), Value::Int(6));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_NE(Value::Str("a"), Value::Str("b"));
  // Cross-type values never compare equal, even "5" vs 5.
  EXPECT_NE(Value::Int(5), Value::Str("5"));
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
  // Variant ordering: all ints sort before all strings (index order).
  EXPECT_LT(Value::Int(999), Value::Str("a"));
}

TEST(ValueTest, Truthiness) {
  EXPECT_TRUE(Value::Int(1).Truthy());
  EXPECT_TRUE(Value::Int(-1).Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Str("x").Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Str("data").ToString(), "\"data\"");
}

void ExpectRoundTrip(const Value& value) {
  ByteWriter w;
  value.Serialize(w);
  EXPECT_EQ(w.size(), value.SerializedSize());
  ByteReader r(w.bytes());
  auto v = Value::Deserialize(r);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, value);
  EXPECT_TRUE(r.AtEnd());
}

class ValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTrip, SerializeDeserialize) { ExpectRoundTrip(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Values, ValueRoundTrip,
    ::testing::Values(Value::Int(0), Value::Int(-1), Value::Int(1),
                      Value::Int(1LL << 40), Value::Int(-(1LL << 40)),
                      Value::Bool(true)));

// String cases are parameterized by length: gtest prints a Value as its raw
// bytes, which for a string begin with a heap pointer, so test names derived
// from a string Value would differ from run to run.
class StringValueRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(StringValueRoundTrip, SerializeDeserialize) {
  ExpectRoundTrip(Value::Str(std::string(GetParam(), 'x')));
}

INSTANTIATE_TEST_SUITE_P(Strings, StringValueRoundTrip,
                         ::testing::Values(0, 5, 1000));

TEST(ValueTest, DeserializeRejectsBadTag) {
  std::vector<uint8_t> bytes{0x77};
  ByteReader r(bytes);
  EXPECT_FALSE(Value::Deserialize(r).ok());
}

TEST(ValueTest, SerializedSizeIsCompact) {
  EXPECT_LE(Value::Int(5).SerializedSize(), 2u);      // tag + 1 varint byte
  EXPECT_LE(Value::Str("ab").SerializedSize(), 4u);   // tag + len + 2
}

// SerializedSize is computed arithmetically (no buffer); it must agree with
// the bytes Serialize actually appends at every varint width boundary.
TEST(ValueTest, ArithmeticSizeMatchesBufferAtEveryVarintWidth) {
  std::vector<Value> samples;
  // Zigzag varint boundaries: the encoded magnitude crosses a 7-bit
  // group at |2n| (or |2n|-1 for negatives) == 2^(7k).
  for (int shift = 0; shift <= 62; ++shift) {
    int64_t v = int64_t{1} << shift;
    for (int64_t delta : {-1, 0, 1}) {
      samples.push_back(Value::Int(v + delta));
      samples.push_back(Value::Int(-(v + delta)));
    }
  }
  samples.push_back(Value::Int(0));
  samples.push_back(Value::Int(std::numeric_limits<int64_t>::max()));
  samples.push_back(Value::Int(std::numeric_limits<int64_t>::min()));
  // String length-prefix boundaries, empty and long strings included.
  for (size_t len : {0u, 1u, 127u, 128u, 129u, 16383u, 16384u, 20000u}) {
    samples.push_back(Value::Str(std::string(len, 's')));
  }

  for (const Value& v : samples) {
    ByteWriter w;
    v.Serialize(w);
    EXPECT_EQ(v.SerializedSize(), w.size()) << v.ToString().substr(0, 64);
  }
}

}  // namespace
}  // namespace dpc
