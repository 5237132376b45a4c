// Expression evaluation, atom unification, and single-rule firing.
#include "src/ndlog/eval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/ndlog/parser.h"

namespace dpc {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  ExprPtr Parse(const std::string& expr_src) {
    // Wrap the expression in a throwaway rule to reuse the parser.
    auto rules = ParseRules("a(@X) :- e(@X, A, B, C, S), Y := " + expr_src +
                            ".");
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    return rules->front().assignments.front().expr;
  }

  Result<Value> Eval(const std::string& expr_src) {
    return EvalExpr(*Parse(expr_src), env_, fns_);
  }

  Bindings env_{{"A", Value::Int(6)},
                {"B", Value::Int(3)},
                {"C", Value::Int(-2)},
                {"S", Value::Str("www.hello.com")}};
  FunctionRegistry fns_ = DefaultFunctions();
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(Eval("A + B").value(), Value::Int(9));
  EXPECT_EQ(Eval("A - B").value(), Value::Int(3));
  EXPECT_EQ(Eval("A * B").value(), Value::Int(18));
  EXPECT_EQ(Eval("A / B").value(), Value::Int(2));
  EXPECT_EQ(Eval("A % 4").value(), Value::Int(2));
  EXPECT_EQ(Eval("A + B * C").value(), Value::Int(0));
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_EQ(Eval("A == 6").value(), Value::Bool(true));
  EXPECT_EQ(Eval("A != 6").value(), Value::Bool(false));
  EXPECT_EQ(Eval("B < A").value(), Value::Bool(true));
  EXPECT_EQ(Eval("B <= 3").value(), Value::Bool(true));
  EXPECT_EQ(Eval("C > 0").value(), Value::Bool(false));
  EXPECT_EQ(Eval("C >= -2").value(), Value::Bool(true));
}

TEST_F(EvalTest, StringOperations) {
  EXPECT_EQ(Eval("S == \"www.hello.com\"").value(), Value::Bool(true));
  EXPECT_EQ(Eval("S + \"x\"").value(), Value::Str("www.hello.comx"));
  EXPECT_EQ(Eval("\"a\" < \"b\"").value(), Value::Bool(true));
}

TEST_F(EvalTest, CrossTypeEquality) {
  EXPECT_EQ(Eval("S == 5").value(), Value::Bool(false));
  EXPECT_EQ(Eval("S != 5").value(), Value::Bool(true));
  EXPECT_FALSE(Eval("S < 5").ok());  // ordered cross-type comparison
}

TEST_F(EvalTest, FunctionCalls) {
  EXPECT_EQ(Eval("f_isSubDomain(\"hello.com\", S)").value(),
            Value::Bool(true));
  EXPECT_EQ(Eval("f_size(S)").value(), Value::Int(13));
  EXPECT_EQ(Eval("f_min(A, B)").value(), Value::Int(3));
  EXPECT_EQ(Eval("f_max(A, C)").value(), Value::Int(6));
  EXPECT_EQ(Eval("f_concat(\"a\", \"b\")").value(), Value::Str("ab"));
}

TEST_F(EvalTest, Errors) {
  EXPECT_FALSE(Eval("Z + 1").ok());              // unbound variable
  EXPECT_FALSE(Eval("A / 0").ok());              // division by zero
  EXPECT_FALSE(Eval("A % 0").ok());              // modulo by zero
  EXPECT_FALSE(Eval("S * 2").ok());              // string arithmetic
  EXPECT_FALSE(Eval("f_undefined(A)").ok());     // unknown function
  EXPECT_FALSE(Eval("f_size(A)").ok());          // wrong argument type
  EXPECT_FALSE(Eval("f_min(A)").ok());           // wrong arity
}

// Operands can come from peers' event bytes, so an integer result outside
// int64 is an InvalidArgument for every operator — never a hardware trap
// (INT64_MIN / -1 and INT64_MIN % -1 raise SIGFPE) or undefined behaviour.
class IntegerBoundaryTest : public ::testing::Test {
 protected:
  static constexpr int64_t kMin = INT64_MIN;
  static constexpr int64_t kMax = INT64_MAX;

  // Evaluates `A <op> B` with A = a, B = b.
  static Result<Value> Apply(const std::string& op, int64_t a, int64_t b) {
    auto rules =
        ParseRules("a(@X) :- e(@X, A, B), Y := A " + op + " B.");
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    Bindings env{{"A", Value::Int(a)}, {"B", Value::Int(b)}};
    return EvalExpr(*rules->front().assignments.front().expr, env,
                    FunctionRegistry{});
  }
  static int64_t Ok(const std::string& op, int64_t a, int64_t b) {
    Result<Value> r = Apply(op, a, b);
    EXPECT_TRUE(r.ok()) << a << " " << op << " " << b << ": "
                        << r.status().ToString();
    return r.ok() ? r->AsInt() : 0;
  }
  static bool Rejected(const std::string& op, int64_t a, int64_t b) {
    Result<Value> r = Apply(op, a, b);
    return !r.ok() && r.status().code() == StatusCode::kInvalidArgument;
  }
};

TEST_F(IntegerBoundaryTest, Addition) {
  EXPECT_TRUE(Rejected("+", kMax, 1));
  EXPECT_TRUE(Rejected("+", kMin, -1));
  EXPECT_TRUE(Rejected("+", kMax, kMax));
  EXPECT_TRUE(Rejected("+", kMin, kMin));
  EXPECT_EQ(Ok("+", kMax, kMin), -1);
  EXPECT_EQ(Ok("+", kMax - 1, 1), kMax);
  EXPECT_EQ(Ok("+", kMin + 1, -1), kMin);
}

TEST_F(IntegerBoundaryTest, Subtraction) {
  EXPECT_TRUE(Rejected("-", kMin, 1));
  EXPECT_TRUE(Rejected("-", kMax, -1));
  EXPECT_TRUE(Rejected("-", 0, kMin));
  EXPECT_EQ(Ok("-", kMin, kMin), 0);
  EXPECT_EQ(Ok("-", -1, kMax), kMin);
  EXPECT_EQ(Ok("-", 0, kMax), -kMax);
}

TEST_F(IntegerBoundaryTest, Multiplication) {
  EXPECT_TRUE(Rejected("*", kMax, 2));
  EXPECT_TRUE(Rejected("*", kMin, -1));
  EXPECT_TRUE(Rejected("*", -1, kMin));
  EXPECT_TRUE(Rejected("*", kMin, 2));
  EXPECT_TRUE(Rejected("*", int64_t{1} << 32, int64_t{1} << 31));
  EXPECT_EQ(Ok("*", kMin, 1), kMin);
  EXPECT_EQ(Ok("*", kMax, -1), -kMax);
  EXPECT_EQ(Ok("*", int64_t{1} << 31, int64_t{1} << 31), int64_t{1} << 62);
}

TEST_F(IntegerBoundaryTest, Division) {
  EXPECT_TRUE(Rejected("/", kMin, -1));
  EXPECT_TRUE(Rejected("/", kMin, 0));
  EXPECT_EQ(Ok("/", kMin, 1), kMin);
  EXPECT_EQ(Ok("/", kMax, -1), -kMax);
  EXPECT_EQ(Ok("/", kMin, kMin), 1);
  EXPECT_EQ(Ok("/", kMin, kMax), -1);
  EXPECT_EQ(Ok("/", -7, 2), -3);  // truncates toward zero
}

TEST_F(IntegerBoundaryTest, Modulo) {
  EXPECT_EQ(Ok("%", kMin, -1), 0);
  EXPECT_EQ(Ok("%", kMax, -1), 0);
  EXPECT_TRUE(Rejected("%", kMin, 0));
  EXPECT_EQ(Ok("%", kMin, kMax), -1);
  EXPECT_EQ(Ok("%", kMax, kMin), kMax);
  EXPECT_EQ(Ok("%", -7, 2), -1);  // sign follows the dividend
}

TEST_F(EvalTest, OverflowingExpressionIsAnError) {
  Result<Value> q = Eval("(0 - 9223372036854775807 - 1) / (0 - 1)");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Eval("(0 - 9223372036854775807 - 1) % (0 - 1)").value(),
            Value::Int(0));
}

TEST(MatchAtomTest, BindsVariables) {
  Rule r = ParseRules("a(@X) :- pkt(@L, D, D).").value().front();
  Bindings env;
  Tuple ok = Tuple::Make("pkt", 1, {Value::Int(5), Value::Int(5)});
  EXPECT_TRUE(MatchAtom(r.atoms[0], ok, env));
  EXPECT_EQ(env["L"], Value::Int(1));
  EXPECT_EQ(env["D"], Value::Int(5));
}

TEST(MatchAtomTest, RepeatedVariableMustAgree) {
  Rule r = ParseRules("a(@X) :- pkt(@L, D, D).").value().front();
  Bindings env;
  Tuple bad = Tuple::Make("pkt", 1, {Value::Int(5), Value::Int(6)});
  EXPECT_FALSE(MatchAtom(r.atoms[0], bad, env));
}

TEST(MatchAtomTest, ConstantMustMatch) {
  Rule r = ParseRules("a(@X) :- pkt(@L, 7).").value().front();
  Bindings env;
  EXPECT_TRUE(MatchAtom(r.atoms[0], Tuple::Make("pkt", 1, {Value::Int(7)}),
                        env));
  Bindings env2;
  EXPECT_FALSE(MatchAtom(r.atoms[0], Tuple::Make("pkt", 1, {Value::Int(8)}),
                         env2));
}

TEST(MatchAtomTest, RelationAndArityMustMatch) {
  Rule r = ParseRules("a(@X) :- pkt(@L, D).").value().front();
  Bindings env;
  EXPECT_FALSE(
      MatchAtom(r.atoms[0], Tuple::Make("other", 1, {Value::Int(1)}), env));
  EXPECT_FALSE(MatchAtom(r.atoms[0], Tuple::Make("pkt", 1, {}), env));
}

TEST(MatchAtomTest, ExistingBindingConstrains) {
  Rule r = ParseRules("a(@X) :- pkt(@L, D).").value().front();
  Bindings env{{"D", Value::Int(9)}};
  EXPECT_FALSE(
      MatchAtom(r.atoms[0], Tuple::Make("pkt", 1, {Value::Int(8)}), env));
}

TEST(InstantiateAtomTest, SubstitutesAndFailsOnUnbound) {
  Rule r = ParseRules("a(@X, D, 3) :- e(@X, D).").value().front();
  Bindings env{{"X", Value::Int(1)}, {"D", Value::Int(2)}};
  auto t = InstantiateAtom(r.head, env);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, Tuple::Make("a", 1, {Value::Int(2), Value::Int(3)}));
  Bindings partial{{"X", Value::Int(1)}};
  EXPECT_FALSE(InstantiateAtom(r.head, partial).ok());
}

class FireRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto rules = ParseRules(
        "r1 packet(@N, S, D) :- packet(@L, S, D), route(@L, D, N).");
    ASSERT_TRUE(rules.ok());
    rule_ = rules->front();
  }

  Rule rule_;
  Database db_;
  FunctionRegistry fns_ = DefaultFunctions();
};

TEST_F(FireRuleTest, NoConditionMatchNoFiring) {
  Tuple pkt = Tuple::Make("packet", 1, {Value::Int(1), Value::Int(3)});
  auto firings = FireRule(rule_, pkt, db_, fns_);
  ASSERT_TRUE(firings.ok());
  EXPECT_TRUE(firings->empty());
}

TEST_F(FireRuleTest, SingleJoin) {
  db_.Insert(Tuple::Make("route", 1, {Value::Int(3), Value::Int(2)}));
  Tuple pkt = Tuple::Make("packet", 1, {Value::Int(1), Value::Int(3)});
  auto firings = FireRule(rule_, pkt, db_, fns_);
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  EXPECT_EQ((*firings)[0].head,
            Tuple::Make("packet", 2, {Value::Int(1), Value::Int(3)}));
  ASSERT_EQ((*firings)[0].slow_tuples.size(), 1u);
}

TEST_F(FireRuleTest, MultipleMatchesFireMultipleTimes) {
  // Two routes for the same destination: multicast-style double firing.
  db_.Insert(Tuple::Make("route", 1, {Value::Int(3), Value::Int(2)}));
  db_.Insert(Tuple::Make("route", 1, {Value::Int(3), Value::Int(4)}));
  Tuple pkt = Tuple::Make("packet", 1, {Value::Int(1), Value::Int(3)});
  auto firings = FireRule(rule_, pkt, db_, fns_);
  ASSERT_TRUE(firings.ok());
  EXPECT_EQ(firings->size(), 2u);
}

TEST_F(FireRuleTest, EventMismatchIsEmpty) {
  db_.Insert(Tuple::Make("route", 1, {Value::Int(3), Value::Int(2)}));
  Tuple wrong = Tuple::Make("other", 1, {Value::Int(1), Value::Int(3)});
  auto firings = FireRule(rule_, wrong, db_, fns_);
  ASSERT_TRUE(firings.ok());
  EXPECT_TRUE(firings->empty());
}

TEST_F(FireRuleTest, ConstraintFiltersFiring) {
  auto rules = ParseRules("r2 recv(@L, D) :- packet(@L, D), D == L.");
  ASSERT_TRUE(rules.ok());
  Tuple at_dest = Tuple::Make("packet", 3, {Value::Int(3)});
  Tuple in_flight = Tuple::Make("packet", 2, {Value::Int(3)});
  EXPECT_EQ(FireRule(rules->front(), at_dest, db_, fns_)->size(), 1u);
  EXPECT_TRUE(FireRule(rules->front(), in_flight, db_, fns_)->empty());
}

TEST_F(FireRuleTest, AssignmentComputesHeadValue) {
  auto rules = ParseRules("r recv(@L, N) :- packet(@L, D), N := D * 10.");
  ASSERT_TRUE(rules.ok());
  Tuple pkt = Tuple::Make("packet", 1, {Value::Int(7)});
  auto firings = FireRule(rules->front(), pkt, db_, fns_);
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  EXPECT_EQ((*firings)[0].head, Tuple::Make("recv", 1, {Value::Int(70)}));
}

TEST_F(FireRuleTest, TwoConditionAtomsJoinTransitively) {
  auto rules = ParseRules(
      "r out(@L, C) :- in(@L, A), m1(@L, A, B), m2(@L, B, C).");
  ASSERT_TRUE(rules.ok());
  db_.Insert(Tuple::Make("m1", 1, {Value::Int(10), Value::Int(20)}));
  db_.Insert(Tuple::Make("m2", 1, {Value::Int(20), Value::Int(30)}));
  db_.Insert(Tuple::Make("m2", 1, {Value::Int(99), Value::Int(31)}));
  Tuple ev = Tuple::Make("in", 1, {Value::Int(10)});
  auto firings = FireRule(rules->front(), ev, db_, fns_);
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  EXPECT_EQ((*firings)[0].head, Tuple::Make("out", 1, {Value::Int(30)}));
  EXPECT_EQ((*firings)[0].slow_tuples.size(), 2u);
}

}  // namespace
}  // namespace dpc
