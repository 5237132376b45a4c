// Unit tests for the analysis-driven rule compiler: greedy join ordering,
// constraint/assignment pushdown, constant folding, index-signature
// derivation, executing a compiled plan, the cost model, and the
// W601–N604 plan diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/cost_model.h"
#include "src/analysis/planner.h"
#include "src/apps/forwarding.h"
#include "src/ndlog/parser.h"
#include "src/runtime/batch_eval.h"

namespace dpc {
namespace {

// Executes `rule` under `plan` for one event: the runtime's evaluator.
BatchEventFirings FireOne(const Rule& rule, const RulePlan& plan,
                          const Tuple& event, const Database& db) {
  FunctionRegistry fns;
  return CompiledRule(rule, plan, fns).FireBatch({&event}, db).front();
}

Rule ParseOneRule(const std::string& source) {
  auto rules = ParseRules(source);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->size(), 1u);
  return rules->front();
}

std::vector<std::string> CodesOf(const AnalysisResult& res) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : res.diagnostics) codes.push_back(d.code);
  return codes;
}

std::string RenderCodes(const std::vector<std::string>& codes) {
  std::string out;
  for (const std::string& c : codes) out += c + " ";
  return out;
}

bool HasCode(const AnalysisResult& res, const std::string& code) {
  for (const Diagnostic& d : res.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(PlannerTest, GreedyOrderingProbesBoundAtomFirst) {
  // s_bnd supplies two bound columns (@L, A) at probe time, s_unb only
  // one (@L): the planner must reorder against textual order, after
  // which s_unb's X column is still unbound.
  Rule rule = ParseOneRule(
      "r1 h(@L, A, B, X, Y) :- e(@L, A), s_unb(@L, X, Y), s_bnd(@L, A, B).");
  RulePlan plan = PlanRule(rule);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(rule.atoms[plan.steps[0].atom_index].relation, "s_bnd");
  EXPECT_EQ(plan.steps[0].bound_columns, (IndexSignature{0, 1}));
  EXPECT_EQ(rule.atoms[plan.steps[1].atom_index].relation, "s_unb");
  EXPECT_EQ(plan.steps[1].bound_columns, (IndexSignature{0}));
  EXPECT_FALSE(plan.HasCrossProduct());
  EXPECT_EQ(plan.ToString(rule), "e -> s_bnd[0,1] -> s_unb[0]");
}

TEST(PlannerTest, LaterBindingsWidenTheProbeSignature) {
  // s_b binds B; probing it first turns s_a's third column (B) into a
  // bound column, giving s_a the signature [0,2] instead of [0].
  Rule rule = ParseOneRule(
      "r1 h(@L, A, B, X) :- e(@L, A), s_a(@L, X, B), s_b(@L, A, B).");
  RulePlan plan = PlanRule(rule);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(rule.atoms[plan.steps[0].atom_index].relation, "s_b");
  EXPECT_EQ(plan.steps[1].bound_columns, (IndexSignature{0, 2}));
}

TEST(PlannerTest, PushdownPlacesFiltersAtEarliestBoundPosition) {
  // A > 0 and M := B + 1 only need event variables: both run before any
  // probe. C < 5 needs s's C: it runs at s's step.
  Rule rule = ParseOneRule(
      "r1 h(@L, A, M) :- e(@L, A, B), s(@L, A, C), A > 0, M := B + 1, "
      "C < 5.");
  RulePlan plan = PlanRule(rule);
  EXPECT_EQ(plan.pre_assignments, (std::vector<size_t>{0}));
  EXPECT_EQ(plan.pre_constraints, (std::vector<size_t>{0}));
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].constraints, (std::vector<size_t>{1}));
  EXPECT_TRUE(plan.folded_constraints.empty());
}

TEST(PlannerTest, AssignmentChainsPlaceTogether) {
  // M depends on N which depends only on the event: the fixpoint places
  // both pre-join, in dependency order.
  Rule rule = ParseOneRule(
      "r1 h(@L, M) :- e(@L, A), s(@L, A), N := A + 1, M := N + 1.");
  RulePlan plan = PlanRule(rule);
  EXPECT_EQ(plan.pre_assignments, (std::vector<size_t>{0, 1}));
}

TEST(PlannerTest, AlwaysTrueConstraintFoldsOutOfThePlan) {
  Rule rule = ParseOneRule("r1 h(@L, A) :- e(@L, A), s(@L, A), 1 < 2.");
  RulePlan plan = PlanRule(rule);
  EXPECT_EQ(plan.folded_constraints, (std::vector<size_t>{0}));
  EXPECT_FALSE(plan.never_fires);
  EXPECT_TRUE(plan.pre_constraints.empty());
  for (const PlanStep& s : plan.steps) EXPECT_TRUE(s.constraints.empty());
}

TEST(PlannerTest, AlwaysFalseConstraintMarksNeverFires) {
  Rule rule = ParseOneRule("r1 h(@L, A) :- e(@L, A), s(@L, A), 1 > 2.");
  RulePlan plan = PlanRule(rule);
  EXPECT_TRUE(plan.never_fires);
  EXPECT_NE(plan.ToString(rule).find("(never fires)"), std::string::npos);

  Database db;
  db.Insert(Tuple::Make("s", 0, {Value::Int(1)}));
  BatchEventFirings firings =
      FireOne(rule, plan, Tuple::Make("e", 0, {Value::Int(1)}), db);
  ASSERT_TRUE(firings.status.ok());
  EXPECT_TRUE(firings.firings.empty());
}

TEST(PlannerTest, CrossProductIsOnlyTheSecondZeroCoverageProbe) {
  Rule rule = ParseOneRule(
      "r1 h(@L, X, P) :- e(@L, A), s1(@M, X, Y), s2(@N, P, Q).");
  RulePlan plan = PlanRule(rule);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_FALSE(plan.steps[0].cross_product);  // first probe: a scan
  EXPECT_TRUE(plan.steps[1].cross_product);
  EXPECT_TRUE(plan.HasCrossProduct());
  EXPECT_EQ(plan.ToString(rule), "e -> s1[scan] -> s2[xprod]");
}

TEST(PlannerTest, ProgramPlanAggregatesIndexSignatures) {
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);
  ASSERT_EQ(plan.rules.size(), 2u);
  ASSERT_EQ(plan.index_signatures.count("route"), 1u);
  EXPECT_EQ(*plan.index_signatures.at("route").begin(),
            (IndexSignature{0, 1}));
}

TEST(PlannerTest, PlannedFiringRestoresBodyOrderSlowTuples) {
  // The planner probes s_b before s_a; the firing must still list the
  // joined tuples in body-atom order (s_a, s_b) for provenance.
  Rule rule = ParseOneRule(
      "r1 h(@L, A, B, X) :- e(@L, A), s_a(@L, X, B), s_b(@L, A, B).");
  RulePlan plan = PlanRule(rule);
  ASSERT_EQ(rule.atoms[plan.steps[0].atom_index].relation, "s_b");

  Database db;
  Tuple sa = Tuple::Make("s_a", 0, {Value::Int(7), Value::Int(2)});
  Tuple sb = Tuple::Make("s_b", 0, {Value::Int(1), Value::Int(2)});
  db.Insert(sa);
  db.Insert(sb);
  Tuple event = Tuple::Make("e", 0, {Value::Int(1)});

  BatchEventFirings planned = FireOne(rule, plan, event, db);
  ASSERT_TRUE(planned.status.ok());
  ASSERT_EQ(planned.firings.size(), 1u);
  const RuleFiring& firing = planned.firings.front();
  ASSERT_EQ(firing.slow_tuples.size(), 2u);
  EXPECT_EQ(*firing.slow_tuples[0], sa);
  EXPECT_EQ(*firing.slow_tuples[1], sb);

  auto naive = FireRule(rule, event, db, FunctionRegistry{});
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->size(), 1u);
  EXPECT_EQ(naive->front().head, firing.head);
  ASSERT_EQ(naive->front().slow_tuples.size(), firing.slow_tuples.size());
  for (size_t i = 0; i < naive->front().slow_tuples.size(); ++i) {
    EXPECT_EQ(*naive->front().slow_tuples[i], *firing.slow_tuples[i]);
  }
}

TEST(PlannerTest, CostModelPricesForwarding) {
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);
  ProgramCostEstimate est = EstimateCost(*program, plan);
  ASSERT_EQ(est.rules.size(), 2u);

  // r1 relocates (head @N vs event @L) and probes route on two
  // key-reachable columns: tight fan-out, non-zero comm.
  EXPECT_TRUE(est.rules[0].relocates);
  EXPECT_GT(est.rules[0].comm_bytes, 0.0);
  EXPECT_NEAR(est.rules[0].fanout, 1.0, 0.01);
  // r2 stays local: no communication.
  EXPECT_FALSE(est.rules[1].relocates);
  EXPECT_EQ(est.rules[1].comm_bytes, 0.0);
  EXPECT_GT(est.total_comm_bytes, 0.0);
}

TEST(PlannerTest, CostModelZeroesNeverFiringRules) {
  auto program = Program::Parse(
      "r1 h(@L, A) :- e(@L, A), s(@L, A), 1 > 2.");
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);
  ProgramCostEstimate est = EstimateCost(*program, plan);
  ASSERT_EQ(est.rules.size(), 1u);
  EXPECT_EQ(est.rules[0].fanout, 0.0);
}

TEST(PlanPassTest, CrossProductJoinIsW601) {
  AnalysisResult res = AnalyzeSource(
      "r1 h(@L, X, P) :- e(@L, A), s1(@M, X, Y), s2(@N, P, Q).",
      AnalyzerOptions{});
  EXPECT_TRUE(HasCode(res, "W601")) << RenderCodes(CodesOf(res));
}

TEST(PlanPassTest, UnindexableFirstProbeIsW602) {
  AnalysisResult res = AnalyzeSource(
      "r1 h(@L, X) :- e(@L, A), s(@M, X, Y).", AnalyzerOptions{});
  EXPECT_TRUE(HasCode(res, "W602")) << RenderCodes(CodesOf(res));
  EXPECT_FALSE(HasCode(res, "W601"));
}

TEST(PlanPassTest, RuleDownstreamOfNeverFiringRuleIsW603) {
  AnalysisResult res = AnalyzeSource(
      "r1 e1(@L, A) :- e0(@L, A), s1(@L, A), 1 > 2.\n"
      "r2 out(@L, A) :- e1(@L, A), s2(@L, A).\n",
      AnalyzerOptions{});
  // r1 itself is the always-false rule (W402); only r2 is dead code.
  EXPECT_TRUE(HasCode(res, "W402")) << RenderCodes(CodesOf(res));
  EXPECT_TRUE(HasCode(res, "W603")) << RenderCodes(CodesOf(res));
  size_t w603 = 0;
  for (const Diagnostic& d : res.diagnostics) {
    if (d.code == "W603") {
      ++w603;
      EXPECT_EQ(d.loc.line, 2);
    }
  }
  EXPECT_EQ(w603, 1u);
}

TEST(PlanPassTest, MutuallyRecursiveDeadGroupIsFullyW603) {
  // r2 and r3 derive each other's triggers, but the only path into the
  // group runs through the always-false r1. The reachability fixpoint must
  // not let the group bootstrap itself off its own heads: both members are
  // dead, and each gets its own W603.
  AnalysisResult res = AnalyzeSource(
      "r1 c(@L, X) :- a(@L, X), s(@L, X), 1 == 2.\n"
      "r2 d(@L, X) :- c(@L, X), s(@L, X).\n"
      "r3 c(@L, X) :- d(@L, X), s(@L, X).\n",
      AnalyzerOptions{});
  EXPECT_TRUE(HasCode(res, "W402")) << RenderCodes(CodesOf(res));
  std::vector<int> w603_lines;
  for (const Diagnostic& d : res.diagnostics) {
    if (d.code == "W603") w603_lines.push_back(d.loc.line);
  }
  EXPECT_EQ(w603_lines, (std::vector<int>{2, 3}));
}

TEST(PlanPassTest, LiveMutualRecursionIsNotW603) {
  // The same shape with a live entry edge: nothing is dead.
  AnalysisResult res = AnalyzeSource(
      "r1 c(@L, X) :- a(@L, X), s(@L, X).\n"
      "r2 d(@L, X) :- c(@L, X), s(@L, X).\n"
      "r3 c(@L, X) :- d(@L, X), s(@L, X).\n",
      AnalyzerOptions{});
  EXPECT_FALSE(HasCode(res, "W603")) << RenderCodes(CodesOf(res));
  EXPECT_FALSE(HasCode(res, "W402"));
}

TEST(PlanPassTest, PlanNotesEmitN604AndFillTheReport) {
  AnalyzerOptions options;
  options.plan_notes = true;
  AnalysisResult res = AnalyzeSource(
      "r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).\n"
      "r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.\n",
      options);
  EXPECT_TRUE(HasCode(res, "N604"));
  ASSERT_EQ(res.plan_report.rules.size(), 2u);
  EXPECT_EQ(res.plan_report.rules[0].rule_id, "r1");
  EXPECT_EQ(res.plan_report.rules[0].join_order, "packet -> route[0,1]");
  EXPECT_EQ(res.plan_report.rules[0].indexed_probes, 1u);
  EXPECT_TRUE(res.plan_report.rules[0].has_cost);
  ASSERT_EQ(res.plan_report.index_signatures.size(), 1u);
  EXPECT_EQ(res.plan_report.index_signatures[0].first, "route");
}

TEST(PlanPassTest, NoPlanDiagnosticsOnIllFormedSource) {
  // The plan pass is gated on an error-free front half: an empty rule
  // body must produce E-codes only, never a crash or W60x noise.
  AnalysisResult res = AnalyzeSource("r1 h(@L, A) :- .", AnalyzerOptions{});
  EXPECT_GT(res.errors(), 0u);
  EXPECT_FALSE(HasCode(res, "W601"));
  EXPECT_FALSE(HasCode(res, "W602"));
  EXPECT_FALSE(HasCode(res, "W603"));
}

}  // namespace
}  // namespace dpc
