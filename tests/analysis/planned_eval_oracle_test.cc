// Differential oracle for the rule executor (src/runtime/batch_eval.h):
// on the same rule, database, and event, the rule compiled under its plan
// (src/analysis/planner.h) must produce exactly the firing set of the
// naive FireRule — same heads, same joined slow tuples in body-atom
// order. Exercised over the two example applications (forwarding, DNS)
// and 100 seeded random DELPs whose rules mix bound joins, scans, cross
// products, assignment chains, and foldable constraints.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/planner.h"
#include "src/apps/dns.h"
#include "src/apps/forwarding.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/functions.h"
#include "src/ndlog/parser.h"
#include "src/runtime/batch_eval.h"
#include "src/util/rng.h"

namespace dpc {
namespace {

// A firing rendered to a canonical string: head plus joined slow tuples
// (already in body-atom order by contract).
std::vector<std::string> Canon(const std::vector<RuleFiring>& firings) {
  std::vector<std::string> out;
  out.reserve(firings.size());
  for (const RuleFiring& f : firings) {
    std::string s = f.head.ToString();
    for (const TupleRef& t : f.slow_tuples) s += " | " + t->ToString();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Fires every rule of `rules` triggered by each event with both
// evaluators and asserts identical firing sets. Returns the total number
// of executor firings so callers can assert coverage.
size_t CheckOracle(const std::vector<Rule>& rules,
                   const std::vector<RulePlan>& plans, const Database& db,
                   const std::vector<Tuple>& events,
                   const FunctionRegistry& fns) {
  size_t total_firings = 0;
  for (const Tuple& event : events) {
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      if (rule.EventAtom().relation != event.relation()) continue;
      if (rule.EventAtom().args.size() != event.arity()) continue;
      auto naive = FireRule(rule, event, db, fns);
      BatchEventFirings planned =
          CompiledRule(rule, plans[i], fns).FireBatch({&event}, db).front();
      EXPECT_EQ(naive.ok(), planned.status.ok())
          << rule.ToString() << "\nnaive: " << naive.status().ToString()
          << "\nplanned: " << planned.status.ToString();
      if (!naive.ok() || !planned.status.ok()) continue;
      EXPECT_EQ(Canon(*naive), Canon(planned.firings))
          << rule.ToString() << "\nevent " << event.ToString();
      total_firings += planned.firings.size();
    }
  }
  return total_firings;
}

TEST(PlannedEvalOracleTest, ForwardingFiringSetsMatch) {
  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);

  Database db;
  for (int d = 0; d < 4; ++d) {
    for (int n = 0; n < 3; ++n) {
      if ((d + n) % 2 == 0) continue;  // leave holes: some probes miss
      db.Insert(Tuple::Make("route", 0,
                            {Value::Int(d), Value::Int(n)}));
    }
  }
  std::vector<Tuple> events;
  for (int s = 0; s < 2; ++s) {
    for (int d = 0; d < 5; ++d) {
      events.push_back(Tuple::Make(
          "packet", 0, {Value::Int(s), Value::Int(d), Value::Int(42)}));
    }
  }
  size_t firings = CheckOracle(program->rules(), plan.rules, db, events,
                               FunctionRegistry{});
  EXPECT_GT(firings, 0u);
}

TEST(PlannedEvalOracleTest, DnsFiringSetsMatch) {
  auto program = apps::MakeDnsProgram();
  ASSERT_TRUE(program.ok());
  ProgramPlan plan = PlanProgram(*program);
  FunctionRegistry fns = DefaultFunctions();

  Database db;
  db.Insert(Tuple::Make("rootServer", 0, {Value::Int(1)}));
  const std::vector<std::string> domains = {"com", "example.com", "org"};
  for (size_t d = 0; d < domains.size(); ++d) {
    db.Insert(Tuple::Make("nameServer", 0,
                          {Value::Str(domains[d]),
                           Value::Int(static_cast<int64_t>(d + 1))}));
  }
  const std::vector<std::string> urls = {"a.example.com", "b.org", "c.com",
                                         "miss.net"};
  for (size_t u = 0; u + 1 < urls.size(); ++u) {
    db.Insert(Tuple::Make("addressRecord", 0,
                          {Value::Str(urls[u]),
                           Value::Str("10.0.0." + std::to_string(u))}));
  }

  std::vector<Tuple> events;
  for (const std::string& url : urls) {
    events.push_back(
        Tuple::Make("url", 0, {Value::Str(url), Value::Int(9)}));
    events.push_back(Tuple::Make(
        "request", 0, {Value::Str(url), Value::Int(5), Value::Int(9)}));
    events.push_back(Tuple::Make(
        "dnsResult", 0,
        {Value::Str(url), Value::Str("10.9.9.9"), Value::Int(5),
         Value::Int(9)}));
  }
  size_t firings =
      CheckOracle(program->rules(), plan.rules, db, events, fns);
  EXPECT_GT(firings, 0u);
}

// Random DELP generator, richer than the key-soundness one: each rule
// draws 1–3 condition atoms from templates that produce bound probes
// (sa: joins on A, sb: joins on B), pure scans (sd: only the location is
// bound), and full cross products (sc: nothing bound, its own location
// variable), in random order, plus optional assignment chains and
// constraints — including constant ones that fold or kill the rule.
std::string GenerateDelp(Rng& rng, int* num_rules_out) {
  int num_rules = 1 + static_cast<int>(rng.NextBelow(3));
  std::string src;
  for (int i = 1; i <= num_rules; ++i) {
    std::vector<std::string> conds;
    std::string tag = std::to_string(i);
    bool has_sa = false;
    int num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<int> kinds = {0, 1, 2, 3};
    for (int k = 0; k < num_atoms; ++k) {
      size_t pick = rng.NextBelow(kinds.size());
      int kind = kinds[pick];
      kinds.erase(kinds.begin() + static_cast<long>(pick));
      switch (kind) {
        case 0:
          conds.push_back("sa" + tag + "(@L, A, C" + tag + ")");
          has_sa = true;
          break;
        case 1:
          conds.push_back("sb" + tag + "(@L, B)");
          break;
        case 2:
          conds.push_back("sc" + tag + "(@M" + tag + ", E" + tag + ")");
          break;
        default:
          conds.push_back("sd" + tag + "(@L, X" + tag + ", Y" + tag + ")");
          break;
      }
    }
    std::vector<std::string> extras;
    if (rng.NextBelow(2) == 0) {
      extras.push_back("Z" + tag + " := A + B");
    }
    switch (rng.NextBelow(5)) {
      case 0: extras.push_back("A >= 1"); break;
      case 1: extras.push_back("B < 2"); break;
      case 2: extras.push_back("0 <= 1"); break;  // folds out (W401)
      case 3: extras.push_back("1 < 0"); break;   // never fires (W402)
      default: break;
    }
    if (has_sa && rng.NextBelow(2) == 0) {
      extras.push_back("C" + tag + " != B");
    }

    std::string a_next = rng.NextBelow(2) == 0 ? "A" : "B";
    std::string b_next;
    switch (rng.NextBelow(3)) {
      case 0: b_next = "B"; break;
      case 1: b_next = "A"; break;
      default:
        b_next = has_sa ? "C" + tag : "A";
        break;
    }
    std::string rule = "r" + tag + " e" + tag + "(@L, " + a_next + ", " +
                       b_next + ") :- e" + std::to_string(i - 1) +
                       "(@L, A, B)";
    for (const std::string& c : conds) rule += ", " + c;
    for (const std::string& x : extras) rule += ", " + x;
    rule += ".";
    src += rule + "\n";
  }
  *num_rules_out = num_rules;
  return src;
}

class PlannedEvalRandomOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannedEvalRandomOracleTest, RandomDelpFiringSetsMatch) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 17);
  int num_rules = 0;
  std::string source = GenerateDelp(rng, &num_rules);

  auto rules = ParseRules(source);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString() << "\n" << source;
  ProgramPlan plan = PlanRules(*rules);
  ASSERT_EQ(plan.rules.size(), rules->size());

  // Populate every condition relation with all value combinations over a
  // small domain, so joins hit, miss, and fan out.
  Database db;
  for (const Rule& rule : *rules) {
    for (const Atom* atom : rule.ConditionAtoms()) {
      size_t arity = atom->args.size();
      size_t combos = 1;
      for (size_t a = 0; a < arity; ++a) combos *= 3;
      for (size_t c = 0; c < combos; ++c) {
        std::vector<Value> vals;
        size_t rem = c;
        for (size_t a = 0; a < arity; ++a) {
          vals.push_back(Value::Int(static_cast<int64_t>(rem % 3)));
          rem /= 3;
        }
        db.Insert(Tuple(atom->relation, std::move(vals)));
      }
    }
  }

  std::vector<Tuple> events;
  for (int r = 0; r < num_rules; ++r) {
    for (int l = 0; l < 2; ++l) {
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          events.push_back(Tuple::Make("e" + std::to_string(r), l,
                                       {Value::Int(a), Value::Int(b)}));
        }
      }
    }
  }
  CheckOracle(*rules, plan.rules, db, events, FunctionRegistry{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannedEvalRandomOracleTest,
                         ::testing::Range<uint64_t>(1, 101));

}  // namespace
}  // namespace dpc
