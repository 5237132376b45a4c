#include "src/analysis/planner.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

namespace dpc {

namespace {

bool AllVarsBound(const Expr& expr, const std::set<std::string>& bound) {
  std::vector<std::string> vars;
  expr.CollectVars(vars);
  for (const std::string& v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

// Columns of `atom` whose term is a constant or an already-bound variable,
// sorted ascending. A repeated unbound variable contributes only its later
// occurrences once the first has bound it — but at probe time all
// occurrences bind together, so only constants and previously-bound
// variables count here.
IndexSignature BoundColumnsOf(const Atom& atom,
                              const std::set<std::string>& bound) {
  IndexSignature cols;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    if (!t.is_var() || bound.count(t.var) > 0) cols.push_back(i);
  }
  return cols;
}

// Scheduling state threaded through the pushdown: which assignments and
// constraints have been placed, and the variables bound so far.
struct Scheduler {
  const Rule& rule;
  std::set<std::string> bound;
  std::vector<bool> asn_placed;
  std::vector<bool> con_placed;

  explicit Scheduler(const Rule& r)
      : rule(r),
        asn_placed(r.assignments.size(), false),
        con_placed(r.constraints.size(), false) {}

  // Places every not-yet-placed assignment whose right-hand side is fully
  // bound (iterated to a fixpoint, so body-order chains like N := 2,
  // M := N + 1 place together) and then every fully-bound constraint.
  void PlaceReady(std::vector<size_t>& asn_out, std::vector<size_t>& con_out) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rule.assignments.size(); ++i) {
        if (asn_placed[i]) continue;
        if (!AllVarsBound(*rule.assignments[i].expr, bound)) continue;
        asn_placed[i] = true;
        asn_out.push_back(i);
        bound.insert(rule.assignments[i].var);
        changed = true;
      }
    }
    for (size_t i = 0; i < rule.constraints.size(); ++i) {
      if (con_placed[i]) continue;
      if (!AllVarsBound(*rule.constraints[i].expr, bound)) continue;
      con_placed[i] = true;
      con_out.push_back(i);
    }
  }

  // Appends everything still unplaced (expressions over variables no atom
  // binds — only possible in non-conformant rules). Evaluating them last
  // reproduces the naive evaluator's unbound-variable error.
  void PlaceLeftovers(std::vector<size_t>& asn_out,
                      std::vector<size_t>& con_out) {
    for (size_t i = 0; i < rule.assignments.size(); ++i) {
      if (!asn_placed[i]) asn_out.push_back(i);
    }
    for (size_t i = 0; i < rule.constraints.size(); ++i) {
      if (!con_placed[i]) con_out.push_back(i);
    }
  }
};

}  // namespace

bool RulePlan::HasCrossProduct() const {
  for (const PlanStep& s : steps) {
    if (s.cross_product) return true;
  }
  return false;
}

std::string RulePlan::ToString(const Rule& rule) const {
  std::string out = rule.EventAtom().relation;
  for (const PlanStep& s : steps) {
    out += " -> " + rule.atoms[s.atom_index].relation;
    if (s.bound_columns.empty()) {
      out += s.cross_product ? "[xprod]" : "[scan]";
    } else {
      out += IndexSignatureToString(s.bound_columns);
    }
  }
  if (never_fires) out += " (never fires)";
  return out;
}

RulePlan PlanRule(const Rule& rule) {
  RulePlan plan;
  plan.rule_id = rule.id;

  // Constant folding, mirroring the W401/W402 constraint pass: seed an
  // environment from assignments whose right-hand sides fold (in body
  // order), then fold each constraint. Always-true constraints leave the
  // plan; an always-false one makes the rule never fire.
  const FunctionRegistry no_functions;
  Bindings fold_env;
  for (const Assignment& asn : rule.assignments) {
    if (fold_env.count(asn.var) > 0) continue;
    Result<Value> v = EvalExpr(*asn.expr, fold_env, no_functions);
    if (v.ok()) fold_env.emplace(asn.var, std::move(v).value());
  }
  Scheduler sched(rule);
  for (size_t i = 0; i < rule.constraints.size(); ++i) {
    Result<Value> v = EvalExpr(*rule.constraints[i].expr, fold_env,
                               no_functions);
    if (!v.ok()) continue;
    if (v->Truthy()) {
      plan.folded_constraints.push_back(i);
      sched.con_placed[i] = true;  // never emitted into the plan
    } else {
      plan.never_fires = true;
    }
  }

  for (const Term& t : rule.EventAtom().args) {
    if (t.is_var()) sched.bound.insert(t.var);
  }
  sched.PlaceReady(plan.pre_assignments, plan.pre_constraints);

  // Greedy join ordering: at each position probe the condition atom with
  // the most bound columns (ties: earliest in body order, so plans are
  // deterministic and degenerate to textual order when nothing differs).
  std::vector<size_t> remaining;
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (i != rule.event_index) remaining.push_back(i);
  }
  while (!remaining.empty()) {
    size_t best_pos = 0;
    IndexSignature best_cols =
        BoundColumnsOf(rule.atoms[remaining[0]], sched.bound);
    for (size_t p = 1; p < remaining.size(); ++p) {
      IndexSignature cols =
          BoundColumnsOf(rule.atoms[remaining[p]], sched.bound);
      if (cols.size() > best_cols.size()) {
        best_pos = p;
        best_cols = std::move(cols);
      }
    }
    PlanStep step;
    step.atom_index = remaining[best_pos];
    step.bound_columns = std::move(best_cols);
    step.cross_product = step.bound_columns.empty() && !plan.steps.empty();
    remaining.erase(remaining.begin() + best_pos);
    for (const Term& t : rule.atoms[step.atom_index].args) {
      if (t.is_var()) sched.bound.insert(t.var);
    }
    sched.PlaceReady(step.assignments, step.constraints);
    plan.steps.push_back(std::move(step));
  }

  if (plan.steps.empty()) {
    sched.PlaceLeftovers(plan.pre_assignments, plan.pre_constraints);
  } else {
    sched.PlaceLeftovers(plan.steps.back().assignments,
                         plan.steps.back().constraints);
  }

  // Batchability fields: body order permutation, and whether step 0's
  // probe key reads straight off the event.
  plan.body_order.resize(plan.steps.size());
  std::iota(plan.body_order.begin(), plan.body_order.end(), size_t{0});
  std::sort(plan.body_order.begin(), plan.body_order.end(),
            [&](size_t a, size_t b) {
              return plan.steps[a].atom_index < plan.steps[b].atom_index;
            });
  if (!plan.steps.empty() && !plan.steps[0].bound_columns.empty()) {
    const Atom& first = rule.atoms[plan.steps[0].atom_index];
    const Atom& event_atom = rule.EventAtom();
    plan.batch_first_key = true;
    for (size_t col : plan.steps[0].bound_columns) {
      const Term& t = first.args[col];
      if (!t.is_var()) {
        plan.first_key_event_pos.push_back(-1);
        plan.first_key_constants.push_back(t.constant);
        continue;
      }
      // A variable bound by a pre-assignment (not an event position)
      // defeats the direct key read.
      int pos = -1;
      for (size_t p = 0; p < event_atom.args.size(); ++p) {
        if (event_atom.args[p].is_var() && event_atom.args[p].var == t.var) {
          pos = static_cast<int>(p);
          break;
        }
      }
      if (pos < 0) {
        plan.batch_first_key = false;
        break;
      }
      plan.first_key_event_pos.push_back(pos);
      plan.first_key_constants.emplace_back();  // keeps vectors aligned
    }
    if (!plan.batch_first_key) {
      plan.first_key_event_pos.clear();
      plan.first_key_constants.clear();
    }
  }
  return plan;
}

ProgramPlan PlanRules(const std::vector<Rule>& rules) {
  ProgramPlan plan;
  plan.rules.reserve(rules.size());
  for (const Rule& rule : rules) {
    RulePlan rp = PlanRule(rule);
    for (const PlanStep& step : rp.steps) {
      if (step.bound_columns.empty()) continue;
      plan.index_signatures[rule.atoms[step.atom_index].relation].insert(
          step.bound_columns);
    }
    plan.rules.push_back(std::move(rp));
  }
  return plan;
}

ProgramPlan PlanProgram(const Program& program) {
  return PlanRules(program.rules());
}

}  // namespace dpc
