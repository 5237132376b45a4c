// Analysis-driven rule compiler (the planner): turns each DELP rule into
// an index-backed join plan, which the runtime compiles once into its
// positional executor (src/runtime/batch_eval.h CompiledRule).
//
// The naive evaluator (src/ndlog/eval.h FireRule, kept as the test
// oracle) matches condition atoms in textual body order against whole
// slow-changing tables and only applies assignments and constraints at
// the join leaves. The planner instead compiles, once per program load:
//
//   * a join order chosen greedily by bound-variable coverage, so an atom
//     sharing variables with what is already bound is probed before one
//     that would cross-product;
//   * a placement for every assignment and constraint at the earliest
//     join position where all of its variables are bound (constraint and
//     assignment pushdown), with constraints the constant folder proves
//     always-true (W401) folded out of the plan entirely and an
//     always-false constraint (W402) marking the whole rule never-firing;
//   * per condition atom, the signature of bound columns the probe
//     supplies — exactly the hash indexes (src/db/table.h) the runtime
//     builds lazily per slow-changing table.
//
// Plans preserve the naive evaluator's semantics for well-typed programs:
// executing a plan produces FireRule's firing set, with
// RuleFiring.slow_tuples restored to body-atom order so provenance
// recording is unchanged (see docs/ndlog.md, "The evaluation contract").
#ifndef DPC_ANALYSIS_PLANNER_H_
#define DPC_ANALYSIS_PLANNER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/db/table.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/program.h"

namespace dpc {

// One probe of a condition atom in the planned join order.
struct PlanStep {
  // Index into rule.atoms of the condition atom this step joins.
  size_t atom_index = 0;
  // Sorted columns of the atom bound (by constants or earlier bindings)
  // when the step runs. Empty: the probe degrades to a full scan.
  IndexSignature bound_columns;
  // True when the step binds nothing shared with the tuples joined so
  // far and is not the first probe: a cross-product join (W601).
  bool cross_product = false;
  // Indexes into rule.assignments / rule.constraints evaluated right
  // after this step's match, in body order (assignments first).
  std::vector<size_t> assignments;
  std::vector<size_t> constraints;
};

// The compiled form of one rule.
struct RulePlan {
  std::string rule_id;
  // Condition atoms in execution order.
  std::vector<PlanStep> steps;
  // Assignments/constraints evaluable as soon as the event atom has
  // matched, before any table probe (the deepest pushdown).
  std::vector<size_t> pre_assignments;
  std::vector<size_t> pre_constraints;
  // Constraints the constant folder proved always-true; dropped from
  // execution (they can never filter).
  std::vector<size_t> folded_constraints;
  // A constraint folds to false: the rule can never fire and the
  // executor returns no firings without probing anything.
  bool never_fires = false;

  // --- batchability fields (docs/analysis.md) --------------------------
  // Step positions reordered back to body-atom order, precomputed for
  // RuleFiring.slow_tuples so the executor doesn't sort per call.
  std::vector<size_t> body_order;
  // True when step 0's probe key is computable straight from the event
  // tuple: every bound column is a constant or a variable bound at an
  // event-atom position. The executor then hashes and groups a batch's
  // events by first-probe key without unifying each event first.
  std::vector<int> first_key_event_pos;   // event position, or -1: constant
  std::vector<Value> first_key_constants;  // aligned; used where pos == -1
  bool batch_first_key = false;

  // True when any step is a cross-product join.
  bool HasCrossProduct() const;
  // "ev ⨝ rel[0,1] ⨝ rel2[scan]"-style display of the join order.
  std::string ToString(const Rule& rule) const;
};

// The compiled form of a program: one plan per rule plus the union of
// index signatures each slow-changing relation will be probed with.
struct ProgramPlan {
  std::vector<RulePlan> rules;  // parallel to the source rule vector
  std::map<std::string, std::set<IndexSignature>> index_signatures;
};

// Compiles one rule.
RulePlan PlanRule(const Rule& rule);

// Compiles every rule and aggregates per-relation index signatures.
// Works on arbitrary (even non-conformant) rule vectors: the plan pass
// runs it before a Program can necessarily be constructed.
ProgramPlan PlanRules(const std::vector<Rule>& rules);
ProgramPlan PlanProgram(const Program& program);

}  // namespace dpc

#endif  // DPC_ANALYSIS_PLANNER_H_
