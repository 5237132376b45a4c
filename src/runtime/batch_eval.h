// The rule evaluator (§3.1): each DELP rule is compiled once, when the
// runtime is built, into positional form, and every dispatch applies it
// to a batch of one or more same-relation events (the VLog RuleExecutor
// idea: join and copy positions precomputed per rule, one evaluate path).
//
// CompiledRule turns a rule and its plan (src/analysis/planner.h: join
// order, pushdown placement, folded constraints, index signatures) into
// ops over dense value slots. Every variable resolves to a slot index at
// compile time, so the per-event loop never looks a name up:
//
//   * the event atom and each condition atom become bind / check-slot /
//     check-constant ops over tuple positions (MatchAtom's unification);
//   * each plan step probes its relation's lazily built hash index with a
//     key read from slots, or scans the table when no column is bound;
//   * assignments and constraints run at their pushed-down plan position
//     as expressions over slots, with EvalBinary's operator semantics and
//     registry functions resolved once;
//   * a never-firing plan yields no firings, and a head variable no body
//     term binds yields InstantiateAtom's error at every derivation.
//
// FireBatch evaluates the rule for every event of a batch, in batch
// order. When step 0's probe key reads straight off the event tuple
// (RulePlan::batch_first_key), consecutive events with the same key share
// one fetch of their index bucket. Results come back per event, aligned
// with the batch, so the caller can emit firings, recorder hooks and
// sends in exactly the tuple-at-a-time sequence (docs/perf.md).
//
// Contract (docs/ndlog.md): evaluation only reads the database, so
// FireBatch(events)[i] equals FireBatch({events[i]})[0] in firings, firing
// order and status; and for well-typed programs the firing set equals the
// naive oracle FireRule's, with RuleFiring.slow_tuples in body-atom order.
// Index buckets keep insertion order, so when the plan keeps body order
// the firing sequence is FireRule's as well.
#ifndef DPC_RUNTIME_BATCH_EVAL_H_
#define DPC_RUNTIME_BATCH_EVAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/planner.h"
#include "src/ndlog/eval.h"

namespace dpc {

// One batch member's evaluation result: the firings the event produced
// under the rule (possibly none) and the per-(event, rule) status —
// errors stay confined to the event that caused them, exactly as in
// tuple-at-a-time evaluation. On error `firings` is empty.
struct BatchEventFirings {
  Status status;
  std::vector<RuleFiring> firings;
};

class CompiledRule {
 public:
  // Compiles `rule` under `plan` (which must have been compiled from it).
  // All three must outlive the CompiledRule.
  CompiledRule(const Rule& rule, const RulePlan& plan,
               const FunctionRegistry& fns);

  // Evaluates the rule for every event of `events`. Returns one entry per
  // event, aligned with `events`. The database must not change for the
  // duration of the call. Const and thread-safe: all scratch is per call,
  // so shard workers share one CompiledRule.
  std::vector<BatchEventFirings> FireBatch(
      const std::vector<const Tuple*>& events, const Database& db) const;

 private:
  // One tuple position of an atom.
  struct Op {
    enum class Kind : uint8_t { kBind, kCheckSlot, kCheckConst };
    Kind kind = Kind::kCheckConst;
    uint32_t pos = 0;                 // tuple position read
    uint32_t slot = 0;                // kBind / kCheckSlot
    const Value* constant = nullptr;  // kCheckConst
  };
  // An expression with each variable resolved to a slot.
  struct SlotExpr {
    const Expr* expr = nullptr;  // kind, operator, constant, function name
    int32_t slot = -1;           // kVar: the slot read; -1 if unbound here
    const NdlogFunction* fn = nullptr;  // kCall: null if not registered
    std::vector<SlotExpr> args;  // kBinary: {lhs, rhs}; kCall: arguments
  };
  // `var := expr`: binds a fresh slot, or filters on the bound value.
  struct Assign {
    SlotExpr expr;
    uint32_t slot = 0;
    bool binds = false;
  };
  // The assignments, then constraints, placed at one plan position.
  struct Filters {
    std::vector<Assign> assignments;
    std::vector<SlotExpr> constraints;
  };
  // A probe key or head column: a slot, or (slot < 0) a constant.
  using Source = std::pair<int32_t, const Value*>;
  struct Step {
    const std::string* relation = nullptr;
    const IndexSignature* sig = nullptr;  // empty: scan the table
    size_t arity = 0;
    std::vector<Source> key;  // in sig's column order
    std::vector<Op> ops;
    Filters filters;
  };
  struct Frame;  // per-call scratch (batch_eval.cc)

  static SlotExpr CompileExpr(const Expr& expr,
                              const std::map<std::string, uint32_t>& slot_of,
                              const FunctionRegistry& fns);

  // MatchAtom's unification over precompiled ops (callers check the
  // relation and arity).
  static bool Match(const std::vector<Op>& ops, const Tuple& t, Frame& f);
  Status Execute(const Tuple& event,
                 const std::vector<const TupleRef*>* first_candidates,
                 Frame& f, std::vector<RuleFiring>& out) const;
  Status Join(size_t idx, Frame& f) const;
  Status Emit(Frame& f) const;
  Result<bool> Apply(const Filters& filters, Frame& f) const;
  Result<Value> Eval(const SlotExpr& e, const Frame& f) const;

  const Rule* rule_;
  const RulePlan* plan_;
  const FunctionRegistry* fns_;
  uint32_t num_slots_ = 0;
  std::vector<Op> event_ops_;
  Filters pre_;
  std::vector<Step> steps_;
  std::vector<Source> head_;
  Status head_error_;  // a head variable no body term binds
};

}  // namespace dpc

#endif  // DPC_RUNTIME_BATCH_EVAL_H_
