#include "src/ndlog/eval.h"

#include <cstdint>

namespace dpc {

namespace {

bool MatchAtomImpl(const Atom& atom, const Tuple& tuple, Bindings& env,
                   std::vector<std::string>* trail) {
  if (atom.relation != tuple.relation()) return false;
  if (atom.args.size() != tuple.arity()) return false;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& term = atom.args[i];
    const Value& v = tuple.at(i);
    if (term.is_var()) {
      auto [it, inserted] = env.emplace(term.var, v);
      if (inserted) {
        if (trail != nullptr) trail->push_back(term.var);
      } else if (it->second != v) {
        return false;
      }
    } else if (term.constant != v) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<Value> EvalBinary(Expr::Op op, const Value& lhs, const Value& rhs) {
  if (IsComparisonOp(op)) {
    if (lhs.kind() != rhs.kind()) {
      // Cross-type comparison: only (in)equality is meaningful.
      switch (op) {
        case Expr::Op::kEq:
          return Value::Bool(false);
        case Expr::Op::kNe:
          return Value::Bool(true);
        default:
          return Status::InvalidArgument(
              "ordered comparison between values of different types");
      }
    }
    switch (op) {
      case Expr::Op::kEq: return Value::Bool(lhs == rhs);
      case Expr::Op::kNe: return Value::Bool(lhs != rhs);
      case Expr::Op::kLt: return Value::Bool(lhs < rhs);
      case Expr::Op::kLe: return Value::Bool(lhs <= rhs);
      case Expr::Op::kGt: return Value::Bool(lhs > rhs);
      case Expr::Op::kGe: return Value::Bool(lhs >= rhs);
      default: break;
    }
  }
  // Arithmetic. "+" additionally concatenates strings.
  if (op == Expr::Op::kAdd && lhs.is_string() && rhs.is_string()) {
    return Value::Str(lhs.AsString() + rhs.AsString());
  }
  if (!lhs.is_int() || !rhs.is_int()) {
    return Status::InvalidArgument(std::string("arithmetic operator '") +
                                   OpName(op) +
                                   "' requires integer operands");
  }
  // Operands may come from peers' event bytes: a result outside int64 is
  // an error, never undefined behaviour or a hardware trap.
  int64_t a = lhs.AsInt(), b = rhs.AsInt();
  int64_t r = 0;
  bool overflow = false;
  switch (op) {
    case Expr::Op::kAdd: overflow = __builtin_add_overflow(a, b, &r); break;
    case Expr::Op::kSub: overflow = __builtin_sub_overflow(a, b, &r); break;
    case Expr::Op::kMul: overflow = __builtin_mul_overflow(a, b, &r); break;
    case Expr::Op::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      overflow = a == INT64_MIN && b == -1;
      if (!overflow) r = a / b;
      break;
    case Expr::Op::kMod:
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      r = b == -1 ? 0 : a % b;  // INT64_MIN % -1 traps; the result is 0
      break;
    default:
      return Status::Internal("unhandled binary op");
  }
  if (overflow) {
    return Status::InvalidArgument(std::string("integer overflow in '") +
                                   OpName(op) + "'");
  }
  return Value::Int(r);
}

Result<Value> EvalExpr(const Expr& expr, const Bindings& env,
                       const FunctionRegistry& fns) {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.constant;
    case Expr::Kind::kVar: {
      auto it = env.find(expr.var);
      if (it == env.end()) {
        return Status::InvalidArgument("unbound variable " + expr.var);
      }
      return it->second;
    }
    case Expr::Kind::kBinary: {
      DPC_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.lhs, env, fns));
      DPC_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.rhs, env, fns));
      return EvalBinary(expr.op, lhs, rhs);
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        DPC_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, env, fns));
        args.push_back(std::move(v));
      }
      return fns.Call(expr.fn, args);
    }
  }
  return Status::Internal("unhandled expression kind");
}

bool MatchAtom(const Atom& atom, const Tuple& tuple, Bindings& env) {
  return MatchAtomImpl(atom, tuple, env, nullptr);
}

bool MatchAtom(const Atom& atom, const Tuple& tuple, Bindings& env,
               std::vector<std::string>& trail) {
  return MatchAtomImpl(atom, tuple, env, &trail);
}

void UndoTrail(Bindings& env, std::vector<std::string>& trail, size_t mark) {
  while (trail.size() > mark) {
    env.erase(trail.back());
    trail.pop_back();
  }
}

Result<Tuple> InstantiateAtom(const Atom& atom, const Bindings& env) {
  std::vector<Value> values;
  values.reserve(atom.args.size());
  for (const Term& term : atom.args) {
    if (term.is_var()) {
      auto it = env.find(term.var);
      if (it == env.end()) {
        return Status::InvalidArgument("unbound variable " + term.var +
                                       " in atom " + atom.relation);
      }
      values.push_back(it->second);
    } else {
      values.push_back(term.constant);
    }
  }
  return Tuple(atom.relation, std::move(values));
}

namespace {

// Recursively joins condition atoms [idx..) against db, then applies
// assignments and constraints and emits the head. `env` is extended in
// place; every new binding is recorded in `trail` and rolled back before
// returning, so candidates never pay a full environment copy.
Status JoinConditions(const Rule& rule,
                      const std::vector<const Atom*>& conditions, size_t idx,
                      const Database& db, const FunctionRegistry& fns,
                      Bindings& env, std::vector<std::string>& trail,
                      std::vector<TupleRef>& joined,
                      std::vector<RuleFiring>& out) {
  if (idx == conditions.size()) {
    // Assignments run in body order; each may introduce a new binding.
    size_t mark = trail.size();
    Status st = [&]() -> Status {
      for (const Assignment& asn : rule.assignments) {
        DPC_ASSIGN_OR_RETURN(Value v, EvalExpr(*asn.expr, env, fns));
        auto it = env.find(asn.var);
        if (it == env.end()) {
          env.emplace(asn.var, std::move(v));
          trail.push_back(asn.var);
        } else if (it->second != v) {
          return Status::OK();  // no match
        }
      }
      for (const Constraint& c : rule.constraints) {
        DPC_ASSIGN_OR_RETURN(Value v, EvalExpr(*c.expr, env, fns));
        if (!v.Truthy()) return Status::OK();
      }
      DPC_ASSIGN_OR_RETURN(Tuple head, InstantiateAtom(rule.head, env));
      out.push_back(RuleFiring{std::move(head), joined});
      return Status::OK();
    }();
    UndoTrail(env, trail, mark);
    return st;
  }

  const Atom& atom = *conditions[idx];
  const Table* table = db.Find(atom.relation);
  if (table == nullptr) return Status::OK();

  Status st;
  table->ForEachRef([&](const TupleRef& candidate) {
    size_t mark = trail.size();
    if (MatchAtom(atom, *candidate, env, trail)) {
      joined.push_back(candidate);
      st = JoinConditions(rule, conditions, idx + 1, db, fns, env, trail,
                          joined, out);
      joined.pop_back();
      if (!st.ok()) {
        UndoTrail(env, trail, mark);
        return false;
      }
    }
    UndoTrail(env, trail, mark);
    return true;
  });
  return st;
}

}  // namespace

Result<std::vector<RuleFiring>> FireRule(const Rule& rule, const Tuple& event,
                                         const Database& db,
                                         const FunctionRegistry& fns) {
  std::vector<RuleFiring> out;
  Bindings env;
  if (!MatchAtom(rule.EventAtom(), event, env)) {
    return out;  // The event does not instantiate this rule's trigger.
  }
  std::vector<const Atom*> conditions = rule.ConditionAtoms();
  std::vector<TupleRef> joined;
  std::vector<std::string> trail;
  DPC_RETURN_NOT_OK(
      JoinConditions(rule, conditions, 0, db, fns, env, trail, joined, out));
  return out;
}

}  // namespace dpc
