#include "src/runtime/batch_eval.h"

#include "src/db/table.h"
#include "src/util/hash.h"
#include "src/util/logging.h"

namespace dpc {

namespace {

// First-probe key hash for one event, read directly off the event tuple's
// positions (RulePlan::batch_first_key). Returns false when the event is
// too short for some key position — such an event cannot match the rule's
// event atom, so the caller lets it probe for itself (no firings).
bool FirstKeyHash(const RulePlan& plan, const Tuple& event, uint64_t* hash) {
  Fnv1a h;
  for (size_t k = 0; k < plan.first_key_event_pos.size(); ++k) {
    int pos = plan.first_key_event_pos[k];
    if (pos < 0) {
      plan.first_key_constants[k].HashInto(h);
      continue;
    }
    if (static_cast<size_t>(pos) >= event.arity()) return false;
    event.at(static_cast<size_t>(pos)).HashInto(h);
  }
  *hash = h.hash();
  return true;
}

}  // namespace

// Slots point at values inside the event and joined tuples (stable for
// the call) or at `owned` entries for assignment results. Each slot has
// exactly one binder in plan order and every reader runs after it, so
// backtracking needs no trail: the next candidate overwrites the slot.
struct CompiledRule::Frame {
  struct StepState {
    const Table* table = nullptr;
    const Table::HashIndex* index = nullptr;  // resolved at first probe
    const TupleRef* joined = nullptr;
    std::vector<const TupleRef*> candidates;
  };
  std::vector<const Value*> slots;
  std::vector<Value> owned;  // assignment results, by slot
  std::vector<StepState> steps;
  const std::vector<const TupleRef*>* first_candidates = nullptr;
  std::vector<RuleFiring>* out = nullptr;
};

CompiledRule::CompiledRule(const Rule& rule, const RulePlan& plan,
                           const FunctionRegistry& fns)
    : rule_(&rule), plan_(&plan), fns_(&fns) {
  std::map<std::string, uint32_t> slot_of;
  auto fresh_slot = [&](const std::string& var) {
    return slot_of.emplace(var, static_cast<uint32_t>(slot_of.size()));
  };
  // A variable's first occurrence binds a slot; later ones check it.
  auto compile_atom = [&](const Atom& atom) {
    std::vector<Op> ops;
    ops.reserve(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& t = atom.args[i];
      Op op;
      op.pos = static_cast<uint32_t>(i);
      if (t.is_var()) {
        auto [it, fresh] = fresh_slot(t.var);
        op.kind = fresh ? Op::Kind::kBind : Op::Kind::kCheckSlot;
        op.slot = it->second;
      } else {
        op.constant = &t.constant;
      }
      ops.push_back(op);
    }
    return ops;
  };
  auto compile_filters = [&](const std::vector<size_t>& assignments,
                             const std::vector<size_t>& constraints) {
    Filters out;
    for (size_t i : assignments) {
      const Assignment& asn = rule.assignments[i];
      Assign a;
      // The right-hand side compiles before its target takes a slot.
      a.expr = CompileExpr(*asn.expr, slot_of, fns);
      auto [it, fresh] = fresh_slot(asn.var);
      a.slot = it->second;
      a.binds = fresh;
      out.assignments.push_back(std::move(a));
    }
    for (size_t i : constraints) {
      out.constraints.push_back(
          CompileExpr(*rule.constraints[i].expr, slot_of, fns));
    }
    return out;
  };

  event_ops_ = compile_atom(rule.EventAtom());
  pre_ = compile_filters(plan.pre_assignments, plan.pre_constraints);
  for (const PlanStep& ps : plan.steps) {
    const Atom& atom = rule.atoms[ps.atom_index];
    Step step;
    step.relation = &atom.relation;
    step.sig = &ps.bound_columns;
    step.arity = atom.args.size();
    // The probe key reads slots bound before this step, so it compiles
    // before the atom's own ops take new slots.
    for (size_t col : ps.bound_columns) {
      const Term& t = atom.args[col];
      if (!t.is_var()) {
        step.key.emplace_back(-1, &t.constant);
        continue;
      }
      auto it = slot_of.find(t.var);
      DPC_CHECK(it != slot_of.end())
          << "plan for rule " << rule.id << " probes unbound " << t.var;
      step.key.emplace_back(static_cast<int32_t>(it->second), nullptr);
    }
    step.ops = compile_atom(atom);
    step.filters = compile_filters(ps.assignments, ps.constraints);
    steps_.push_back(std::move(step));
  }

  // InstantiateAtom names the first head variable nothing binds; every
  // derivation then fails with that status, as it does in FireRule.
  Bindings bound;
  for (const auto& [var, slot] : slot_of) bound.emplace(var, Value());
  head_error_ = InstantiateAtom(rule.head, bound).status();
  for (const Term& t : rule.head.args) {
    auto it = t.is_var() ? slot_of.find(t.var) : slot_of.end();
    head_.emplace_back(
        it != slot_of.end() ? static_cast<int32_t>(it->second) : -1,
        t.is_var() ? nullptr : &t.constant);
  }
  num_slots_ = static_cast<uint32_t>(slot_of.size());
}

CompiledRule::SlotExpr CompiledRule::CompileExpr(
    const Expr& expr, const std::map<std::string, uint32_t>& slot_of,
    const FunctionRegistry& fns) {
  SlotExpr out;
  out.expr = &expr;
  switch (expr.kind) {
    case Expr::Kind::kConst:
      break;
    case Expr::Kind::kVar: {
      auto it = slot_of.find(expr.var);
      if (it != slot_of.end()) out.slot = static_cast<int32_t>(it->second);
      break;
    }
    case Expr::Kind::kBinary:
      out.args.push_back(CompileExpr(*expr.lhs, slot_of, fns));
      out.args.push_back(CompileExpr(*expr.rhs, slot_of, fns));
      break;
    case Expr::Kind::kCall:
      out.fn = fns.Find(expr.fn);
      for (const ExprPtr& arg : expr.args) {
        out.args.push_back(CompileExpr(*arg, slot_of, fns));
      }
      break;
  }
  return out;
}

Result<Value> CompiledRule::Eval(const SlotExpr& e, const Frame& f) const {
  const Expr& expr = *e.expr;
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.constant;
    case Expr::Kind::kVar:
      // Unbound at this plan position: EvalExpr's own error.
      if (e.slot < 0) return EvalExpr(expr, Bindings{}, *fns_);
      return *f.slots[static_cast<size_t>(e.slot)];
    case Expr::Kind::kBinary: {
      DPC_ASSIGN_OR_RETURN(Value lhs, Eval(e.args[0], f));
      DPC_ASSIGN_OR_RETURN(Value rhs, Eval(e.args[1], f));
      return EvalBinary(expr.op, lhs, rhs);
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const SlotExpr& arg : e.args) {
        DPC_ASSIGN_OR_RETURN(Value v, Eval(arg, f));
        args.push_back(std::move(v));
      }
      // An unregistered function fails with the registry's own error.
      return e.fn != nullptr ? (*e.fn)(args) : fns_->Call(expr.fn, args);
    }
  }
  return Status::Internal("unhandled expression kind");
}

bool CompiledRule::Match(const std::vector<Op>& ops, const Tuple& t,
                         Frame& f) {
  for (const Op& op : ops) {
    const Value& v = t.at(op.pos);
    switch (op.kind) {
      case Op::Kind::kBind:
        f.slots[op.slot] = &v;
        break;
      case Op::Kind::kCheckSlot:
        if (*f.slots[op.slot] != v) return false;
        break;
      case Op::Kind::kCheckConst:
        if (*op.constant != v) return false;
        break;
    }
  }
  return true;
}

Result<bool> CompiledRule::Apply(const Filters& filters, Frame& f) const {
  for (const Assign& a : filters.assignments) {
    DPC_ASSIGN_OR_RETURN(Value v, Eval(a.expr, f));
    if (a.binds) {
      f.owned[a.slot] = std::move(v);
      f.slots[a.slot] = &f.owned[a.slot];
    } else if (*f.slots[a.slot] != v) {
      return false;
    }
  }
  for (const SlotExpr& c : filters.constraints) {
    DPC_ASSIGN_OR_RETURN(Value v, Eval(c, f));
    if (!v.Truthy()) return false;
  }
  return true;
}

Status CompiledRule::Emit(Frame& f) const {
  if (!head_error_.ok()) return head_error_;
  std::vector<Value> values;
  values.reserve(head_.size());
  for (const auto& [slot, constant] : head_) {
    values.push_back(slot >= 0 ? *f.slots[static_cast<size_t>(slot)]
                               : *constant);
  }
  RuleFiring firing;
  firing.head = Tuple(rule_->head.relation, std::move(values));
  firing.slow_tuples.reserve(steps_.size());
  for (size_t step : plan_->body_order) {
    firing.slow_tuples.push_back(*f.steps[step].joined);
  }
  f.out->push_back(std::move(firing));
  return Status::OK();
}

Status CompiledRule::Join(size_t idx, Frame& f) const {
  if (idx == steps_.size()) return Emit(f);
  const Step& step = steps_[idx];
  Frame::StepState& state = f.steps[idx];
  Status status;
  auto visit = [&](const TupleRef& row) {
    // Full re-verification: the index matched on a 64-bit hash only, and
    // unbound or repeated columns still need binding and checking.
    if (row->arity() != step.arity || !Match(step.ops, *row, f)) return true;
    Result<bool> keep = Apply(step.filters, f);
    if (!keep.ok()) {
      status = keep.status();
      return false;
    }
    if (!*keep) return true;
    state.joined = &row;
    status = Join(idx + 1, f);
    return status.ok();
  };
  const std::vector<const TupleRef*>* candidates = nullptr;
  if (idx == 0 && f.first_candidates != nullptr) {
    candidates = f.first_candidates;
  } else if (state.table == nullptr) {
    return Status::OK();  // the relation has no table yet
  } else if (step.sig->empty()) {
    state.table->ForEachRef(visit);  // nothing bound: scan
    return status;
  } else {
    if (state.index == nullptr) state.index = &state.table->IndexFor(*step.sig);
    Fnv1a h;
    for (const auto& [slot, constant] : step.key) {
      (slot >= 0 ? *f.slots[static_cast<size_t>(slot)] : *constant)
          .HashInto(h);
    }
    state.candidates.clear();
    state.table->CollectFromIndex(*state.index, h.hash(), state.candidates);
    candidates = &state.candidates;
  }
  for (const TupleRef* row : *candidates) {
    if (!visit(*row)) break;
  }
  return status;
}

Status CompiledRule::Execute(
    const Tuple& event, const std::vector<const TupleRef*>* first_candidates,
    Frame& f, std::vector<RuleFiring>& out) const {
  if (event.relation() != rule_->EventAtom().relation ||
      event.arity() != event_ops_.size() || !Match(event_ops_, event, f)) {
    return Status::OK();  // the event does not instantiate the trigger
  }
  f.first_candidates = first_candidates;
  f.out = &out;
  DPC_ASSIGN_OR_RETURN(bool keep, Apply(pre_, f));
  if (!keep) return Status::OK();
  return Join(0, f);
}

std::vector<BatchEventFirings> CompiledRule::FireBatch(
    const std::vector<const Tuple*>& events, const Database& db) const {
  std::vector<BatchEventFirings> out(events.size());
  if (plan_->never_fires) return out;
  Frame f;
  f.slots.resize(num_slots_);
  if (!rule_->assignments.empty()) f.owned.resize(num_slots_);
  f.steps.resize(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    f.steps[s].table = db.Find(*steps_[s].relation);
  }
  auto run = [&](size_t i, const std::vector<const TupleRef*>* candidates) {
    out[i].status = Execute(*events[i], candidates, f, out[i].firings);
    if (!out[i].status.ok()) out[i].firings.clear();
  };

  // Events run in batch order. In a batch of two or more, when step 0's
  // probe key reads straight off the event tuple, consecutive events with
  // the same key share one candidate run (one DNS node's requests share
  // its nameServer bucket, say). Batch order keeps the scratch and the
  // results cache-friendly: hash-chaining same-key events across a large
  // batch scattered them and ran slower than probing per event.
  const Table* first_table = steps_.empty() ? nullptr : f.steps[0].table;
  const Table::HashIndex* first_index =
      events.size() > 1 && plan_->batch_first_key && first_table != nullptr
          ? &first_table->IndexFor(*steps_[0].sig)
          : nullptr;
  std::vector<const TupleRef*> candidates;
  bool have_run = false;
  uint64_t run_hash = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    uint64_t hash = 0;
    if (first_index == nullptr || !FirstKeyHash(*plan_, *events[i], &hash)) {
      run(i, nullptr);  // probes for itself (or cannot match the trigger)
      continue;
    }
    if (!have_run || hash != run_hash) {
      candidates.clear();
      first_table->CollectFromIndex(*first_index, hash, candidates);
      have_run = true;
      run_hash = hash;
    }
    run(i, &candidates);
  }
  return out;
}

}  // namespace dpc
