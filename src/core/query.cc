#include "src/core/query.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dpc {

Result<Tuple> ReExecuteRule(const Rule& rule, const Tuple& event,
                            const std::vector<Tuple>& slow_tuples,
                            const FunctionRegistry& fns) {
  Bindings env;
  if (!MatchAtom(rule.EventAtom(), event, env)) {
    return Status::FailedPrecondition("event " + event.ToString() +
                                      " does not match rule " + rule.id);
  }
  std::vector<const Atom*> conditions = rule.ConditionAtoms();
  if (conditions.size() != slow_tuples.size()) {
    return Status::FailedPrecondition(
        "rule " + rule.id + " expects " +
        std::to_string(conditions.size()) + " condition tuples, got " +
        std::to_string(slow_tuples.size()));
  }
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (!MatchAtom(*conditions[i], slow_tuples[i], env)) {
      return Status::FailedPrecondition(
          "recorded tuple " + slow_tuples[i].ToString() +
          " does not match condition atom " + conditions[i]->ToString() +
          " of rule " + rule.id);
    }
  }
  for (const Assignment& asn : rule.assignments) {
    DPC_ASSIGN_OR_RETURN(Value v, EvalExpr(*asn.expr, env, fns));
    auto [it, inserted] = env.emplace(asn.var, v);
    if (!inserted && it->second != v) {
      return Status::FailedPrecondition("conflicting assignment in rule " +
                                        rule.id);
    }
  }
  for (const Constraint& c : rule.constraints) {
    DPC_ASSIGN_OR_RETURN(Value v, EvalExpr(*c.expr, env, fns));
    if (!v.Truthy()) {
      return Status::FailedPrecondition("constraint " + c.ToString() +
                                        " fails in rule " + rule.id);
    }
  }
  return InstantiateAtom(rule.head, env);
}

void SortAndDedupTrees(std::vector<ProvTree>& trees) {
  std::vector<std::pair<std::vector<uint8_t>, size_t>> keyed;
  keyed.reserve(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) {
    ByteWriter w;
    trees[i].Serialize(w);
    keyed.emplace_back(w.Take(), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<ProvTree> out;
  out.reserve(keyed.size());
  for (size_t k = 0; k < keyed.size(); ++k) {
    if (k > 0 && keyed[k].first == keyed[k - 1].first) continue;
    out.push_back(std::move(trees[keyed[k].second]));
  }
  trees = std::move(out);
}

namespace {

constexpr size_t kMaxWalkDepth = 100000;

// Latency / traffic bookkeeping for one query execution.
class Accounting {
 public:
  Accounting(const Topology* topo, const QueryCostModel* cost, NodeId start)
      : topo_(topo), cost_(cost), pos_(start), querier_(start) {}

  void TouchEntries(size_t n) {
    entries_ += n;
    latency_ += static_cast<double>(n) * cost_->per_entry_s;
  }

  void FetchBytes(size_t b) {
    bytes_ += b;
    carried_ += b;
    latency_ += static_cast<double>(b) * cost_->per_processed_byte_s;
  }

  void Rederive(size_t n) {
    latency_ += static_cast<double>(n) * cost_->per_rederivation_s;
  }

  // Move the query cursor to `n`, carrying the accumulated response.
  void MoveTo(NodeId n) {
    if (n == pos_) return;
    latency_ += TransferLatency(pos_, n, carried_ + cost_->request_bytes);
    hops_ += topo_->Distance(pos_, n);
    pos_ = n;
  }

  // Ship the accumulated response back to the querying node.
  void ReturnToQuerier() { MoveTo(querier_); }

  void FillResult(QueryResult& res) const {
    res.latency_s = latency_;
    res.entries_touched = entries_;
    res.bytes_transferred = bytes_;
    res.hops = hops_;
  }

  NodeId pos() const { return pos_; }

 private:
  // Sums the links of the a -> b route in path order, following NextHop in
  // place rather than materializing the path.
  double TransferLatency(NodeId a, NodeId b, size_t bytes) const {
    double t = 0;
    if (topo_->Distance(a, b) < 0) return t;
    for (NodeId cur = a; cur != b;) {
      NodeId next = topo_->NextHop(cur, b);
      DPC_CHECK(next != kNullNode);
      const LinkProps& link = topo_->Link(cur, next);
      t += link.latency_s +
           static_cast<double>(bytes) * 8.0 / link.bandwidth_bps;
      cur = next;
    }
    return t;
  }

  const Topology* topo_;
  const QueryCostModel* cost_;
  double latency_ = 0;
  size_t entries_ = 0;
  size_t bytes_ = 0;
  size_t carried_ = 0;
  int hops_ = 0;
  NodeId pos_;
  NodeId querier_;
};

// One element of a fetched (compact) provenance chain, root side first.
struct WalkElem {
  std::string rule_id;
  NodeId loc = kNullNode;
  std::vector<Tuple> slow;
  Vid event_vid{};         // leaf elements of Basic chains
  bool has_event_vid = false;
};

// Rebuilds the full provenance tree from a compact chain (root-side first)
// plus the input event, re-executing each rule bottom-up (§4 step 2).
// Returns NotFound when the chain does not actually derive `output`.
Result<ProvTree> ReconstructTree(const std::vector<WalkElem>& chain,
                                 const Tuple& event, const Tuple& output,
                                 const Program& program,
                                 const FunctionRegistry& fns,
                                 Accounting& acct) {
  ProvTree tree;
  tree.set_event(event);
  Tuple current = event;
  for (size_t i = chain.size(); i-- > 0;) {
    const WalkElem& elem = chain[i];
    const Rule* rule = program.FindRule(elem.rule_id);
    if (rule == nullptr) {
      return Status::Internal("recorded unknown rule id " + elem.rule_id);
    }
    acct.Rederive(1);
    Result<Tuple> head = ReExecuteRule(*rule, current, elem.slow, fns);
    if (!head.ok()) {
      // Spurious branch (shared storage): the recorded tuples do not apply
      // to this event.
      return Status::NotFound("branch does not derive the queried tuple: " +
                              head.status().message());
    }
    tree.AppendStep(ProvStep{elem.rule_id, *head, elem.slow});
    current = *head;
  }
  if (tree.empty() || tree.Output() != output) {
    return Status::NotFound("reconstructed derivation does not end at " +
                            output.ToString());
  }
  return tree;
}

}  // namespace

// --- ExSPAN -----------------------------------------------------------------

ExspanQuerier::ExspanQuerier(const ExspanRecorder* recorder,
                             const Topology* topology, QueryCostModel cost)
    : recorder_(recorder), topology_(topology), cost_(cost) {
  DPC_CHECK(recorder_ != nullptr);
  DPC_CHECK(topology_ != nullptr);
}

namespace {

// DFS over ExSPAN's prov/ruleExec rows. Produces (event, steps) chains for
// the derivations of `vid`; `steps` is ordered leaf-first.
struct ExspanChain {
  Tuple event;
  std::vector<ProvStep> steps;  // leaf-first
};

Status ExspanWalk(const ExspanRecorder& rec, const Topology& topo,
                  const Vid& vid, NodeId loc, size_t depth, Accounting& acct,
                  std::vector<ExspanChain>& out) {
  if (depth > kMaxWalkDepth) {
    return Status::Internal("provenance walk exceeded depth limit");
  }
  acct.MoveTo(loc);

  // Resolve the tuple content for this VID.
  const Tuple* tuple = rec.TuplesAt(loc).Find(vid);
  if (tuple == nullptr) tuple = rec.EventsAt(loc).Find(vid);
  if (tuple == nullptr) {
    return Status::NotFound("no materialized tuple for vid " +
                            vid.ToHex(4) + " at node " + std::to_string(loc));
  }
  acct.TouchEntries(1);
  acct.FetchBytes(tuple->SerializedSize());

  std::vector<const ProvEntry*> rows = rec.ProvAt(loc).FindByVid(vid);
  if (rows.empty()) {
    return Status::NotFound("no prov entry for vid " + vid.ToHex(4) +
                            " at node " + std::to_string(loc));
  }
  acct.TouchEntries(rows.size());
  acct.FetchBytes(rows.size() * rows[0]->SerializedSize(false));

  for (const ProvEntry* row : rows) {
    if (row->rule.IsNull()) {
      // Base/input tuple: a derivation leaf.
      out.push_back(ExspanChain{*tuple, {}});
      continue;
    }
    acct.MoveTo(row->rule.loc);
    std::vector<const RuleExecEntry*> execs =
        rec.RuleExecAt(row->rule.loc).FindByRid(row->rule.rid);
    if (execs.empty()) {
      return Status::NotFound("dangling RID " + row->rule.rid.ToHex(4));
    }
    for (const RuleExecEntry* exec : execs) {
      acct.TouchEntries(1);
      acct.FetchBytes(exec->SerializedSize(false));
      if (exec->vids.empty()) {
        return Status::Internal("ExSPAN ruleExec row without body vids");
      }
      // vids[0] is the triggering event; the rest are slow-changing tuples.
      std::vector<Tuple> slow;
      for (size_t i = 1; i < exec->vids.size(); ++i) {
        const Tuple* st = rec.TuplesAt(exec->rloc).Find(exec->vids[i]);
        if (st == nullptr) {
          return Status::NotFound("unresolvable slow-tuple vid " +
                                  exec->vids[i].ToHex(4));
        }
        acct.TouchEntries(1);
        acct.FetchBytes(st->SerializedSize());
        slow.push_back(*st);
      }
      std::vector<ExspanChain> sub;
      DPC_RETURN_NOT_OK(ExspanWalk(rec, topo, exec->vids[0], exec->rloc,
                                   depth + 1, acct, sub));
      for (ExspanChain& chain : sub) {
        chain.steps.push_back(ProvStep{exec->rule_id, *tuple, slow});
        out.push_back(std::move(chain));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExspanQuerier::Query(const Tuple& output,
                                         const Vid* evid) {
  NodeId querier = output.Location();
  Accounting acct(topology_, &cost_, querier);
  std::vector<ExspanChain> chains;
  DPC_RETURN_NOT_OK(ExspanWalk(*recorder_, *topology_, output.Vid(), querier,
                               0, acct, chains));
  acct.ReturnToQuerier();

  QueryResult res;
  for (ExspanChain& chain : chains) {
    if (chain.steps.empty()) continue;  // the output itself is never a base
    if (evid != nullptr && chain.event.Vid() != *evid) continue;
    res.trees.emplace_back(std::move(chain.event), std::move(chain.steps));
  }
  if (res.trees.empty()) {
    return Status::NotFound("no derivation found for " + output.ToString());
  }
  acct.FillResult(res);
  return res;
}

// --- Basic ------------------------------------------------------------------

BasicQuerier::BasicQuerier(const BasicRecorder* recorder,
                           const Program* program,
                           const FunctionRegistry* fns,
                           const Topology* topology, QueryCostModel cost)
    : recorder_(recorder),
      program_(program),
      fns_(fns),
      topology_(topology),
      cost_(cost) {
  DPC_CHECK(recorder_ != nullptr);
  DPC_CHECK(program_ != nullptr);
  DPC_CHECK(fns_ != nullptr);
  DPC_CHECK(topology_ != nullptr);
}

namespace {

// DFS along (NLoc, NRID) chains of a combined ruleExec table. On reaching a
// leaf, invokes `on_chain(chain)` with elements ordered root-side first.
template <typename RowsForRid, typename OnChain>
Status WalkNextChain(const RowsForRid& rows_for_rid, NodeRid start,
                     Accounting& acct, std::vector<WalkElem>& chain,
                     size_t depth, const OnChain& on_chain) {
  if (depth > kMaxWalkDepth) {
    return Status::Internal("provenance walk exceeded depth limit");
  }
  acct.MoveTo(start.loc);
  std::vector<std::pair<WalkElem, NodeRid>> rows;
  DPC_RETURN_NOT_OK(rows_for_rid(start, acct, rows));
  if (rows.empty()) {
    return Status::NotFound("dangling RID " + start.rid.ToHex(4) +
                            " at node " + std::to_string(start.loc));
  }
  for (auto& [elem, next] : rows) {
    chain.push_back(std::move(elem));
    if (next.IsNull()) {
      DPC_RETURN_NOT_OK(on_chain(chain));
    } else {
      DPC_RETURN_NOT_OK(WalkNextChain(rows_for_rid, next, acct, chain,
                                      depth + 1, on_chain));
      acct.MoveTo(start.loc);  // DFS backtrack for the next branch
    }
    chain.pop_back();
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> BasicQuerier::Query(const Tuple& output,
                                        const Vid* evid) {
  NodeId querier = output.Location();
  Accounting acct(topology_, &cost_, querier);

  std::vector<const ProvEntry*> prov_rows =
      recorder_->ProvAt(querier).FindByVid(output.Vid());
  if (prov_rows.empty()) {
    return Status::NotFound("no prov entry for " + output.ToString());
  }
  acct.TouchEntries(prov_rows.size());
  acct.FetchBytes(prov_rows.size() * prov_rows[0]->SerializedSize(false));

  // Step 1: fetch the optimized chains; Step 2: reconstruct.
  QueryResult res;
  auto rows_for_rid =
      [this](const NodeRid& at, Accounting& a,
             std::vector<std::pair<WalkElem, NodeRid>>& out) -> Status {
    std::vector<const RuleExecEntry*> execs =
        recorder_->RuleExecAt(at.loc).FindByRid(at.rid);
    for (const RuleExecEntry* exec : execs) {
      a.TouchEntries(1);
      a.FetchBytes(exec->SerializedSize(true));
      WalkElem elem;
      elem.rule_id = exec->rule_id;
      elem.loc = exec->rloc;
      size_t slow_begin = 0;
      if (exec->next.IsNull()) {
        // Leaf row: vids[0] is the input event (Table 2's rid1).
        if (exec->vids.empty()) {
          return Status::Internal("leaf ruleExec row without event vid");
        }
        elem.event_vid = exec->vids[0];
        elem.has_event_vid = true;
        slow_begin = 1;
      }
      for (size_t i = slow_begin; i < exec->vids.size(); ++i) {
        const Tuple* st = recorder_->TuplesAt(exec->rloc).Find(exec->vids[i]);
        if (st == nullptr) {
          return Status::NotFound("unresolvable slow-tuple vid " +
                                  exec->vids[i].ToHex(4));
        }
        a.TouchEntries(1);
        a.FetchBytes(st->SerializedSize());
        elem.slow.push_back(*st);
      }
      out.emplace_back(std::move(elem), exec->next);
    }
    return Status::OK();
  };

  for (const ProvEntry* prov : prov_rows) {
    std::vector<WalkElem> chain;
    Status st = WalkNextChain(
        rows_for_rid, prov->rule, acct, chain, 0,
        [&](const std::vector<WalkElem>& full) -> Status {
          const WalkElem& leaf = full.back();
          if (!leaf.has_event_vid) {
            return Status::Internal("Basic chain leaf lacks an event vid");
          }
          if (evid != nullptr && leaf.event_vid != *evid) {
            return Status::OK();  // filtered out
          }
          const Tuple* event =
              recorder_->EventsAt(leaf.loc).Find(leaf.event_vid);
          if (event == nullptr) {
            return Status::NotFound("input event not materialized at node " +
                                    std::to_string(leaf.loc));
          }
          acct.TouchEntries(1);
          acct.FetchBytes(event->SerializedSize());
          Result<ProvTree> tree = ReconstructTree(full, *event, output,
                                                  *program_, *fns_, acct);
          if (tree.ok()) {
            res.trees.push_back(std::move(tree).value());
          } else if (!tree.status().IsNotFound()) {
            return tree.status();
          }
          return Status::OK();
        });
    DPC_RETURN_NOT_OK(st);
  }
  acct.ReturnToQuerier();

  if (res.trees.empty()) {
    return Status::NotFound("no derivation found for " + output.ToString());
  }
  acct.FillResult(res);
  return res;
}

// --- Advanced ---------------------------------------------------------------

AdvancedQuerier::AdvancedQuerier(const AdvancedRecorder* recorder,
                                 const Program* program,
                                 const FunctionRegistry* fns,
                                 const Topology* topology,
                                 QueryCostModel cost)
    : recorder_(recorder),
      program_(program),
      fns_(fns),
      topology_(topology),
      cost_(cost) {
  DPC_CHECK(recorder_ != nullptr);
  DPC_CHECK(program_ != nullptr);
  DPC_CHECK(fns_ != nullptr);
  DPC_CHECK(topology_ != nullptr);
}

Result<QueryResult> AdvancedQuerier::Query(const Tuple& output,
                                           const Vid* evid) {
  NodeId querier = output.Location();
  Accounting acct(topology_, &cost_, querier);

  std::vector<const ProvEntry*> prov_rows =
      recorder_->ProvAt(querier).FindByVid(output.Vid());
  if (prov_rows.empty()) {
    return Status::NotFound("no prov entry for " + output.ToString());
  }
  acct.TouchEntries(prov_rows.size());
  acct.FetchBytes(prov_rows.size() * prov_rows[0]->SerializedSize(true));

  auto rows_for_rid =
      [this](const NodeRid& at, Accounting& a,
             std::vector<std::pair<WalkElem, NodeRid>>& out) -> Status {
    if (recorder_->inter_class_sharing()) {
      const RuleExecNodeEntry* node =
          recorder_->RuleExecNodesAt(at.loc).FindByRid(at.rid);
      if (node == nullptr) return Status::OK();
      std::vector<const RuleExecLinkEntry*> links =
          recorder_->RuleExecLinksAt(at.loc).FindByRid(at.rid);
      for (const RuleExecLinkEntry* link : links) {
        a.TouchEntries(2);  // node row + link row
        a.FetchBytes(node->SerializedSize() + link->SerializedSize());
        WalkElem elem;
        elem.rule_id = node->rule_id;
        elem.loc = node->rloc;
        for (const Vid& v : node->vids) {
          const Tuple* st = recorder_->TuplesAt(node->rloc).Find(v);
          if (st == nullptr) {
            return Status::NotFound("unresolvable slow-tuple vid " +
                                    v.ToHex(4));
          }
          a.TouchEntries(1);
          a.FetchBytes(st->SerializedSize());
          elem.slow.push_back(*st);
        }
        out.emplace_back(std::move(elem), link->next);
      }
      return Status::OK();
    }
    std::vector<const RuleExecEntry*> execs =
        recorder_->RuleExecAt(at.loc).FindByRid(at.rid);
    for (const RuleExecEntry* exec : execs) {
      a.TouchEntries(1);
      a.FetchBytes(exec->SerializedSize(true));
      WalkElem elem;
      elem.rule_id = exec->rule_id;
      elem.loc = exec->rloc;
      for (const Vid& v : exec->vids) {
        const Tuple* st = recorder_->TuplesAt(exec->rloc).Find(v);
        if (st == nullptr) {
          return Status::NotFound("unresolvable slow-tuple vid " +
                                  v.ToHex(4));
        }
        a.TouchEntries(1);
        a.FetchBytes(st->SerializedSize());
        elem.slow.push_back(*st);
      }
      out.emplace_back(std::move(elem), exec->next);
    }
    return Status::OK();
  };

  QueryResult res;
  for (const ProvEntry* prov : prov_rows) {
    // §5.6: the EVID rides along with the query.
    if (evid != nullptr && prov->evid != *evid) continue;
    Vid target_evid = prov->evid;
    std::vector<WalkElem> chain;
    Status st = WalkNextChain(
        rows_for_rid, prov->rule, acct, chain, 0,
        [&](const std::vector<WalkElem>& full) -> Status {
          const WalkElem& leaf = full.back();
          // Retrieve the event tuple materialized at the leaf node using
          // the tagged EVID; absence means this branch belongs to another
          // equivalence class (Theorem 5's filter).
          const Tuple* event =
              recorder_->EventsAt(leaf.loc).Find(target_evid);
          if (event == nullptr) return Status::OK();
          acct.TouchEntries(1);
          acct.FetchBytes(event->SerializedSize());
          Result<ProvTree> tree = ReconstructTree(full, *event, output,
                                                  *program_, *fns_, acct);
          if (tree.ok()) {
            res.trees.push_back(std::move(tree).value());
          } else if (!tree.status().IsNotFound()) {
            return tree.status();
          }
          return Status::OK();
        });
    DPC_RETURN_NOT_OK(st);
  }
  acct.ReturnToQuerier();

  SortAndDedupTrees(res.trees);

  if (res.trees.empty()) {
    return Status::NotFound("no derivation found for " + output.ToString());
  }
  acct.FillResult(res);
  return res;
}

}  // namespace dpc
