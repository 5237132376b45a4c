#include "src/core/query_walk.h"

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
  if (trees.size() < 2) return;  // already sorted, nothing to drop
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

Status CheckDepth(size_t depth) {
  if (depth > kMaxQueryDepth) {
    return Status::Internal("provenance walk exceeded depth limit " +
                            std::to_string(kMaxQueryDepth));
  }
  return Status::OK();
}

}  // namespace

QueryWalk::QueryWalk(Layout layout, std::function<Tables(NodeId)> tables,
                     const Program* program, const FunctionRegistry* fns,
                     const Topology* topology)
    : layout_(layout),
      tables_(std::move(tables)),
      program_(program),
      fns_(fns),
      topology_(topology) {
  DPC_CHECK(topology_ != nullptr);
  if (layout_ != Layout::kExspan) {
    DPC_CHECK(program_ != nullptr);
    DPC_CHECK(fns_ != nullptr);
  }
}

template <typename Recorder>
QueryWalk::Tables QueryWalk::TablesAt(const Recorder& recorder, NodeId n) {
  Tables t;
  t.prov = &recorder.ProvAt(n);
  t.rule_exec = &recorder.RuleExecAt(n);
  t.tuples = &recorder.TuplesAt(n);
  t.events = &recorder.EventsAt(n);
  return t;
}

QueryWalk QueryWalk::ForExspan(const ExspanRecorder* recorder,
                               const Topology* topology) {
  DPC_CHECK(recorder != nullptr);
  return QueryWalk(
      Layout::kExspan,
      [recorder](NodeId n) { return TablesAt(*recorder, n); }, nullptr,
      nullptr, topology);
}

QueryWalk QueryWalk::ForBasic(const BasicRecorder* recorder,
                              const Program* program,
                              const FunctionRegistry* fns,
                              const Topology* topology) {
  DPC_CHECK(recorder != nullptr);
  return QueryWalk(
      Layout::kBasic, [recorder](NodeId n) { return TablesAt(*recorder, n); },
      program, fns, topology);
}

QueryWalk QueryWalk::ForAdvanced(const AdvancedRecorder* recorder,
                                 const Program* program,
                                 const FunctionRegistry* fns,
                                 const Topology* topology) {
  DPC_CHECK(recorder != nullptr);
  return QueryWalk(
      Layout::kAdvanced,
      [recorder](NodeId n) {
        Tables t = TablesAt(*recorder, n);
        if (recorder->inter_class_sharing()) {
          t.exec_nodes = &recorder->RuleExecNodesAt(n);
          t.exec_links = &recorder->RuleExecLinksAt(n);
        }
        return t;
      },
      program, fns, topology);
}

Status QueryWalk::CheckTarget(const Tuple& output) const {
  NodeId loc = output.Location();
  if (loc < 0 || loc >= topology_->num_nodes()) {
    return Status::InvalidArgument(
        "query target " + output.ToString() + " is not on a node of the " +
        std::to_string(topology_->num_nodes()) + "-node topology");
  }
  return Status::OK();
}

Status QueryWalk::CheckRowNode(NodeId node) const {
  if (node < 0 || node >= topology_->num_nodes()) {
    return Status::Internal("stored provenance row names node " +
                            std::to_string(node) + " outside the " +
                            std::to_string(topology_->num_nodes()) +
                            "-node topology");
  }
  return Status::OK();
}

Result<const Tuple*> QueryWalk::ReadTuple(const Vid& vid, NodeId loc,
                                          size_t depth, QueryMeter& meter,
                                          std::vector<NodeRid>& rules) const {
  DPC_RETURN_NOT_OK(CheckDepth(depth));
  Tables t = tables_(loc);
  const Tuple* tuple = t.tuples->Find(vid);
  if (tuple == nullptr) tuple = t.events->Find(vid);
  if (tuple == nullptr) {
    return Status::NotFound("no materialized tuple for vid " +
                            vid.ToHex(4) + " at node " + std::to_string(loc));
  }
  meter.Charge(1, tuple->SerializedSize());
  std::vector<const ProvEntry*> prov = t.prov->FindByVid(vid);
  if (prov.empty()) {
    return Status::NotFound("no prov entry for vid " + vid.ToHex(4) +
                            " at node " + std::to_string(loc));
  }
  meter.Charge(prov.size(), prov.size() * prov[0]->SerializedSize(false));
  for (const ProvEntry* row : prov) {
    // A Null rule marks a base tuple: a derivation leaf.
    if (!row->rule.IsNull()) DPC_RETURN_NOT_OK(CheckRowNode(row->rule.loc));
    rules.push_back(row->rule);
  }
  return tuple;
}

std::optional<ProvTree> QueryWalk::BaseTree(const Tuple& base,
                                            const TuplePath& above,
                                            const Vid* evid) const {
  if (above == nullptr) return std::nullopt;  // the output is never a base
  if (evid != nullptr && base.Vid() != *evid) return std::nullopt;
  std::vector<ProvStep> steps;  // leaf first
  steps.reserve(above->depth);
  for (const StepList<ProvStep>* node = above.get(); node != nullptr;
       node = node->parent.get()) {
    steps.push_back(node->step);
  }
  return ProvTree(base, std::move(steps));
}

Status QueryWalk::ReadRoots(const Tuple& output, const Vid* evid,
                            QueryMeter& meter,
                            std::vector<ChainRoot>& roots) const {
  bool tagged = layout_ == Layout::kAdvanced;
  std::vector<const ProvEntry*> prov =
      tables_(output.Location()).prov->FindByVid(output.Vid());
  if (prov.empty()) {
    return Status::NotFound("no prov entry for " + output.ToString());
  }
  meter.Charge(prov.size(), prov.size() * prov[0]->SerializedSize(tagged));
  for (const ProvEntry* row : prov) {
    DPC_RETURN_NOT_OK(CheckRowNode(row->rule.loc));
    if (tagged && evid != nullptr && row->evid != *evid) continue;
    roots.push_back(ChainRoot{row->rule, row->evid});
  }
  return Status::OK();
}

Status QueryWalk::ReadRule(const NodeRid& at, size_t depth, QueryMeter& meter,
                           std::vector<WalkRow>& rows) const {
  DPC_RETURN_NOT_OK(CheckDepth(depth));
  Tables t = tables_(at.loc);
  if (t.exec_links != nullptr) {
    // §5.4: one node row per execution, one link row per tree edge.
    const RuleExecNodeEntry* node = t.exec_nodes->FindByRid(at.rid);
    if (node != nullptr) {
      for (const RuleExecLinkEntry* link : t.exec_links->FindByRid(at.rid)) {
        meter.Charge(2, node->SerializedSize() + link->SerializedSize());
        DPC_RETURN_NOT_OK(AddRow(node->rule_id, node->rloc, node->vids,
                                 link->next, false, meter, rows));
      }
    }
  } else {
    for (const RuleExecEntry* exec : t.rule_exec->FindByRid(at.rid)) {
      meter.Charge(1, exec->SerializedSize(layout_ != Layout::kExspan));
      // vids[0] is the tuple an ExSPAN execution consumed, and the input
      // event of a Basic leaf (Table 2's rid1); the rest are slow tuples.
      bool names_vid = layout_ == Layout::kExspan ||
                       (layout_ == Layout::kBasic && exec->next.IsNull());
      DPC_RETURN_NOT_OK(AddRow(exec->rule_id, exec->rloc, exec->vids,
                               exec->next, names_vid, meter, rows));
    }
  }
  if (rows.empty()) {
    return Status::NotFound("dangling RID " + at.rid.ToHex(4) + " at node " +
                            std::to_string(at.loc));
  }
  return Status::OK();
}

Status QueryWalk::AddRow(const std::string& rule_id, NodeId loc,
                         const std::vector<Vid>& vids, const NodeRid& next,
                         bool names_vid, QueryMeter& meter,
                         std::vector<WalkRow>& rows) const {
  DPC_RETURN_NOT_OK(CheckRowNode(loc));
  if (!next.IsNull()) DPC_RETURN_NOT_OK(CheckRowNode(next.loc));
  WalkRow row;
  row.rule_id = rule_id;
  row.loc = loc;
  row.next = next;
  size_t first_slow = 0;
  if (names_vid) {
    if (vids.empty()) {
      return Status::Internal("ruleExec row of rule " + rule_id +
                              " names no tuple");
    }
    row.vid = vids[0];
    first_slow = 1;
  }
  const TupleStore& tuples = *tables_(loc).tuples;
  for (size_t i = first_slow; i < vids.size(); ++i) {
    const Tuple* st = tuples.Find(vids[i]);
    if (st == nullptr) {
      return Status::NotFound("unresolvable slow-tuple vid " +
                              vids[i].ToHex(4));
    }
    meter.Charge(1, st->SerializedSize());
    row.slow.push_back(*st);
  }
  rows.push_back(std::move(row));
  return Status::OK();
}

const Tuple* QueryWalk::LeafEvent(const WalkRow& leaf, const Vid& root_evid,
                                  const Vid* evid, QueryMeter& meter) const {
  const Vid* event_vid = &root_evid;
  if (layout_ == Layout::kBasic) {
    if (evid != nullptr && leaf.vid != *evid) return nullptr;
    event_vid = &leaf.vid;
  }
  const Tuple* event = tables_(leaf.loc).events->Find(*event_vid);
  if (event != nullptr) meter.Charge(1, event->SerializedSize());
  return event;
}

Result<size_t> QueryWalk::Reconstruct(const ChainPath& chain,
                                      const Tuple& event, const Tuple& output,
                                      std::vector<ProvTree>& trees) const {
  ProvTree tree;
  tree.set_event(event);
  Tuple current = event;
  size_t rederived = 0;
  for (const StepList<WalkRow>* node = chain.get(); node != nullptr;
       node = node->parent.get()) {
    const WalkRow& row = node->step;
    const Rule* rule = program_->FindRule(row.rule_id);
    if (rule == nullptr) {
      return Status::Internal("recorded unknown rule id " + row.rule_id);
    }
    ++rederived;
    Result<Tuple> head = ReExecuteRule(*rule, current, row.slow, *fns_);
    // A spurious branch of shared storage: the recorded tuples do not
    // apply to this event.
    if (!head.ok()) return rederived;
    tree.AppendStep(ProvStep{row.rule_id, *head, row.slow});
    current = *head;
  }
  if (tree.Output() == output) trees.push_back(std::move(tree));
  return rederived;
}

Status QueryWalk::Finish(const Tuple& output,
                         std::vector<ProvTree>& trees) const {
  SortAndDedupTrees(trees);
  if (trees.empty()) {
    return Status::NotFound("no derivation found for " + output.ToString());
  }
  return Status::OK();
}

}  // namespace dpc
