#include "src/core/query.h"

#include "src/util/logging.h"

namespace dpc {

namespace {

// Latency / traffic bookkeeping for one query execution.
class Accounting final : public QueryMeter {
 public:
  Accounting(const Topology* topo, const QueryCostModel* cost, NodeId start)
      : topo_(topo), cost_(cost), pos_(start), querier_(start) {}

  void Charge(size_t entries, size_t bytes) override {
    entries_ += entries;
    latency_ += static_cast<double>(entries) * cost_->per_entry_s;
    bytes_ += bytes;
    carried_ += bytes;
    latency_ += static_cast<double>(bytes) * cost_->per_processed_byte_s;
  }

  void Rederive(size_t n) {
    for (; n > 0; --n) latency_ += cost_->per_rederivation_s;
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

// ExSPAN: depth-first over tuples and the rule executions that derived
// them. The cursor visits each tuple's node, then each execution's node,
// and never walks back.
Status WalkTuples(const QueryWalk& walk, const Tuple& output, const Vid* evid,
                  Accounting& acct, std::vector<ProvTree>& trees) {
  // Read the tuple `vid` at `loc` (`rule` Null), or expand the rule
  // execution `rule` that derived `derived`. `above` holds the steps
  // between the visit and the output.
  struct Visit {
    NodeRid rule;
    NodeId loc = kNullNode;
    Vid vid{};
    const Tuple* derived = nullptr;
    TuplePath above;
  };
  std::vector<Visit> stack;
  stack.push_back(Visit{NodeRid::Null(), output.Location(), output.Vid(),
                        nullptr, nullptr});
  std::vector<NodeRid> rules;
  std::vector<WalkRow> rows;
  while (!stack.empty()) {
    Visit v = std::move(stack.back());
    stack.pop_back();
    size_t depth = PathDepth(v.above);
    if (!v.rule.IsNull()) {
      acct.MoveTo(v.rule.loc);
      rows.clear();
      DPC_RETURN_NOT_OK(walk.ReadRule(v.rule, depth, acct, rows));
      for (size_t i = rows.size(); i-- > 0;) {
        WalkRow& row = rows[i];
        stack.push_back(Visit{
            NodeRid::Null(), row.loc, row.vid, nullptr,
            PushStep(v.above, ProvStep{std::move(row.rule_id), *v.derived,
                                       std::move(row.slow)})});
      }
      continue;
    }
    acct.MoveTo(v.loc);
    rules.clear();
    DPC_ASSIGN_OR_RETURN(const Tuple* tuple,
                         walk.ReadTuple(v.vid, v.loc, depth, acct, rules));
    for (size_t i = rules.size(); i-- > 0;) {
      if (!rules[i].IsNull()) {
        stack.push_back(Visit{rules[i], kNullNode, {}, tuple, v.above});
      } else if (auto tree = walk.BaseTree(*tuple, v.above, evid)) {
        trees.push_back(std::move(*tree));
      }
    }
  }
  return Status::OK();
}

// Chain schemes: depth-first along each chain. Every row of a RID is read
// before the walk descends, and the cursor returns to a row's node after
// each of its sub-chains; leaves are reconstructed where they are reached.
Status WalkChains(const QueryWalk& walk, const Tuple& output, const Vid* evid,
                  Accounting& acct, std::vector<ProvTree>& trees) {
  std::vector<ChainRoot> roots;
  DPC_RETURN_NOT_OK(walk.ReadRoots(output, evid, acct, roots));
  // Read the rows at `at` below `chain`, reconstruct the finished `chain`,
  // or move the cursor back to `at.loc`.
  enum class Kind { kRead, kLeaf, kReturn };
  struct Visit {
    Kind kind;
    NodeRid at;
    ChainPath chain;
    Vid root_evid{};
  };
  std::vector<Visit> stack;
  for (size_t i = roots.size(); i-- > 0;) {
    stack.push_back(Visit{Kind::kRead, roots[i].at, nullptr, roots[i].evid});
  }
  std::vector<WalkRow> rows;
  while (!stack.empty()) {
    Visit v = std::move(stack.back());
    stack.pop_back();
    switch (v.kind) {
      case Kind::kReturn:
        acct.MoveTo(v.at.loc);
        break;
      case Kind::kLeaf: {
        const Tuple* event =
            walk.LeafEvent(v.chain->step, v.root_evid, evid, acct);
        if (event == nullptr) break;
        DPC_ASSIGN_OR_RETURN(size_t rederived,
                             walk.Reconstruct(v.chain, *event, output, trees));
        acct.Rederive(rederived);
        break;
      }
      case Kind::kRead:
        acct.MoveTo(v.at.loc);
        rows.clear();
        DPC_RETURN_NOT_OK(walk.ReadRule(v.at, PathDepth(v.chain), acct, rows));
        for (size_t i = rows.size(); i-- > 0;) {
          ChainPath chain = PushStep(v.chain, std::move(rows[i]));
          NodeRid next = chain->step.next;
          if (next.IsNull()) {
            stack.push_back(Visit{Kind::kLeaf, next, std::move(chain),
                                  v.root_evid});
          } else {
            stack.push_back(Visit{Kind::kReturn, v.at, nullptr});
            stack.push_back(
                Visit{Kind::kRead, next, std::move(chain), v.root_evid});
          }
        }
        break;
    }
  }
  return Status::OK();
}

}  // namespace

ProvenanceQuerier::ProvenanceQuerier(QueryWalk walk, QueryCostModel cost)
    : walk_(std::move(walk)), cost_(cost) {}

Result<QueryResult> ProvenanceQuerier::Query(const Tuple& output,
                                             const Vid* evid) {
  DPC_RETURN_NOT_OK(walk_.CheckTarget(output));
  Accounting acct(&walk_.topology(), &cost_, output.Location());
  QueryResult res;
  DPC_RETURN_NOT_OK(walk_.materialized()
                        ? WalkTuples(walk_, output, evid, acct, res.trees)
                        : WalkChains(walk_, output, evid, acct, res.trees));
  acct.ReturnToQuerier();
  DPC_RETURN_NOT_OK(walk_.Finish(output, res.trees));
  acct.FillResult(res);
  return res;
}

ExspanQuerier::ExspanQuerier(const ExspanRecorder* recorder,
                             const Topology* topology, QueryCostModel cost)
    : ProvenanceQuerier(QueryWalk::ForExspan(recorder, topology), cost) {}

BasicQuerier::BasicQuerier(const BasicRecorder* recorder,
                           const Program* program,
                           const FunctionRegistry* fns,
                           const Topology* topology, QueryCostModel cost)
    : ProvenanceQuerier(QueryWalk::ForBasic(recorder, program, fns, topology),
                        cost) {}

AdvancedQuerier::AdvancedQuerier(const AdvancedRecorder* recorder,
                                 const Program* program,
                                 const FunctionRegistry* fns,
                                 const Topology* topology,
                                 QueryCostModel cost)
    : ProvenanceQuerier(
          QueryWalk::ForAdvanced(recorder, program, fns, topology), cost) {}

}  // namespace dpc
