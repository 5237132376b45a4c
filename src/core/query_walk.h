// The provenance-query traversal of every scheme, written once: §2.2's
// recursive ExSPAN query, §4's two-step Basic query and §5.6 / Appendix
// E's QUERY/QR for Advanced.
//
// A QueryWalk knows, for its scheme, which rows each step of a query
// reads, what each read costs, which stored values it must not trust and
// how a finished branch becomes a provenance tree. It does not know how
// the steps are scheduled. Two drivers walk it:
//   * ProvenanceQuerier (query.h), a synchronous depth-first walk priced
//     by an analytic cost model;
//   * DistributedQuerier (distributed_query.h), which ships each step as a
//     kQuery frame over the simulated network.
// Both therefore return the same trees, entries and bytes for the same
// stored rows.
//
// The walk has one of two shapes:
//   * materialized (ExSPAN): a tuple's prov rows name the rule executions
//     that derived it, and each execution names the tuple it consumed,
//     down to a base tuple. Trees are assembled from the stored tuples.
//   * chain (Basic, Advanced, Advanced+InterClass): the output's prov rows
//     name the first row of a compact ruleExec chain, and each row names
//     the next, down to a leaf whose input event is materialized at its
//     node. Trees are re-derived bottom-up from that event (§4 step 2).
//
// Stored rows are not trusted, because they may come from disk or peers.
// Every node id read from a row is checked against the topology before
// any table or link is touched: a row naming an unknown node fails the
// query with Internal, and so does a walk deeper than kMaxQueryDepth (a
// cyclic chain). A query target outside the topology is InvalidArgument.
// None of these ever aborts the process.
#ifndef DPC_CORE_QUERY_WALK_H_
#define DPC_CORE_QUERY_WALK_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/advanced_recorder.h"
#include "src/core/basic_recorder.h"
#include "src/core/exspan_recorder.h"
#include "src/core/tree.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/program.h"
#include "src/net/topology.h"
#include "src/util/result.h"

namespace dpc {

// Deterministically re-executes `rule` for reconstruction: the event atom
// binds against `event`, the i-th condition atom binds against
// `slow_tuples[i]`, assignments and constraints apply, and the head is
// instantiated. Fails when the recorded tuples do not actually satisfy the
// rule (used to prune spurious branches in shared-storage traversals).
Result<Tuple> ReExecuteRule(const Rule& rule, const Tuple& event,
                            const std::vector<Tuple>& slow_tuples,
                            const FunctionRegistry& fns);

// Orders `trees` by their serialized bytes and drops duplicates (the same
// derivation reached through different branches). Serializes each tree
// once rather than once per comparison.
void SortAndDedupTrees(std::vector<ProvTree>& trees);

// The deepest derivation a query follows before it declares the stored
// rows cyclic.
inline constexpr size_t kMaxQueryDepth = 100000;

// Receives the cost of every read a walk step makes: `entries` rows or
// tuples fetched and `bytes`, their serialized size.
class QueryMeter {
 public:
  virtual void Charge(size_t entries, size_t bytes) = 0;

 protected:
  ~QueryMeter() = default;
};

// An immutable list shared by the branches of one query: the head is the
// step nearest the leaf and `parent` leads back toward the queried output.
// A fan-out pushes one node per branch onto the shared prefix instead of
// copying it, and the leaf walks head to root once, the bottom-up order
// reconstruction needs.
template <typename Step>
struct StepList {
  StepList(Step s, std::shared_ptr<const StepList> p)
      : step(std::move(s)),
        parent(std::move(p)),
        depth(parent ? parent->depth + 1 : 1) {}
  // Releases an exclusively owned tail iteratively: one nested destructor
  // per node would overflow the stack on a chain near kMaxQueryDepth.
  ~StepList() {
    std::shared_ptr<const StepList> tail = std::move(parent);
    while (tail && tail.use_count() == 1) {
      // Sole owner, and nodes are allocated non-const (PushStep): detach
      // the next node before this one dies.
      tail = std::move(const_cast<StepList&>(*tail).parent);
    }
  }

  Step step;
  std::shared_ptr<const StepList> parent;
  size_t depth;
};
template <typename Step>
using StepListPtr = std::shared_ptr<const StepList<Step>>;

template <typename Step>
StepListPtr<Step> PushStep(StepListPtr<Step> parent, Step step) {
  return std::make_shared<StepList<Step>>(std::move(step), std::move(parent));
}

template <typename Step>
size_t PathDepth(const StepListPtr<Step>& list) {
  return list ? list->depth : 0;
}

// One stored rule execution, resolved: the rule, the node it ran at and
// the slow-changing tuples it joined, in body order.
struct WalkRow {
  std::string rule_id;
  NodeId loc = kNullNode;
  std::vector<Tuple> slow;
  // Chain shape: the next row toward the leaf; Null at the leaf.
  NodeRid next;
  // ExSPAN: the tuple the execution consumed. Basic leaf: the input event.
  Vid vid{};
};

using ChainPath = StepListPtr<WalkRow>;   // chain rows above a leaf
using TuplePath = StepListPtr<ProvStep>;  // ExSPAN steps above a tuple

// Where one chain starts: its first row, and the EVID the output's prov
// row tagged it with (Advanced; §5.6 ships it along with the query).
struct ChainRoot {
  NodeRid at;
  Vid evid{};
};

class QueryWalk {
 public:
  static QueryWalk ForExspan(const ExspanRecorder* recorder,
                             const Topology* topology);
  static QueryWalk ForBasic(const BasicRecorder* recorder,
                            const Program* program,
                            const FunctionRegistry* fns,
                            const Topology* topology);
  static QueryWalk ForAdvanced(const AdvancedRecorder* recorder,
                               const Program* program,
                               const FunctionRegistry* fns,
                               const Topology* topology);

  const Topology& topology() const { return *topology_; }
  // True for ExSPAN's shape, false for the chain shape.
  bool materialized() const { return layout_ == Layout::kExspan; }

  // Every query starts here: InvalidArgument unless `output` lives on a
  // node of the topology.
  Status CheckTarget(const Tuple& output) const;

  // Materialized shape: the tuple `vid` stored at `loc`, `depth` steps
  // below the output, and in `rules` the rule executions that derived it
  // (Null for a base tuple).
  Result<const Tuple*> ReadTuple(const Vid& vid, NodeId loc, size_t depth,
                                 QueryMeter& meter,
                                 std::vector<NodeRid>& rules) const;

  // Materialized shape: the tree ending in the base tuple `base`, with
  // `above` the steps from it up to the output. Nullopt when the output
  // itself is the base or `evid` names another event.
  std::optional<ProvTree> BaseTree(const Tuple& base, const TuplePath& above,
                                   const Vid* evid) const;

  // Chain shape: the first rows of the chains that derived `output`,
  // restricted to `evid` when prov rows are tagged with EVIDs. NotFound
  // when nothing is stored for `output`.
  Status ReadRoots(const Tuple& output, const Vid* evid, QueryMeter& meter,
                   std::vector<ChainRoot>& roots) const;

  // Both shapes: the rule executions stored at `at`, `depth` steps below
  // the output. NotFound when `at` dangles.
  Status ReadRule(const NodeRid& at, size_t depth, QueryMeter& meter,
                  std::vector<WalkRow>& rows) const;

  // Chain shape: the input event of the chain ending in `leaf`, or null
  // when the branch belongs to another event (Basic: `evid` at the leaf;
  // Advanced: `root_evid`, absent from other classes' leaves, Theorem 5).
  const Tuple* LeafEvent(const WalkRow& leaf, const Vid& root_evid,
                         const Vid* evid, QueryMeter& meter) const;

  // Chain shape: re-executes `chain` bottom-up from `event` and appends
  // the tree to `trees` when it derives `output` (a spurious branch of
  // shared storage does not). Returns how many rules it re-executed.
  Result<size_t> Reconstruct(const ChainPath& chain, const Tuple& event,
                             const Tuple& output,
                             std::vector<ProvTree>& trees) const;

  // The query's answer: `trees` sorted and deduplicated, or NotFound when
  // none is left.
  Status Finish(const Tuple& output, std::vector<ProvTree>& trees) const;

 private:
  enum class Layout { kExspan, kBasic, kAdvanced };

  // The recorder's tables at one node; the §5.4 split tables are set only
  // under inter-class sharing.
  struct Tables {
    const ProvTable* prov = nullptr;
    const RuleExecTable* rule_exec = nullptr;
    const RuleExecNodeTable* exec_nodes = nullptr;
    const RuleExecLinkTable* exec_links = nullptr;
    const TupleStore* tuples = nullptr;
    const TupleStore* events = nullptr;
  };

  QueryWalk(Layout layout, std::function<Tables(NodeId)> tables,
            const Program* program, const FunctionRegistry* fns,
            const Topology* topology);

  // The tables every recorder keeps at node `n`.
  template <typename Recorder>
  static Tables TablesAt(const Recorder& recorder, NodeId n);

  Status CheckRowNode(NodeId node) const;
  Status AddRow(const std::string& rule_id, NodeId loc,
                const std::vector<Vid>& vids, const NodeRid& next,
                bool names_vid, QueryMeter& meter,
                std::vector<WalkRow>& rows) const;

  Layout layout_;
  std::function<Tables(NodeId)> tables_;
  const Program* program_;
  const FunctionRegistry* fns_;
  const Topology* topology_;
};

}  // namespace dpc

#endif  // DPC_CORE_QUERY_WALK_H_
