// ExSPANRecorder: the uncompressed baseline (§2.2, Table 1). Every rule
// firing produces a ruleExec row at the firing node; every tuple — input
// event, intermediate event, output, and base — gets a prov row at its
// location (NULL rule reference for base/input tuples). Tuple contents its
// hash-only rows refer to are materialized per node so queries can resolve
// VIDs.
#ifndef DPC_CORE_EXSPAN_RECORDER_H_
#define DPC_CORE_EXSPAN_RECORDER_H_

#include <string>
#include <vector>

#include "src/core/recorder.h"
#include "src/core/snapshot.h"

namespace dpc {

class Counter;  // src/obs/metrics.h

class ExspanRecorder : public ProvenanceRecorder {
 public:
  explicit ExspanRecorder(int num_nodes);

  std::string name() const override { return "ExSPAN"; }

  ProvMeta OnInject(NodeId node, const TupleRef& event) override;
  ProvMeta OnRuleFired(NodeId node, const Rule& rule, const TupleRef& event,
                       const ProvMeta& meta,
                       const std::vector<TupleRef>& slow,
                       const TupleRef& head) override;
  void OnOutput(NodeId node, const TupleRef& output,
                const ProvMeta& meta) override;
  void OnArrival(NodeId node, const TupleRef& tuple,
                 const ProvMeta& meta) override;
  bool OnSlowInsert(NodeId node, const TupleRef& t) override;

  void SerializeMeta(const ProvMeta& meta, ByteWriter& w) const override;
  Result<ProvMeta> DeserializeMeta(ByteReader& r) const override;

  StorageBreakdown StorageAt(NodeId node) const override;

  // --- table access for the query engine ---
  const ProvTable& ProvAt(NodeId node) const { return nodes_[node].prov; }
  const RuleExecTable& RuleExecAt(NodeId node) const {
    return nodes_[node].rule_exec;
  }
  const TupleStore& TuplesAt(NodeId node) const {
    return nodes_[node].tuples;
  }
  const TupleStore& EventsAt(NodeId node) const {
    return nodes_[node].events;
  }

  // Portable snapshot of this node's tables (checkpoint/restore).
  NodeSnapshot SnapshotAt(NodeId node) const;

  // Durability: the node state is exactly the snapshot tables.
  bool SupportsNodeState() const override { return true; }
  void SerializeNodeState(NodeId node, ByteWriter& w) const override;
  Status RestoreNodeState(NodeId node, ByteReader& r) override;

  // The RID scheme of Table 1: sha1 over rule id, firing location, and the
  // VIDs of every body tuple (event first, then conditions in body order).
  static Rid MakeRid(const std::string& rule_id, NodeId loc,
                     const std::vector<Vid>& vids);

 private:
  struct NodeState {
    NodeState()
        : prov(/*with_evid=*/false), rule_exec(/*with_next=*/false) {}
    ProvTable prov;
    RuleExecTable rule_exec;
    TupleStore tuples;  // materialized base/intermediate/output tuples
    TupleStore events;  // materialized input events
  };
  std::vector<NodeState> nodes_;
  // "recorder.exspan.rule_exec_rows", resolved once at construction.
  Counter* rule_exec_rows_counter_;
};

}  // namespace dpc

#endif  // DPC_CORE_EXSPAN_RECORDER_H_
