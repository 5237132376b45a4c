// BasicRecorder: the §4 storage optimization. Provenance rows for
// intermediate event tuples are not materialized; instead each ruleExec row
// carries (NLoc, NRID) pointing at the previous rule execution, and only
// output tuples of the relations of interest get prov rows. Intermediate
// tuples are re-derived at query time by bottom-up rule re-execution
// (§4 step 2).
//
// RIDs hash the rule id, firing location and *all* body tuple VIDs
// (including the triggering event), so every firing's row is unique and
// (RLoc, RID) is a primary key — the uniqueness property Lemma 6 relies on.
// The VIDS column, however, only stores what reconstruction needs: the
// slow-changing tuples, plus the input event VID on the first (leaf) rule.
#ifndef DPC_CORE_BASIC_RECORDER_H_
#define DPC_CORE_BASIC_RECORDER_H_

#include <string>
#include <vector>

#include "src/core/recorder.h"
#include "src/core/snapshot.h"
#include "src/ndlog/program.h"

namespace dpc {

class Counter;  // src/obs/metrics.h

class BasicRecorder : public ProvenanceRecorder {
 public:
  BasicRecorder(const Program* program, int num_nodes);

  std::string name() const override { return "Basic"; }

  ProvMeta OnInject(NodeId node, const TupleRef& event) override;
  ProvMeta OnRuleFired(NodeId node, const Rule& rule, const TupleRef& event,
                       const ProvMeta& meta,
                       const std::vector<TupleRef>& slow,
                       const TupleRef& head) override;
  void OnOutput(NodeId node, const TupleRef& output,
                const ProvMeta& meta) override;

  void SerializeMeta(const ProvMeta& meta, ByteWriter& w) const override;
  Result<ProvMeta> DeserializeMeta(ByteReader& r) const override;

  StorageBreakdown StorageAt(NodeId node) const override;

  // --- table access for the query engine ---
  const ProvTable& ProvAt(NodeId node) const { return nodes_[node].prov; }
  const RuleExecTable& RuleExecAt(NodeId node) const {
    return nodes_[node].rule_exec;
  }
  const TupleStore& TuplesAt(NodeId node) const { return nodes_[node].tuples; }
  const TupleStore& EventsAt(NodeId node) const { return nodes_[node].events; }

  // Portable snapshot of this node's tables (checkpoint/restore).
  NodeSnapshot SnapshotAt(NodeId node) const;

  // Durability: the node state is exactly the snapshot tables.
  bool SupportsNodeState() const override { return true; }
  void SerializeNodeState(NodeId node, ByteWriter& w) const override;
  Status RestoreNodeState(NodeId node, ByteReader& r) override;

  static Rid MakeRid(const std::string& rule_id, NodeId loc,
                     const Vid& event_vid, const std::vector<Vid>& slow_vids);

 private:
  struct NodeState {
    NodeState() : prov(/*with_evid=*/false), rule_exec(/*with_next=*/true) {}
    ProvTable prov;
    RuleExecTable rule_exec;
    TupleStore tuples;  // slow-changing tuples referenced by VIDS
    TupleStore events;  // input events injected here
  };

  const Program* program_;
  std::vector<NodeState> nodes_;
  // "recorder.basic.*" counters, resolved once at construction.
  Counter* rule_exec_rows_counter_;
  Counter* prov_rows_counter_;
};

}  // namespace dpc

#endif  // DPC_CORE_BASIC_RECORDER_H_
