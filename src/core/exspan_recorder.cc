#include "src/core/exspan_recorder.h"

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace dpc {

ExspanRecorder::ExspanRecorder(int num_nodes)
    : rule_exec_rows_counter_(
          &GlobalMetrics().GetCounter("recorder.exspan.rule_exec_rows")) {
  nodes_.resize(num_nodes);
}

Rid ExspanRecorder::MakeRid(const std::string& rule_id, NodeId loc,
                            const std::vector<Vid>& vids) {
  ByteWriter w;
  w.PutString("exspan-rid");
  w.PutString(rule_id);
  w.PutU32(static_cast<uint32_t>(loc));
  for (const Vid& v : vids) w.PutDigest(v);
  return Sha1::Hash(w.bytes().data(), w.size());
}

ProvMeta ExspanRecorder::OnInject(NodeId node, const TupleRef& event) {
  ProvMeta meta;
  meta.evid = event->Vid();
  NodeState& state = nodes_[node];
  state.events.Put(event);
  // Input events are base tuples of the derivation: NULL rule reference.
  state.prov.Insert(ProvEntry{node, meta.evid, NodeRid::Null(), Vid{}});
  return meta;
}

bool ExspanRecorder::OnSlowInsert(NodeId node, const TupleRef& t) {
  NodeState& state = nodes_[node];
  state.tuples.Put(t);
  state.prov.Insert(ProvEntry{node, t->Vid(), NodeRid::Null(), Vid{}});
  return false;  // no sig broadcast in ExSPAN
}

ProvMeta ExspanRecorder::OnRuleFired(NodeId node, const Rule& rule,
                                     const TupleRef& event,
                                     const ProvMeta& meta,
                                     const std::vector<TupleRef>& slow,
                                     const TupleRef& head) {
  NodeState& state = nodes_[node];

  std::vector<Vid> vids;
  vids.reserve(slow.size() + 1);
  vids.push_back(event->Vid());
  for (const TupleRef& t : slow) vids.push_back(t->Vid());

  Rid rid = MakeRid(rule.id, node, vids);
  state.rule_exec.Insert(RuleExecEntry{node, rid, rule.id, vids,
                                       NodeRid::Null()});
  rule_exec_rows_counter_->IncrementAt(node);
  // The event that triggered this rule is materialized here (it is either
  // the locally injected input or an intermediate tuple shipped to us).
  state.tuples.Put(event);

  // The head's prov row lives at the head's location; the runtime ships
  // (RLoc, RID) with the head tuple in the metadata, and the row
  // materializes when the tuple arrives (OnArrival / OnOutput) — at the
  // head's node, on the head's shard. Writing nodes_[head_loc] from here
  // would be a cross-shard race under the parallel runtime.
  ProvMeta out = meta;
  out.prev = NodeRid{node, rid};
  return out;
}

void ExspanRecorder::OnArrival(NodeId node, const TupleRef& tuple,
                               const ProvMeta& meta) {
  NodeState& state = nodes_[node];
  state.prov.Insert(ProvEntry{node, tuple->Vid(), meta.prev, Vid{}});
  state.tuples.Put(tuple);
}

void ExspanRecorder::OnOutput(NodeId node, const TupleRef& output,
                              const ProvMeta& meta) {
  // Terminal heads reach here both via local derivation and via the
  // network (HandleMessage routes non-event arrivals to EmitOutput), so
  // the shipped (RLoc, RID) row is written exactly once.
  NodeState& state = nodes_[node];
  state.prov.Insert(ProvEntry{node, output->Vid(), meta.prev, Vid{}});
  state.tuples.Put(output);
}

void ExspanRecorder::SerializeMeta(const ProvMeta& meta,
                                   ByteWriter& w) const {
  // ExSPAN ships the deriving rule execution's (RLoc, RID) with each tuple.
  meta.prev.Serialize(w);
}

Result<ProvMeta> ExspanRecorder::DeserializeMeta(ByteReader& r) const {
  ProvMeta meta;
  DPC_ASSIGN_OR_RETURN(meta.prev, NodeRid::Deserialize(r));
  return meta;
}

NodeSnapshot ExspanRecorder::SnapshotAt(NodeId node) const {
  const NodeState& state = nodes_[node];
  return SnapshotTables(node, state.prov, /*prov_with_evid=*/false,
                        state.rule_exec, /*rule_exec_with_next=*/false,
                        state.events, state.tuples);
}

void ExspanRecorder::SerializeNodeState(NodeId node, ByteWriter& w) const {
  SnapshotAt(node).Serialize(w);
}

Status ExspanRecorder::RestoreNodeState(NodeId node, ByteReader& r) {
  DPC_ASSIGN_OR_RETURN(NodeSnapshot snap, NodeSnapshot::Deserialize(r));
  if (snap.node != node) {
    return Status::InvalidArgument("snapshot is for node " +
                                   std::to_string(snap.node));
  }
  if (snap.prov_with_evid || snap.rule_exec_with_next) {
    return Status::InvalidArgument("snapshot schema is not ExSPAN's");
  }
  DPC_ASSIGN_OR_RETURN(RestoredTables tables, RestoreTables(snap));
  NodeState& state = nodes_[node];
  state.prov = std::move(tables.prov);
  state.rule_exec = std::move(tables.rule_exec);
  state.events = std::move(tables.events);
  state.tuples = std::move(tables.tuples);
  return Status::OK();
}

StorageBreakdown ExspanRecorder::StorageAt(NodeId node) const {
  const NodeState& state = nodes_[node];
  StorageBreakdown s;
  s.prov = state.prov.SerializedBytes();
  s.rule_exec = state.rule_exec.SerializedBytes();
  s.event_store = state.events.SerializedBytes();
  s.tuple_store = state.tuples.SerializedBytes();
  return s;
}

}  // namespace dpc
