#include "src/core/basic_recorder.h"

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace dpc {

BasicRecorder::BasicRecorder(const Program* program, int num_nodes)
    : program_(program),
      rule_exec_rows_counter_(
          &GlobalMetrics().GetCounter("recorder.basic.rule_exec_rows")),
      prov_rows_counter_(
          &GlobalMetrics().GetCounter("recorder.basic.prov_rows")) {
  DPC_CHECK(program_ != nullptr);
  nodes_.resize(num_nodes);
}

Rid BasicRecorder::MakeRid(const std::string& rule_id, NodeId loc,
                           const Vid& event_vid,
                           const std::vector<Vid>& slow_vids) {
  ByteWriter w;
  w.PutString("basic-rid");
  w.PutString(rule_id);
  w.PutU32(static_cast<uint32_t>(loc));
  w.PutDigest(event_vid);
  for (const Vid& v : slow_vids) w.PutDigest(v);
  return Sha1::Hash(w.bytes().data(), w.size());
}

ProvMeta BasicRecorder::OnInject(NodeId node, const TupleRef& event) {
  ProvMeta meta;
  meta.evid = event->Vid();
  nodes_[node].events.Put(event);
  return meta;
}

ProvMeta BasicRecorder::OnRuleFired(NodeId node, const Rule& rule,
                                    const TupleRef& event,
                                    const ProvMeta& meta,
                                    const std::vector<TupleRef>& slow,
                                    const TupleRef& head) {
  (void)head;
  NodeState& state = nodes_[node];
  const Vid& event_vid = event->Vid();

  std::vector<Vid> slow_vids;
  slow_vids.reserve(slow.size());
  for (const TupleRef& t : slow) {
    slow_vids.push_back(t->Vid());
    // Keep referenced slow tuples resolvable even if later deleted from the
    // live database (§5.5: deletions do not invalidate provenance).
    state.tuples.Put(t);
  }

  Rid rid = MakeRid(rule.id, node, event_vid, slow_vids);

  // The VIDS column: slow tuples always; the input event only on the leaf
  // (first) rule, where reconstruction bottoms out (Table 2's rid1 row).
  std::vector<Vid> column_vids;
  bool is_leaf = meta.prev.IsNull();
  if (is_leaf) column_vids.push_back(event_vid);
  column_vids.insert(column_vids.end(), slow_vids.begin(), slow_vids.end());

  state.rule_exec.Insert(
      RuleExecEntry{node, rid, rule.id, column_vids, meta.prev});
  rule_exec_rows_counter_->IncrementAt(node);

  ProvMeta out = meta;
  out.prev = NodeRid{node, rid};
  return out;
}

void BasicRecorder::OnOutput(NodeId node, const TupleRef& output,
                             const ProvMeta& meta) {
  if (!program_->IsOfInterest(output->relation())) return;
  if (meta.prev.IsNull()) {
    DPC_LOG(Warning) << "output " << output->ToString()
                     << " emitted without any recorded rule execution";
    return;
  }
  nodes_[node].prov.Insert(
      ProvEntry{node, output->Vid(), meta.prev, Vid{}});
  prov_rows_counter_->IncrementAt(node);
}

void BasicRecorder::SerializeMeta(const ProvMeta& meta, ByteWriter& w) const {
  // Basic ships the previous rule execution's (RLoc, RID) with each event.
  meta.prev.Serialize(w);
}

Result<ProvMeta> BasicRecorder::DeserializeMeta(ByteReader& r) const {
  ProvMeta meta;
  DPC_ASSIGN_OR_RETURN(meta.prev, NodeRid::Deserialize(r));
  return meta;
}

NodeSnapshot BasicRecorder::SnapshotAt(NodeId node) const {
  const NodeState& state = nodes_[node];
  return SnapshotTables(node, state.prov, /*prov_with_evid=*/false,
                        state.rule_exec, /*rule_exec_with_next=*/true,
                        state.events, state.tuples);
}

void BasicRecorder::SerializeNodeState(NodeId node, ByteWriter& w) const {
  SnapshotAt(node).Serialize(w);
}

Status BasicRecorder::RestoreNodeState(NodeId node, ByteReader& r) {
  DPC_ASSIGN_OR_RETURN(NodeSnapshot snap, NodeSnapshot::Deserialize(r));
  if (snap.node != node) {
    return Status::InvalidArgument("snapshot is for node " +
                                   std::to_string(snap.node));
  }
  if (snap.prov_with_evid || !snap.rule_exec_with_next) {
    return Status::InvalidArgument("snapshot schema is not Basic's");
  }
  DPC_ASSIGN_OR_RETURN(RestoredTables tables, RestoreTables(snap));
  NodeState& state = nodes_[node];
  state.prov = std::move(tables.prov);
  state.rule_exec = std::move(tables.rule_exec);
  state.events = std::move(tables.events);
  state.tuples = std::move(tables.tuples);
  return Status::OK();
}

StorageBreakdown BasicRecorder::StorageAt(NodeId node) const {
  const NodeState& state = nodes_[node];
  StorageBreakdown s;
  s.prov = state.prov.SerializedBytes();
  s.rule_exec = state.rule_exec.SerializedBytes();
  s.event_store = state.events.SerializedBytes();
  s.tuple_store = state.tuples.SerializedBytes();
  return s;
}

}  // namespace dpc
