#include "src/core/advanced_recorder.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace dpc {

AdvancedRecorder::AdvancedRecorder(const Program* program,
                                   EquivalenceKeys keys, int num_nodes,
                                   AdvancedOptions options)
    : program_(program), keys_(std::move(keys)), options_(options) {
  DPC_CHECK(program_ != nullptr);
  DPC_CHECK(keys_.event_relation() == program_->input_event_relation());
  nodes_.resize(num_nodes);
  MetricsRegistry& reg = GlobalMetrics();
  metrics_.new_classes = &reg.GetCounter("recorder.advanced.new_classes");
  metrics_.shared_classes =
      &reg.GetCounter("recorder.advanced.shared_classes");
  metrics_.maintenance_skipped =
      &reg.GetCounter("recorder.advanced.maintenance_skipped");
  metrics_.rule_exec_rows =
      &reg.GetCounter("recorder.advanced.rule_exec_rows");
  metrics_.prov_rows = &reg.GetCounter("recorder.advanced.prov_rows");
  metrics_.pending_parked =
      &reg.GetCounter("recorder.advanced.pending_parked");
  metrics_.cache_resets = &reg.GetCounter("recorder.advanced.cache_resets");
}

Rid AdvancedRecorder::MakeRid(const std::string& rule_id,
                              const std::vector<Vid>& slow_vids,
                              uint64_t epoch) {
  ByteWriter w;
  w.PutString("adv-rid");
  w.PutString(rule_id);
  w.PutU64(epoch);
  for (const Vid& v : slow_vids) w.PutDigest(v);
  return Sha1::Hash(w.bytes().data(), w.size());
}

ProvMeta AdvancedRecorder::OnInject(NodeId node, const TupleRef& event) {
  NodeState& state = nodes_[node];
  ProvMeta meta;
  meta.evid = event->Vid();
  meta.eqkey = keys_.HashOf(*event);
  // Stage 1: equivalence keys checking against htequi.
  bool first_in_class = state.htequi.insert(meta.eqkey).second;
  meta.exist_flag = !first_in_class;
  meta.maintain = first_in_class;
  // The compression ratio in one pair of counters: shared-class events
  // skip maintenance entirely.
  (first_in_class ? metrics_.new_classes : metrics_.shared_classes)
      ->IncrementAt(node);
  // The event tuple itself is the per-tree delta (§5.1): always stored.
  state.events.Put(event);
  return meta;
}

void AdvancedRecorder::InsertRuleExecRow(NodeState& state, NodeId node,
                                         const Rid& rid,
                                         const std::string& rule_id,
                                         const std::vector<Vid>& slow_vids,
                                         const NodeRid& next) {
  if (options_.inter_class_sharing) {
    state.exec_nodes.Insert(RuleExecNodeEntry{node, rid, rule_id, slow_vids});
    state.exec_links.Insert(RuleExecLinkEntry{node, rid, next});
  } else {
    state.rule_exec.Insert(
        RuleExecEntry{node, rid, rule_id, slow_vids, next});
  }
}

ProvMeta AdvancedRecorder::OnRuleFired(NodeId node, const Rule& rule,
                                       const TupleRef& /*event*/,
                                       const ProvMeta& meta,
                                       const std::vector<TupleRef>& slow,
                                       const TupleRef& /*head*/) {
  if (!meta.maintain) {
    // Stage 2, existFlag = true: execute without recording anything.
    metrics_.maintenance_skipped->IncrementAt(node);
    return meta;
  }
  NodeState& state = nodes_[node];
  std::vector<Vid> slow_vids;
  slow_vids.reserve(slow.size());
  for (const TupleRef& t : slow) {
    slow_vids.push_back(t->Vid());
    state.tuples.Put(t);
  }
  Rid rid = MakeRid(rule.id, slow_vids, state.epoch);
  InsertRuleExecRow(state, node, rid, rule.id, slow_vids, meta.prev);
  metrics_.rule_exec_rows->IncrementAt(node);

  ProvMeta out = meta;
  out.prev = NodeRid{node, rid};
  return out;
}

void AdvancedRecorder::OnOutput(NodeId node, const TupleRef& output,
                                const ProvMeta& meta) {
  NodeState& state = nodes_[node];
  bool of_interest = program_->IsOfInterest(output->relation());

  if (meta.maintain) {
    // Stage 3, first execution of the class: register the shared tree.
    if (meta.prev.IsNull()) {
      DPC_LOG(Warning) << "output " << output->ToString()
                       << " emitted without any recorded rule execution";
      return;
    }
    state.hmap[meta.eqkey] = meta.prev;
    if (of_interest) {
      state.prov.Insert(
          ProvEntry{node, output->Vid(), meta.prev, meta.evid});
      metrics_.prov_rows->IncrementAt(node);
    }
    // Flush outputs of this class that overtook the shared tree.
    auto it = state.pending.find(meta.eqkey);
    if (it != state.pending.end()) {
      for (const PendingOutput& p : it->second) {
        state.prov.Insert(ProvEntry{node, p.vid, meta.prev, p.evid});
        metrics_.prov_rows->IncrementAt(node);
      }
      state.pending.erase(it);
    }
    return;
  }

  if (!of_interest) return;
  auto ref = state.hmap.find(meta.eqkey);
  if (ref != state.hmap.end()) {
    state.prov.Insert(
        ProvEntry{node, output->Vid(), ref->second, meta.evid});
    metrics_.prov_rows->IncrementAt(node);
  } else {
    // The shared tree's own output has not arrived yet: park the row.
    state.pending[meta.eqkey].push_back(
        PendingOutput{output->Vid(), meta.evid});
    metrics_.pending_parked->IncrementAt(node);
  }
}

bool AdvancedRecorder::OnSlowInsert(NodeId node, const TupleRef& t) {
  // §5.5: broadcast sig (reset equivalence caches everywhere) only when the
  // slow state actually changed. A duplicate declaration — e.g. a resumed
  // deployment re-installing routes over WAL-recovered tables — is a no-op
  // and must not burn an epoch, or the compressed state would diverge from
  // an uninterrupted run.
  return nodes_[node].tuples.Put(t);
}

void AdvancedRecorder::OnControlSignal(NodeId node) {
  // §5.5: provenance must be re-maintained for every class from now on.
  // hmap is retained: existing associations describe past history; the next
  // first-in-class execution overwrites the reference with the new tree.
  // The epoch bump salts post-reset RIDs (see MakeRid).
  metrics_.cache_resets->IncrementAt(node);
  nodes_[node].htequi.clear();
  ++nodes_[node].epoch;
}

void AdvancedRecorder::SerializeMeta(const ProvMeta& meta,
                                     ByteWriter& w) const {
  uint8_t flags = 0;
  if (meta.exist_flag) flags |= 1;
  if (meta.maintain) flags |= 2;
  bool has_prev = !meta.prev.IsNull();
  if (has_prev) flags |= 4;
  w.PutU8(flags);
  w.PutDigest(meta.evid);
  w.PutDigest(meta.eqkey);
  if (has_prev) meta.prev.Serialize(w);
}

Result<ProvMeta> AdvancedRecorder::DeserializeMeta(ByteReader& r) const {
  ProvMeta meta;
  DPC_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
  meta.exist_flag = (flags & 1) != 0;
  meta.maintain = (flags & 2) != 0;
  DPC_ASSIGN_OR_RETURN(meta.evid, r.GetDigest());
  DPC_ASSIGN_OR_RETURN(meta.eqkey, r.GetDigest());
  if ((flags & 4) != 0) {
    DPC_ASSIGN_OR_RETURN(meta.prev, NodeRid::Deserialize(r));
  }
  return meta;
}

NodeSnapshot AdvancedRecorder::SnapshotAt(NodeId node) const {
  const NodeState& state = nodes_[node];
  return SnapshotTables(
      node, state.prov, /*prov_with_evid=*/true, state.rule_exec,
      /*rule_exec_with_next=*/true, state.events, state.tuples,
      options_.inter_class_sharing ? &state.exec_nodes : nullptr,
      options_.inter_class_sharing ? &state.exec_links : nullptr);
}

void AdvancedRecorder::SerializeNodeState(NodeId node, ByteWriter& w) const {
  SnapshotAt(node).Serialize(w);
  const NodeState& state = nodes_[node];
  w.PutVarint(state.epoch);
  // Hash containers serialize in sorted-by-digest order so the blob is
  // canonical; the per-class pending lists keep their insertion order
  // (flush order decides prov row order, which must survive recovery).
  std::vector<Sha1Digest> keys(state.htequi.begin(), state.htequi.end());
  std::sort(keys.begin(), keys.end());
  w.PutVarint(keys.size());
  for (const Sha1Digest& k : keys) w.PutDigest(k);
  std::vector<std::pair<Sha1Digest, NodeRid>> hmap(state.hmap.begin(),
                                                   state.hmap.end());
  std::sort(hmap.begin(), hmap.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.PutVarint(hmap.size());
  for (const auto& [k, v] : hmap) {
    w.PutDigest(k);
    v.Serialize(w);
  }
  std::vector<const decltype(state.pending)::value_type*> pending;
  for (const auto& kv : state.pending) pending.push_back(&kv);
  std::sort(pending.begin(), pending.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w.PutVarint(pending.size());
  for (const auto* kv : pending) {
    w.PutDigest(kv->first);
    w.PutVarint(kv->second.size());
    for (const PendingOutput& po : kv->second) {
      w.PutDigest(po.vid);
      w.PutDigest(po.evid);
    }
  }
}

Status AdvancedRecorder::RestoreNodeState(NodeId node, ByteReader& r) {
  DPC_ASSIGN_OR_RETURN(NodeSnapshot snap, NodeSnapshot::Deserialize(r));
  if (snap.node != node) {
    return Status::InvalidArgument("snapshot is for node " +
                                   std::to_string(snap.node));
  }
  if (!snap.prov_with_evid || !snap.rule_exec_with_next) {
    return Status::InvalidArgument("snapshot schema is not Advanced's");
  }
  DPC_ASSIGN_OR_RETURN(RestoredTables tables, RestoreTables(snap));
  NodeState& state = nodes_[node];
  state.prov = std::move(tables.prov);
  state.rule_exec = std::move(tables.rule_exec);
  state.exec_nodes = std::move(tables.exec_nodes);
  state.exec_links = std::move(tables.exec_links);
  state.events = std::move(tables.events);
  state.tuples = std::move(tables.tuples);
  DPC_ASSIGN_OR_RETURN(state.epoch, r.GetVarint());
  state.htequi.clear();
  DPC_ASSIGN_OR_RETURN(uint64_t n_keys, r.GetVarint());
  for (uint64_t i = 0; i < n_keys; ++i) {
    DPC_ASSIGN_OR_RETURN(Sha1Digest k, r.GetDigest());
    state.htequi.insert(k);
  }
  state.hmap.clear();
  DPC_ASSIGN_OR_RETURN(uint64_t n_hmap, r.GetVarint());
  for (uint64_t i = 0; i < n_hmap; ++i) {
    DPC_ASSIGN_OR_RETURN(Sha1Digest k, r.GetDigest());
    DPC_ASSIGN_OR_RETURN(NodeRid v, NodeRid::Deserialize(r));
    state.hmap[k] = v;
  }
  state.pending.clear();
  DPC_ASSIGN_OR_RETURN(uint64_t n_pending, r.GetVarint());
  for (uint64_t i = 0; i < n_pending; ++i) {
    DPC_ASSIGN_OR_RETURN(Sha1Digest k, r.GetDigest());
    DPC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
    // Each entry is two digests; a count the remaining bytes cannot hold
    // is hostile, and must not reach the allocator via reserve().
    if (n > r.remaining() / 40) {
      return Status::ParseError("pending-output count exceeds input");
    }
    std::vector<PendingOutput> outs;
    outs.reserve(n);
    for (uint64_t j = 0; j < n; ++j) {
      PendingOutput po;
      DPC_ASSIGN_OR_RETURN(po.vid, r.GetDigest());
      DPC_ASSIGN_OR_RETURN(po.evid, r.GetDigest());
      outs.push_back(po);
    }
    state.pending[k] = std::move(outs);
  }
  return Status::OK();
}

StorageBreakdown AdvancedRecorder::StorageAt(NodeId node) const {
  const NodeState& state = nodes_[node];
  StorageBreakdown s;
  s.prov = state.prov.SerializedBytes();
  s.rule_exec = options_.inter_class_sharing
                    ? state.exec_nodes.SerializedBytes() +
                          state.exec_links.SerializedBytes()
                    : state.rule_exec.SerializedBytes();
  s.event_store = state.events.SerializedBytes();
  s.tuple_store = state.tuples.SerializedBytes();
  return s;
}

size_t AdvancedRecorder::PendingOutputs() const {
  size_t n = 0;
  for (const NodeState& state : nodes_) {
    for (const auto& [_, v] : state.pending) n += v.size();
  }
  return n;
}

}  // namespace dpc
