// AdvancedRecorder: equivalence-based online compression (§5.3), optional
// inter-equivalence-class sharing (§5.4), and slow-changing-update handling
// (§5.5).
//
// Stage 1 (injection): hash the event's equivalence-key values; if seen
//   before in this node's htequi, set existFlag and skip maintenance.
// Stage 2 (execution): when maintaining, each firing appends a ruleExec row
//   whose RID hashes only the rule and its slow-changing inputs — so all
//   events of an equivalence class share the same rows.
// Stage 3 (output): associate the output tuple with the class's shared tree
//   through hmap, writing one prov row (Loc, VID, RLoc, RID, EVID).
//
// Out-of-order tolerance: if an existFlag=true execution reaches the output
// node before the class's first execution populated hmap, the prov row is
// parked in a pending list and flushed when the shared tree registers.
#ifndef DPC_CORE_ADVANCED_RECORDER_H_
#define DPC_CORE_ADVANCED_RECORDER_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/equivalence_keys.h"
#include "src/core/recorder.h"
#include "src/core/snapshot.h"
#include "src/ndlog/program.h"

namespace dpc {

class Counter;  // src/obs/metrics.h

struct AdvancedOptions {
  // §5.4: split ruleExec into ruleExecNode (concrete nodes, deduplicated
  // across equivalence classes) and ruleExecLink (per-tree edges).
  bool inter_class_sharing = false;
};

class AdvancedRecorder : public ProvenanceRecorder {
 public:
  AdvancedRecorder(const Program* program, EquivalenceKeys keys,
                   int num_nodes, AdvancedOptions options = {});

  std::string name() const override {
    return options_.inter_class_sharing ? "Advanced+InterClass" : "Advanced";
  }

  ProvMeta OnInject(NodeId node, const TupleRef& event) override;
  ProvMeta OnRuleFired(NodeId node, const Rule& rule, const TupleRef& event,
                       const ProvMeta& meta,
                       const std::vector<TupleRef>& slow,
                       const TupleRef& head) override;
  void OnOutput(NodeId node, const TupleRef& output,
                const ProvMeta& meta) override;
  bool OnSlowInsert(NodeId node, const TupleRef& t) override;
  void OnControlSignal(NodeId node) override;

  void SerializeMeta(const ProvMeta& meta, ByteWriter& w) const override;
  Result<ProvMeta> DeserializeMeta(ByteReader& r) const override;

  StorageBreakdown StorageAt(NodeId node) const override;

  const EquivalenceKeys& keys() const { return keys_; }

  // --- table access for the query engine ---
  const ProvTable& ProvAt(NodeId node) const { return nodes_[node].prov; }
  const RuleExecTable& RuleExecAt(NodeId node) const {
    return nodes_[node].rule_exec;
  }
  const RuleExecNodeTable& RuleExecNodesAt(NodeId node) const {
    return nodes_[node].exec_nodes;
  }
  const RuleExecLinkTable& RuleExecLinksAt(NodeId node) const {
    return nodes_[node].exec_links;
  }
  const TupleStore& TuplesAt(NodeId node) const { return nodes_[node].tuples; }
  const TupleStore& EventsAt(NodeId node) const { return nodes_[node].events; }
  bool inter_class_sharing() const { return options_.inter_class_sharing; }

  // Portable snapshot of this node's tables (checkpoint/restore).
  NodeSnapshot SnapshotAt(NodeId node) const;

  // Durability: snapshot tables plus the scheme-private auxiliary state
  // (htequi, hmap, pending, §5.5 epoch), all in sorted canonical order.
  bool SupportsNodeState() const override { return true; }
  void SerializeNodeState(NodeId node, ByteWriter& w) const override;
  Status RestoreNodeState(NodeId node, ByteReader& r) override;
  uint64_t StateEpoch(NodeId node) const override {
    return nodes_[node].epoch;
  }

  // Number of pending (unflushed) output associations; 0 once quiescent.
  size_t PendingOutputs() const;

  // The RID scheme of Table 3: sha1 over the rule id and the slow-changing
  // VIDs only — identical for every member of an equivalence class (and,
  // with §5.4, across classes at the same node). The per-node `epoch`,
  // bumped on every §5.5 sig reset, salts the hash so post-update shared
  // trees never collide with pre-update rows; without it a query could
  // return derivations that were never executed (Lemma 6's (RLoc, RID)
  // uniqueness would break across updates).
  static Rid MakeRid(const std::string& rule_id,
                     const std::vector<Vid>& slow_vids, uint64_t epoch);

  uint64_t EpochAt(NodeId node) const { return nodes_[node].epoch; }

 private:
  struct PendingOutput {
    Vid vid;
    Vid evid;
  };
  struct NodeState {
    NodeState() : prov(/*with_evid=*/true), rule_exec(/*with_next=*/true) {}
    ProvTable prov;
    RuleExecTable rule_exec;        // §5.3 representation
    RuleExecNodeTable exec_nodes;   // §5.4 representation
    RuleExecLinkTable exec_links;
    TupleStore tuples;  // slow-changing tuples referenced by VIDS
    TupleStore events;  // input events injected here (the per-tree delta)
    // Stage-1 cache of seen equivalence keys (htequi).
    std::unordered_set<Sha1Digest, Sha1DigestHash> htequi;
    // Output-side shared-tree references (hmap).
    std::unordered_map<Sha1Digest, NodeRid, Sha1DigestHash> hmap;
    std::unordered_map<Sha1Digest, std::vector<PendingOutput>, Sha1DigestHash>
        pending;
    uint64_t epoch = 0;
  };

  void InsertRuleExecRow(NodeState& state, NodeId node, const Rid& rid,
                         const std::string& rule_id,
                         const std::vector<Vid>& slow_vids,
                         const NodeRid& next);

  const Program* program_;
  EquivalenceKeys keys_;
  AdvancedOptions options_;
  std::vector<NodeState> nodes_;
  // "recorder.advanced.*" counters, resolved once at construction.
  struct {
    Counter* new_classes;
    Counter* shared_classes;
    Counter* maintenance_skipped;
    Counter* rule_exec_rows;
    Counter* prov_rows;
    Counter* pending_parked;
    Counter* cache_resets;
  } metrics_;
};

}  // namespace dpc

#endif  // DPC_CORE_ADVANCED_RECORDER_H_
