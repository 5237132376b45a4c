// The distributed provenance storage model (§2.2, §4, §5.3, §5.4): per-node
// `prov` and `ruleExec` relational tables, plus the §5.4 split into
// `ruleExecNode` / `ruleExecLink` used by inter-equivalence-class sharing.
//
// All identifiers are SHA-1 digests, as in ExSPAN:
//   VID  = sha1(canonical tuple encoding)
//   RID  = sha1(rule id [+ location] + body VIDs)   (scheme-dependent)
//   EVID = VID of the input event tuple of an execution (§5.3)
//
// Serialized sizes of these tables are exactly what the paper's storage
// figures measure.
//
// Deduplication: ProvTable, RuleExecTable and RuleExecLinkTable drop a row
// that equals, in every column (operator==, including EVID and next
// columns the table's schema does not store), a row already present. Row
// indices are bucketed by a 64-bit mix of the row's node ids and the
// prefixes of its digest columns (already uniform SHA-1 output), and a
// candidate is compared in full against the rows in its bucket, so no row
// is hashed to be deduplicated. The buckets hold indices into the row
// vector, never pointers, so a table may be moved. RuleExecNodeTable is
// keyed by RID alone.
#ifndef DPC_CORE_PROV_TABLES_H_
#define DPC_CORE_PROV_TABLES_H_

#include <string>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/db/tuple.h"
#include "src/util/serial.h"
#include "src/util/sha1.h"
#include "src/util/thread_annotations.h"

namespace dpc {

using Vid = Sha1Digest;
using Rid = Sha1Digest;

// A (location, RID) reference to a rule-execution provenance node; the
// (RLoc, RID) and (NLoc, NRID) column pairs of the paper's tables.
struct NodeRid {
  NodeId loc = kNullNode;
  Rid rid{};

  bool IsNull() const { return loc == kNullNode; }
  static NodeRid Null() { return NodeRid{}; }

  bool operator==(const NodeRid&) const = default;

  void Serialize(ByteWriter& w) const;
  static Result<NodeRid> Deserialize(ByteReader& r);

  std::string ToString() const;
};

// A row of the prov table. Column usage by scheme:
//   ExSPAN (Table 1):  (Loc, VID, RID, RLoc)           rule may be Null for
//                                                      base/input tuples
//   Basic  (Table 2):  (Loc, VID, RID, RLoc)           output tuples only
//   Advanced (Table 3): (Loc, VID, RLoc, RID, EVID)    output tuples only
struct ProvEntry {
  NodeId loc = kNullNode;
  Vid vid{};
  NodeRid rule;  // (RLoc, RID)
  Vid evid{};    // Advanced only

  bool operator==(const ProvEntry&) const = default;

  void Serialize(ByteWriter& w, bool with_evid) const;
  static Result<ProvEntry> Deserialize(ByteReader& r, bool with_evid);
  // Arithmetic (no buffer); equals the byte count Serialize appends.
  size_t SerializedSize(bool with_evid) const;
};

// A row of the ruleExec table. Column usage by scheme:
//   ExSPAN (Table 1):  (RLoc, RID, R, VIDS)                 no next columns
//   Basic  (Table 2):  (RLoc, RID, R, VIDS, NLoc, NRID)
//   Advanced (Table 3): same as Basic, with VIDS restricted to
//                       slow-changing tuples so RIDs are shared class-wide
struct RuleExecEntry {
  NodeId rloc = kNullNode;
  Rid rid{};
  std::string rule_id;
  std::vector<Vid> vids;
  NodeRid next;  // (NLoc, NRID)

  bool operator==(const RuleExecEntry&) const = default;

  void Serialize(ByteWriter& w, bool with_next) const;
  static Result<RuleExecEntry> Deserialize(ByteReader& r, bool with_next);
  size_t SerializedSize(bool with_next) const;
};

// §5.4 split: the concrete rule-execution node...
struct RuleExecNodeEntry {
  NodeId rloc = kNullNode;
  Rid rid{};
  std::string rule_id;
  std::vector<Vid> vids;

  bool operator==(const RuleExecNodeEntry&) const = default;

  void Serialize(ByteWriter& w) const;
  static Result<RuleExecNodeEntry> Deserialize(ByteReader& r);
  size_t SerializedSize() const;
};

// ...and the parent->child links, one row per tree edge.
struct RuleExecLinkEntry {
  NodeId rloc = kNullNode;
  Rid rid{};
  NodeRid next;

  bool operator==(const RuleExecLinkEntry&) const = default;

  void Serialize(ByteWriter& w) const;
  static Result<RuleExecLinkEntry> Deserialize(ByteReader& r);
  size_t SerializedSize() const;
};

// --- per-node tables -------------------------------------------------------

// prov table: deduplicated rows indexed by VID.
class ProvTable {
 public:
  explicit ProvTable(bool with_evid) : with_evid_(with_evid) {}

  // Inserts a row; a row equal to a present one is ignored (false).
  bool Insert(const ProvEntry& e);

  // All rows whose VID equals `vid`.
  std::vector<const ProvEntry*> FindByVid(const Vid& vid) const;

  size_t size() const { return rows_.size(); }
  // Incrementally maintained total serialized size in bytes.
  size_t SerializedBytes() const { return bytes_; }

  const std::vector<ProvEntry>& rows() const { return rows_; }

 private:
  bool with_evid_;
  std::vector<ProvEntry> rows_;
  std::unordered_multimap<Vid, size_t, Sha1DigestHash> by_vid_;
  std::unordered_multimap<uint64_t, size_t> dedup_;  // mix -> row index
  size_t bytes_ = 0;
};

// ruleExec table: deduplicated rows indexed by RID. Several rows may
// share an RID (Advanced: one per distinct next pointer); queries branch
// over all of them and filter by EVID at the leaves (Theorem 5).
class RuleExecTable {
 public:
  explicit RuleExecTable(bool with_next) : with_next_(with_next) {}

  bool Insert(const RuleExecEntry& e);

  std::vector<const RuleExecEntry*> FindByRid(const Rid& rid) const;

  size_t size() const { return rows_.size(); }
  size_t SerializedBytes() const { return bytes_; }
  const std::vector<RuleExecEntry>& rows() const { return rows_; }

 private:
  bool with_next_;
  std::vector<RuleExecEntry> rows_;
  std::unordered_multimap<Rid, size_t, Sha1DigestHash> by_rid_;
  std::unordered_multimap<uint64_t, size_t> dedup_;  // mix -> row index
  size_t bytes_ = 0;
};

// §5.4 ruleExecNode table: unique per (rloc, rid).
class RuleExecNodeTable {
 public:
  bool Insert(const RuleExecNodeEntry& e);
  const RuleExecNodeEntry* FindByRid(const Rid& rid) const;

  size_t size() const { return rows_.size(); }
  size_t SerializedBytes() const { return bytes_; }
  const std::vector<RuleExecNodeEntry>& rows() const { return rows_; }

 private:
  std::vector<RuleExecNodeEntry> rows_;
  std::unordered_map<Rid, size_t, Sha1DigestHash> by_rid_;
  size_t bytes_ = 0;
};

// §5.4 ruleExecLink table: unique per (rloc, rid, next).
class RuleExecLinkTable {
 public:
  bool Insert(const RuleExecLinkEntry& e);
  std::vector<const RuleExecLinkEntry*> FindByRid(const Rid& rid) const;

  size_t size() const { return rows_.size(); }
  size_t SerializedBytes() const { return bytes_; }
  const std::vector<RuleExecLinkEntry>& rows() const { return rows_; }

 private:
  std::vector<RuleExecLinkEntry> rows_;
  std::unordered_multimap<Rid, size_t, Sha1DigestHash> by_rid_;
  std::unordered_multimap<uint64_t, size_t> dedup_;  // mix -> row index
  size_t bytes_ = 0;
};

// Materialized tuple contents keyed by VID: input events at their injection
// node (all schemes; the irreducible per-event "delta" of §5.1) and, for
// ExSPAN, every intermediate/output/base tuple its hash-only rows refer to.
//
// Thread-safe: the map is mutex-guarded because a tuple injected on one
// shard can be referenced (and thus stored/looked-up) from another. Find
// returns a pointer to the shared-immutable tuple, which stays valid under
// concurrent Puts — the map owns TupleRefs, so rehashing moves the refs,
// never the tuples.
class TupleStore {
 public:
  TupleStore() = default;

  // Movable for single-owner handoff (snapshot restore, container
  // growth). Moving locks the source; the moved-from store is empty and
  // must not be raced by other threads during the move.
  TupleStore(TupleStore&& other) noexcept {
    MutexLock lock(other.mu_);
    tuples_ = std::move(other.tuples_);
    bytes_ = other.bytes_;
    other.tuples_.clear();
    other.bytes_ = 0;
  }
  TupleStore& operator=(TupleStore&& other) noexcept {
    if (this != &other) {
      std::unordered_map<Vid, TupleRef, Sha1DigestHash> taken;
      size_t taken_bytes = 0;
      {
        MutexLock lock(other.mu_);
        taken = std::move(other.tuples_);
        taken_bytes = other.bytes_;
        other.tuples_.clear();
        other.bytes_ = 0;
      }
      MutexLock lock(mu_);
      tuples_ = std::move(taken);
      bytes_ = taken_bytes;
    }
    return *this;
  }

  // Returns false if the VID was already present. The TupleRef overload
  // shares the caller's allocation; the Tuple overload allocates only when
  // the VID is actually new.
  bool Put(const Tuple& t) DPC_EXCLUDES(mu_);
  bool Put(TupleRef t) DPC_EXCLUDES(mu_);

  const Tuple* Find(const Vid& vid) const DPC_EXCLUDES(mu_);
  bool Contains(const Vid& vid) const { return Find(vid) != nullptr; }

  // Applies `fn` to every stored tuple (unspecified order), holding the
  // store lock throughout: `fn` must not call back into this store.
  template <typename Fn>
  void ForEach(Fn&& fn) const DPC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const auto& [_, tuple] : tuples_) fn(*tuple);
  }

  size_t size() const DPC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return tuples_.size();
  }
  size_t SerializedBytes() const DPC_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return bytes_;
  }

 private:
  mutable Mutex mu_;
  std::unordered_map<Vid, TupleRef, Sha1DigestHash> tuples_
      DPC_GUARDED_BY(mu_);
  size_t bytes_ DPC_GUARDED_BY(mu_) = 0;
};

}  // namespace dpc

#endif  // DPC_CORE_PROV_TABLES_H_
