#include "src/core/prov_tables.h"

#include <utility>

namespace dpc {

namespace {

// Bucket keys for row deduplication: a multiply-xorshift mix of the row's
// node ids and digest prefixes. Digests are SHA-1 output, so their
// prefixes are already uniform; the mix only has to combine them.
uint64_t MixBits(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}
uint64_t Mix(uint64_t h, NodeId n) {
  return MixBits(h, static_cast<uint32_t>(n));
}
uint64_t Mix(uint64_t h, const Sha1Digest& d) {
  return MixBits(h, d.Prefix64());
}
uint64_t Mix(uint64_t h, const NodeRid& r) {
  return Mix(Mix(h, r.loc), r.rid);
}

uint64_t BucketKey(const ProvEntry& e) {
  return Mix(Mix(Mix(Mix(0, e.loc), e.vid), e.rule), e.evid);
}
// VIDS and the rule id are left out: the RID already hashes them in every
// scheme, and the full comparison below covers them anyway.
uint64_t BucketKey(const RuleExecEntry& e) {
  return Mix(Mix(Mix(0, e.rloc), e.rid), e.next);
}
uint64_t BucketKey(const RuleExecLinkEntry& e) {
  return Mix(Mix(Mix(0, e.rloc), e.rid), e.next);
}

// Exact deduplication: true, with the row's index recorded in `buckets`,
// unless `rows` already holds a row equal to `row` in every column.
template <typename Row>
bool AdmitRow(std::unordered_multimap<uint64_t, size_t>& buckets,
              const std::vector<Row>& rows, const Row& row) {
  const uint64_t key = BucketKey(row);
  auto [lo, hi] = buckets.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (rows[it->second] == row) return false;
  }
  buckets.emplace(key, rows.size());
  return true;
}

void PutNodeId(ByteWriter& w, NodeId n) {
  w.PutU32(static_cast<uint32_t>(n));
}

// Fixed wire widths of the digest-based columns.
constexpr size_t kNodeIdSize = 4;
constexpr size_t kDigestSize = 20;
constexpr size_t kNodeRidSize = kNodeIdSize + kDigestSize;

}  // namespace

void NodeRid::Serialize(ByteWriter& w) const {
  PutNodeId(w, loc);
  w.PutDigest(rid);
}

Result<NodeRid> NodeRid::Deserialize(ByteReader& r) {
  NodeRid out;
  DPC_ASSIGN_OR_RETURN(uint32_t loc, r.GetU32());
  out.loc = static_cast<NodeId>(loc);
  DPC_ASSIGN_OR_RETURN(out.rid, r.GetDigest());
  return out;
}

std::string NodeRid::ToString() const {
  if (IsNull()) return "(NULL, NULL)";
  return "(n" + std::to_string(loc) + ", " + rid.ToHex(4) + ")";
}

void ProvEntry::Serialize(ByteWriter& w, bool with_evid) const {
  PutNodeId(w, loc);
  w.PutDigest(vid);
  rule.Serialize(w);
  if (with_evid) w.PutDigest(evid);
}

size_t ProvEntry::SerializedSize(bool with_evid) const {
  return kNodeIdSize + kDigestSize + kNodeRidSize +
         (with_evid ? kDigestSize : 0);
}

Result<ProvEntry> ProvEntry::Deserialize(ByteReader& r, bool with_evid) {
  ProvEntry e;
  DPC_ASSIGN_OR_RETURN(uint32_t loc, r.GetU32());
  e.loc = static_cast<NodeId>(loc);
  DPC_ASSIGN_OR_RETURN(e.vid, r.GetDigest());
  DPC_ASSIGN_OR_RETURN(e.rule, NodeRid::Deserialize(r));
  if (with_evid) {
    DPC_ASSIGN_OR_RETURN(e.evid, r.GetDigest());
  }
  return e;
}

void RuleExecEntry::Serialize(ByteWriter& w, bool with_next) const {
  PutNodeId(w, rloc);
  w.PutDigest(rid);
  w.PutString(rule_id);
  w.PutVarint(vids.size());
  for (const Vid& v : vids) w.PutDigest(v);
  if (with_next) next.Serialize(w);
}

size_t RuleExecEntry::SerializedSize(bool with_next) const {
  return kNodeIdSize + kDigestSize + StringSerializedSize(rule_id) +
         VarintSize(vids.size()) + kDigestSize * vids.size() +
         (with_next ? kNodeRidSize : 0);
}

Result<RuleExecEntry> RuleExecEntry::Deserialize(ByteReader& r,
                                                 bool with_next) {
  RuleExecEntry e;
  DPC_ASSIGN_OR_RETURN(uint32_t rloc, r.GetU32());
  e.rloc = static_cast<NodeId>(rloc);
  DPC_ASSIGN_OR_RETURN(e.rid, r.GetDigest());
  DPC_ASSIGN_OR_RETURN(e.rule_id, r.GetString());
  DPC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    DPC_ASSIGN_OR_RETURN(Vid v, r.GetDigest());
    e.vids.push_back(v);
  }
  if (with_next) {
    DPC_ASSIGN_OR_RETURN(e.next, NodeRid::Deserialize(r));
  }
  return e;
}

void RuleExecNodeEntry::Serialize(ByteWriter& w) const {
  PutNodeId(w, rloc);
  w.PutDigest(rid);
  w.PutString(rule_id);
  w.PutVarint(vids.size());
  for (const Vid& v : vids) w.PutDigest(v);
}

size_t RuleExecNodeEntry::SerializedSize() const {
  return kNodeIdSize + kDigestSize + StringSerializedSize(rule_id) +
         VarintSize(vids.size()) + kDigestSize * vids.size();
}

Result<RuleExecNodeEntry> RuleExecNodeEntry::Deserialize(ByteReader& r) {
  RuleExecNodeEntry e;
  DPC_ASSIGN_OR_RETURN(uint32_t rloc, r.GetU32());
  e.rloc = static_cast<NodeId>(rloc);
  DPC_ASSIGN_OR_RETURN(e.rid, r.GetDigest());
  DPC_ASSIGN_OR_RETURN(e.rule_id, r.GetString());
  DPC_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    DPC_ASSIGN_OR_RETURN(Vid v, r.GetDigest());
    e.vids.push_back(v);
  }
  return e;
}

void RuleExecLinkEntry::Serialize(ByteWriter& w) const {
  PutNodeId(w, rloc);
  w.PutDigest(rid);
  next.Serialize(w);
}

size_t RuleExecLinkEntry::SerializedSize() const {
  return kNodeIdSize + kDigestSize + kNodeRidSize;
}

Result<RuleExecLinkEntry> RuleExecLinkEntry::Deserialize(ByteReader& r) {
  RuleExecLinkEntry e;
  DPC_ASSIGN_OR_RETURN(uint32_t rloc, r.GetU32());
  e.rloc = static_cast<NodeId>(rloc);
  DPC_ASSIGN_OR_RETURN(e.rid, r.GetDigest());
  DPC_ASSIGN_OR_RETURN(e.next, NodeRid::Deserialize(r));
  return e;
}

// --- ProvTable --------------------------------------------------------------

bool ProvTable::Insert(const ProvEntry& e) {
  if (!AdmitRow(dedup_, rows_, e)) return false;
  by_vid_.emplace(e.vid, rows_.size());
  bytes_ += e.SerializedSize(with_evid_);
  rows_.push_back(e);
  return true;
}

std::vector<const ProvEntry*> ProvTable::FindByVid(const Vid& vid) const {
  std::vector<const ProvEntry*> out;
  auto [lo, hi] = by_vid_.equal_range(vid);
  for (auto it = lo; it != hi; ++it) out.push_back(&rows_[it->second]);
  return out;
}

// --- RuleExecTable ----------------------------------------------------------

bool RuleExecTable::Insert(const RuleExecEntry& e) {
  if (!AdmitRow(dedup_, rows_, e)) return false;
  by_rid_.emplace(e.rid, rows_.size());
  bytes_ += e.SerializedSize(with_next_);
  rows_.push_back(e);
  return true;
}

std::vector<const RuleExecEntry*> RuleExecTable::FindByRid(
    const Rid& rid) const {
  std::vector<const RuleExecEntry*> out;
  auto [lo, hi] = by_rid_.equal_range(rid);
  for (auto it = lo; it != hi; ++it) out.push_back(&rows_[it->second]);
  return out;
}

// --- RuleExecNodeTable ------------------------------------------------------

bool RuleExecNodeTable::Insert(const RuleExecNodeEntry& e) {
  auto [it, inserted] = by_rid_.emplace(e.rid, rows_.size());
  if (!inserted) return false;
  bytes_ += e.SerializedSize();
  rows_.push_back(e);
  return true;
}

const RuleExecNodeEntry* RuleExecNodeTable::FindByRid(const Rid& rid) const {
  auto it = by_rid_.find(rid);
  return it == by_rid_.end() ? nullptr : &rows_[it->second];
}

// --- RuleExecLinkTable ------------------------------------------------------

bool RuleExecLinkTable::Insert(const RuleExecLinkEntry& e) {
  if (!AdmitRow(dedup_, rows_, e)) return false;
  by_rid_.emplace(e.rid, rows_.size());
  bytes_ += e.SerializedSize();
  rows_.push_back(e);
  return true;
}

std::vector<const RuleExecLinkEntry*> RuleExecLinkTable::FindByRid(
    const Rid& rid) const {
  std::vector<const RuleExecLinkEntry*> out;
  auto [lo, hi] = by_rid_.equal_range(rid);
  for (auto it = lo; it != hi; ++it) out.push_back(&rows_[it->second]);
  return out;
}

// --- TupleStore -------------------------------------------------------------

bool TupleStore::Put(const Tuple& t) {
  // Identity is computed before taking the lock: Vid/SerializedSize are
  // themselves thread-safe and possibly slow on first touch.
  const Vid& vid = t.Vid();
  size_t content_bytes = t.SerializedSize();
  MutexLock lock(mu_);
  auto it = tuples_.find(vid);
  if (it != tuples_.end()) return false;
  tuples_.emplace(vid, MakeTupleRef(t));
  bytes_ += kDigestSize + content_bytes;  // key digest + content
  return true;
}

bool TupleStore::Put(TupleRef t) {
  const Vid& vid = t->Vid();
  size_t content_bytes = t->SerializedSize();
  MutexLock lock(mu_);
  auto [it, inserted] = tuples_.emplace(vid, std::move(t));
  if (inserted) {
    bytes_ += kDigestSize + content_bytes;
  }
  return inserted;
}

const Tuple* TupleStore::Find(const Vid& vid) const {
  MutexLock lock(mu_);
  auto it = tuples_.find(vid);
  return it == tuples_.end() ? nullptr : it->second.get();
}

}  // namespace dpc
