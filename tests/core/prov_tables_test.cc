// Provenance storage tables: deduplication, indexing, incremental
// serialized-size accounting, schema-dependent row widths.
#include "src/core/prov_tables.h"

#include <gtest/gtest.h>

#include <utility>

#include "src/core/recorder.h"
#include "src/core/snapshot.h"

namespace dpc {
namespace {

Vid V(int i) { return Sha1::Hash("vid" + std::to_string(i)); }
Rid R(int i) { return Sha1::Hash("rid" + std::to_string(i)); }

TEST(NodeRidTest, NullAndEquality) {
  NodeRid null = NodeRid::Null();
  EXPECT_TRUE(null.IsNull());
  NodeRid a{1, R(1)};
  EXPECT_FALSE(a.IsNull());
  EXPECT_EQ(a, (NodeRid{1, R(1)}));
  EXPECT_NE(a, (NodeRid{2, R(1)}));
  EXPECT_NE(a, (NodeRid{1, R(2)}));
}

TEST(NodeRidTest, RoundTrip) {
  NodeRid a{7, R(3)};
  ByteWriter w;
  a.Serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(NodeRid::Deserialize(r).value(), a);
}

TEST(ProvEntryTest, EvidChangesWidth) {
  ProvEntry e{1, V(1), NodeRid{2, R(1)}, V(9)};
  EXPECT_EQ(e.SerializedSize(true), e.SerializedSize(false) + 20);
}

TEST(RuleExecEntryTest, NextColumnsChangeWidth) {
  RuleExecEntry e{1, R(1), "r1", {V(1), V(2)}, NodeRid{2, R(2)}};
  EXPECT_EQ(e.SerializedSize(true), e.SerializedSize(false) + 24);
}

TEST(ProvTableTest, InsertAndFind) {
  ProvTable t(/*with_evid=*/false);
  EXPECT_TRUE(t.Insert(ProvEntry{1, V(1), NodeRid{2, R(1)}, Vid{}}));
  EXPECT_FALSE(t.Insert(ProvEntry{1, V(1), NodeRid{2, R(1)}, Vid{}}));
  EXPECT_TRUE(t.Insert(ProvEntry{1, V(1), NodeRid{3, R(2)}, Vid{}}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.FindByVid(V(1)).size(), 2u);
  EXPECT_TRUE(t.FindByVid(V(9)).empty());
}

TEST(ProvTableTest, EvidDistinguishesRows) {
  ProvTable t(/*with_evid=*/true);
  EXPECT_TRUE(t.Insert(ProvEntry{1, V(1), NodeRid{2, R(1)}, V(5)}));
  EXPECT_TRUE(t.Insert(ProvEntry{1, V(1), NodeRid{2, R(1)}, V(6)}));
  EXPECT_EQ(t.size(), 2u);
}

TEST(ProvTableTest, BytesAccumulateIncrementally) {
  ProvTable t(/*with_evid=*/true);
  EXPECT_EQ(t.SerializedBytes(), 0u);
  ProvEntry e{1, V(1), NodeRid{2, R(1)}, V(5)};
  t.Insert(e);
  EXPECT_EQ(t.SerializedBytes(), e.SerializedSize(true));
  t.Insert(e);  // duplicate: no growth
  EXPECT_EQ(t.SerializedBytes(), e.SerializedSize(true));
}

TEST(RuleExecTableTest, MultipleRowsPerRid) {
  RuleExecTable t(/*with_next=*/true);
  EXPECT_TRUE(t.Insert(RuleExecEntry{1, R(1), "r1", {V(1)}, NodeRid{2, R(2)}}));
  EXPECT_TRUE(t.Insert(RuleExecEntry{1, R(1), "r1", {V(1)}, NodeRid{3, R(3)}}));
  EXPECT_FALSE(
      t.Insert(RuleExecEntry{1, R(1), "r1", {V(1)}, NodeRid{3, R(3)}}));
  EXPECT_EQ(t.FindByRid(R(1)).size(), 2u);
  EXPECT_TRUE(t.FindByRid(R(5)).empty());
}

TEST(RuleExecTableTest, BytesUseSchemaWidth) {
  RuleExecTable narrow(/*with_next=*/false);
  RuleExecTable wide(/*with_next=*/true);
  RuleExecEntry e{1, R(1), "r1", {V(1)}, NodeRid::Null()};
  narrow.Insert(e);
  wide.Insert(e);
  EXPECT_EQ(wide.SerializedBytes(), narrow.SerializedBytes() + 24);
}

TEST(RuleExecNodeTableTest, UniquePerRid) {
  RuleExecNodeTable t;
  EXPECT_TRUE(t.Insert(RuleExecNodeEntry{1, R(1), "r1", {V(1)}}));
  EXPECT_FALSE(t.Insert(RuleExecNodeEntry{1, R(1), "r1", {V(1)}}));
  ASSERT_NE(t.FindByRid(R(1)), nullptr);
  EXPECT_EQ(t.FindByRid(R(1))->rule_id, "r1");
  EXPECT_EQ(t.FindByRid(R(2)), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RuleExecLinkTableTest, DedupByFullContent) {
  RuleExecLinkTable t;
  EXPECT_TRUE(t.Insert(RuleExecLinkEntry{1, R(1), NodeRid{2, R(2)}}));
  EXPECT_TRUE(t.Insert(RuleExecLinkEntry{1, R(1), NodeRid{3, R(3)}}));
  EXPECT_FALSE(t.Insert(RuleExecLinkEntry{1, R(1), NodeRid{3, R(3)}}));
  EXPECT_EQ(t.FindByRid(R(1)).size(), 2u);
  EXPECT_GT(t.SerializedBytes(), 0u);
}

// Exact deduplication: rows are bucketed by their node ids and digest
// columns (for ruleExec rows: rloc, rid and next), then compared in full.

TEST(ExactDedupTest, RowsSharingABucketButDifferingElsewhereAreKept) {
  RuleExecTable t(/*with_next=*/true);
  const NodeRid next{2, R(2)};
  RuleExecEntry base{1, R(1), "r1", {V(1)}, next};
  RuleExecEntry other_vids{1, R(1), "r1", {V(1), V(2)}, next};
  RuleExecEntry other_rule{1, R(1), "r2", {V(1)}, next};
  EXPECT_TRUE(t.Insert(base));
  EXPECT_TRUE(t.Insert(other_vids));
  EXPECT_TRUE(t.Insert(other_rule));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.FindByRid(R(1)).size(), 3u);
  EXPECT_EQ(t.SerializedBytes(), base.SerializedSize(true) +
                                     other_vids.SerializedSize(true) +
                                     other_rule.SerializedSize(true));
  // Each of them is still recognized as present.
  EXPECT_FALSE(t.Insert(base));
  EXPECT_FALSE(t.Insert(other_vids));
  EXPECT_FALSE(t.Insert(other_rule));
  EXPECT_EQ(t.size(), 3u);
}

TEST(ExactDedupTest, ColumnsOutsideTheSchemaStillDistinguishRows) {
  // Deduplication compares every column, including the EVID and next
  // columns a narrow table does not store.
  ProvTable prov(/*with_evid=*/false);
  EXPECT_TRUE(prov.Insert(ProvEntry{1, V(1), NodeRid{2, R(1)}, V(5)}));
  EXPECT_TRUE(prov.Insert(ProvEntry{1, V(1), NodeRid{2, R(1)}, V(6)}));
  EXPECT_EQ(prov.size(), 2u);
  RuleExecTable exec(/*with_next=*/false);
  EXPECT_TRUE(exec.Insert(RuleExecEntry{1, R(1), "r1", {V(1)}, {2, R(2)}}));
  EXPECT_TRUE(exec.Insert(RuleExecEntry{1, R(1), "r1", {V(1)}, {3, R(3)}}));
  EXPECT_EQ(exec.size(), 2u);
}

TEST(ExactDedupTest, IdenticalRowsAreDroppedWithoutGrowingBytes) {
  ProvTable prov(/*with_evid=*/true);
  ProvEntry p{1, V(1), NodeRid{2, R(1)}, V(5)};
  ASSERT_TRUE(prov.Insert(p));
  size_t prov_bytes = prov.SerializedBytes();
  EXPECT_FALSE(prov.Insert(ProvEntry{p}));
  EXPECT_EQ(prov.SerializedBytes(), prov_bytes);
  EXPECT_EQ(prov.FindByVid(V(1)).size(), 1u);

  RuleExecTable exec(/*with_next=*/true);
  RuleExecEntry e{1, R(1), "r1", {V(1), V(2)}, NodeRid{2, R(2)}};
  ASSERT_TRUE(exec.Insert(e));
  size_t exec_bytes = exec.SerializedBytes();
  EXPECT_FALSE(exec.Insert(RuleExecEntry{e}));
  EXPECT_EQ(exec.SerializedBytes(), exec_bytes);
  EXPECT_EQ(exec.size(), 1u);

  RuleExecLinkTable links;
  RuleExecLinkEntry l{1, R(1), NodeRid{2, R(2)}};
  ASSERT_TRUE(links.Insert(l));
  size_t link_bytes = links.SerializedBytes();
  EXPECT_FALSE(links.Insert(RuleExecLinkEntry{l}));
  EXPECT_EQ(links.SerializedBytes(), link_bytes);
  EXPECT_EQ(links.size(), 1u);
}

TEST(ExactDedupTest, MovedTablesStillDedup) {
  // Recorders restore node state by move-assigning whole tables.
  RuleExecTable exec(/*with_next=*/true);
  RuleExecEntry a{1, R(1), "r1", {V(1)}, NodeRid{2, R(2)}};
  RuleExecEntry b{1, R(1), "r1", {V(1)}, NodeRid{3, R(3)}};
  ASSERT_TRUE(exec.Insert(a));
  ASSERT_TRUE(exec.Insert(b));
  RuleExecTable moved = std::move(exec);
  EXPECT_FALSE(moved.Insert(a));
  EXPECT_FALSE(moved.Insert(b));
  RuleExecTable assigned(/*with_next=*/true);
  ASSERT_TRUE(assigned.Insert(RuleExecEntry{4, R(4), "r9", {}, {}}));
  assigned = std::move(moved);
  EXPECT_FALSE(assigned.Insert(a));
  EXPECT_FALSE(assigned.Insert(b));
  EXPECT_TRUE(assigned.Insert(RuleExecEntry{4, R(4), "r9", {}, {}}));
  EXPECT_EQ(assigned.size(), 3u);
  EXPECT_EQ(assigned.FindByRid(R(1)).size(), 2u);

  ProvTable prov(/*with_evid=*/true);
  ProvEntry p{1, V(1), NodeRid{2, R(1)}, V(5)};
  ASSERT_TRUE(prov.Insert(p));
  ProvTable prov_moved(/*with_evid=*/true);
  prov_moved = std::move(prov);
  EXPECT_FALSE(prov_moved.Insert(p));
  EXPECT_EQ(prov_moved.size(), 1u);

  RuleExecLinkTable links;
  RuleExecLinkEntry l{1, R(1), NodeRid{2, R(2)}};
  ASSERT_TRUE(links.Insert(l));
  RuleExecLinkTable links_moved = std::move(links);
  EXPECT_FALSE(links_moved.Insert(l));
  EXPECT_EQ(links_moved.size(), 1u);
}

TEST(ExactDedupTest, RestoreTablesReproducesRowOrderAndBytes) {
  ProvTable prov(/*with_evid=*/true);
  RuleExecTable exec(/*with_next=*/true);
  RuleExecNodeTable nodes;
  RuleExecLinkTable links;
  TupleStore events;
  TupleStore tuples;
  for (int i = 0; i < 40; ++i) {
    // Rows i and i + 20 collide on every bucket column; duplicates of
    // earlier rows are offered too and must leave no trace.
    int k = i % 20;
    prov.Insert(ProvEntry{1, V(k), NodeRid{2, R(k)}, V(100 + i)});
    prov.Insert(ProvEntry{1, V(k), NodeRid{2, R(k)}, V(100 + k)});
    exec.Insert(RuleExecEntry{1, R(k), i < 20 ? "r1" : "r2", {V(i)},
                              NodeRid{3, R(50 + k)}});
    exec.Insert(RuleExecEntry{1, R(k), "r1", {V(k)}, NodeRid{3, R(50 + k)}});
    nodes.Insert(RuleExecNodeEntry{1, R(k), "r1", {V(k)}});
    links.Insert(RuleExecLinkEntry{1, R(k), NodeRid{4, R(60 + i)}});
    links.Insert(RuleExecLinkEntry{1, R(k), NodeRid{4, R(60 + k)}});
  }
  events.Put(Tuple::Make("ev", 1, {Value::Int(7)}));
  tuples.Put(Tuple::Make("route", 1, {Value::Int(3), Value::Int(2)}));
  ASSERT_EQ(prov.size(), 40u);
  ASSERT_EQ(exec.size(), 40u);
  ASSERT_EQ(links.size(), 40u);

  NodeSnapshot snap =
      SnapshotTables(1, prov, /*prov_with_evid=*/true, exec,
                     /*rule_exec_with_next=*/true, events, tuples, &nodes,
                     &links);
  ByteWriter w;
  snap.Serialize(w);
  Result<RestoredTables> restored = RestoreTables(snap);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->prov.rows(), prov.rows());
  EXPECT_EQ(restored->rule_exec.rows(), exec.rows());
  EXPECT_EQ(restored->exec_nodes.rows(), nodes.rows());
  EXPECT_EQ(restored->exec_links.rows(), links.rows());
  EXPECT_EQ(restored->prov.SerializedBytes(), prov.SerializedBytes());
  EXPECT_EQ(restored->rule_exec.SerializedBytes(), exec.SerializedBytes());
  EXPECT_EQ(restored->exec_nodes.SerializedBytes(), nodes.SerializedBytes());
  EXPECT_EQ(restored->exec_links.SerializedBytes(), links.SerializedBytes());
  NodeSnapshot again = SnapshotTables(
      1, restored->prov, /*prov_with_evid=*/true, restored->rule_exec,
      /*rule_exec_with_next=*/true, restored->events, restored->tuples,
      &restored->exec_nodes, &restored->exec_links);
  ByteWriter w2;
  again.Serialize(w2);
  EXPECT_EQ(w2.bytes(), w.bytes());
}

TEST(TupleStoreTest, PutFindAndBytes) {
  TupleStore store;
  Tuple t = Tuple::Make("route", 1, {Value::Int(3), Value::Int(2)});
  EXPECT_TRUE(store.Put(t));
  EXPECT_FALSE(store.Put(t));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.Find(t.Vid()), nullptr);
  EXPECT_EQ(*store.Find(t.Vid()), t);
  EXPECT_EQ(store.Find(Sha1::Hash("other")), nullptr);
  EXPECT_EQ(store.SerializedBytes(), 20 + t.SerializedSize());
}

TEST(StorageBreakdownTest, TotalsAndAccumulation) {
  StorageBreakdown a{1, 2, 3, 4};
  EXPECT_EQ(a.Total(), 10u);
  StorageBreakdown b{10, 20, 30, 40};
  a += b;
  EXPECT_EQ(a.prov, 11u);
  EXPECT_EQ(a.Total(), 110u);
}

}  // namespace
}  // namespace dpc
