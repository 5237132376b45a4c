// Differential check on the incremental byte accounting: every recorder
// table maintains its serialized size arithmetically (ProvEntry sizes,
// memoized tuple sizes, running counters). This test re-derives each
// node's StorageBreakdown the slow way — buffer-serialize every row and
// count actual bytes — after real forwarding and DNS runs, for every
// scheme. Any drift between the fast path and the bytes on the wire is a
// bug in the figures.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/apps/dns.h"
#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"
#include "src/core/prov_tables.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;

// --- slow-path recomputation: serialize every row into a fresh buffer ------

size_t BufferBytes(const ProvTable& table, bool with_evid) {
  size_t sum = 0;
  for (const ProvEntry& e : table.rows()) {
    ByteWriter w;
    e.Serialize(w, with_evid);
    sum += w.size();
  }
  return sum;
}

size_t BufferBytes(const RuleExecTable& table, bool with_next) {
  size_t sum = 0;
  for (const RuleExecEntry& e : table.rows()) {
    ByteWriter w;
    e.Serialize(w, with_next);
    sum += w.size();
  }
  return sum;
}

size_t BufferBytes(const RuleExecNodeTable& table) {
  size_t sum = 0;
  for (const RuleExecNodeEntry& e : table.rows()) {
    ByteWriter w;
    e.Serialize(w);
    sum += w.size();
  }
  return sum;
}

size_t BufferBytes(const RuleExecLinkTable& table) {
  size_t sum = 0;
  for (const RuleExecLinkEntry& e : table.rows()) {
    ByteWriter w;
    e.Serialize(w);
    sum += w.size();
  }
  return sum;
}

// A stored tuple costs its 20-byte VID key plus the canonical encoding.
size_t BufferBytes(const TupleStore& store) {
  size_t sum = 0;
  store.ForEach([&](const Tuple& t) {
    ByteWriter w;
    t.Serialize(w);
    sum += 20 + w.size();
  });
  return sum;
}

// Recomputes node `n`'s StorageBreakdown from buffers and compares it,
// field by field, against the recorder's incrementally maintained one.
void CheckNode(Testbed& bed, NodeId n) {
  StorageBreakdown fast = bed.StorageAt(n);
  StorageBreakdown slow;
  switch (bed.scheme()) {
    case Scheme::kExspan: {
      const ExspanRecorder& r = *bed.exspan();
      slow.prov = BufferBytes(r.ProvAt(n), /*with_evid=*/false);
      slow.rule_exec = BufferBytes(r.RuleExecAt(n), /*with_next=*/false);
      slow.event_store = BufferBytes(r.EventsAt(n));
      slow.tuple_store = BufferBytes(r.TuplesAt(n));
      break;
    }
    case Scheme::kBasic: {
      const BasicRecorder& r = *bed.basic();
      slow.prov = BufferBytes(r.ProvAt(n), /*with_evid=*/false);
      slow.rule_exec = BufferBytes(r.RuleExecAt(n), /*with_next=*/true);
      slow.event_store = BufferBytes(r.EventsAt(n));
      slow.tuple_store = BufferBytes(r.TuplesAt(n));
      break;
    }
    case Scheme::kAdvanced:
    case Scheme::kAdvancedInterClass: {
      const AdvancedRecorder& r = *bed.advanced();
      slow.prov = BufferBytes(r.ProvAt(n), /*with_evid=*/true);
      slow.rule_exec =
          bed.scheme() == Scheme::kAdvancedInterClass
              ? BufferBytes(r.RuleExecNodesAt(n)) +
                    BufferBytes(r.RuleExecLinksAt(n))
              : BufferBytes(r.RuleExecAt(n), /*with_next=*/true);
      slow.event_store = BufferBytes(r.EventsAt(n));
      slow.tuple_store = BufferBytes(r.TuplesAt(n));
      break;
    }
    case Scheme::kReference:
      return;  // trees, not tables; nothing incremental to cross-check
  }
  const char* scheme = apps::SchemeName(bed.scheme());
  EXPECT_EQ(fast.prov, slow.prov) << scheme << " node " << n;
  EXPECT_EQ(fast.rule_exec, slow.rule_exec) << scheme << " node " << n;
  EXPECT_EQ(fast.event_store, slow.event_store) << scheme << " node " << n;
  EXPECT_EQ(fast.tuple_store, slow.tuple_store) << scheme << " node " << n;
}

constexpr Scheme kAllTableSchemes[] = {
    Scheme::kExspan, Scheme::kBasic, Scheme::kAdvanced,
    Scheme::kAdvancedInterClass};

// --- forwarding: 3-node chain, two routes, five packets --------------------

std::unique_ptr<Testbed> RunForwardingChain(const Topology& topo,
                                            Scheme scheme) {
  auto program = apps::MakeForwardingProgram();
  EXPECT_TRUE(program.ok());
  auto bed =
      Testbed::Create(std::move(program).value(), &topo, scheme).value();
  NodeId n1 = 0, n2 = 1, n3 = 2;
  EXPECT_TRUE(bed->system().InsertSlowTuple(apps::MakeRoute(n1, n3, n2)).ok());
  EXPECT_TRUE(bed->system().InsertSlowTuple(apps::MakeRoute(n2, n3, n3)).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bed->system()
                    .ScheduleInject(
                        apps::MakePacket(n1, n1, n3, "p" + std::to_string(i)),
                        0.1 * (i + 1))
                    .ok());
  }
  bed->system().Run();
  return bed;
}

Topology MakeChain() {
  Topology topo;
  NodeId n1 = topo.AddNode(), n2 = topo.AddNode(), n3 = topo.AddNode();
  LinkProps lp{0.001, 1e9};
  EXPECT_TRUE(topo.AddLink(n1, n2, lp).ok());
  EXPECT_TRUE(topo.AddLink(n2, n3, lp).ok());
  topo.ComputeRoutes();
  return topo;
}

TEST(AccountingDifferentialTest, ForwardingStorageMatchesBufferBytes) {
  Topology topo = MakeChain();
  for (Scheme scheme : kAllTableSchemes) {
    auto bed = RunForwardingChain(topo, scheme);
    for (NodeId n = 0; n < topo.num_nodes(); ++n) CheckNode(*bed, n);
    // Sanity: the run actually recorded something on the chain.
    EXPECT_GT(bed->TotalStorage().Total(), 0u)
        << apps::SchemeName(scheme);
  }
}

// --- DNS: small nameserver tree, Zipf-free fixed request set ---------------

TEST(AccountingDifferentialTest, DnsStorageMatchesBufferBytes) {
  apps::DnsParams params;
  params.num_servers = 12;
  params.trunk_depth = 4;
  params.num_urls = 6;
  apps::DnsUniverse universe = apps::MakeDnsUniverse(params);

  for (Scheme scheme : kAllTableSchemes) {
    auto program = apps::MakeDnsProgram();
    ASSERT_TRUE(program.ok());
    auto bed = Testbed::Create(std::move(program).value(), &universe.graph,
                               scheme)
                   .value();
    ASSERT_TRUE(apps::InstallDnsState(bed->system(), universe).ok());
    for (size_t i = 0; i < 8; ++i) {
      NodeId client = universe.clients[i % universe.clients.size()];
      const std::string& url = universe.urls[i % universe.urls.size()];
      ASSERT_TRUE(bed->system()
                      .ScheduleInject(apps::MakeUrlEvent(
                                          client, url,
                                          static_cast<int64_t>(i)),
                                      0.05 * static_cast<double>(i + 1))
                      .ok());
    }
    bed->system().Run();
    EXPECT_GT(bed->system().stats().outputs, 0u)
        << apps::SchemeName(scheme);
    for (NodeId n = 0; n < universe.graph.num_nodes(); ++n) {
      CheckNode(*bed, n);
    }
  }
}

}  // namespace
}  // namespace dpc
