// System: pipelined semi-naïve execution over the network — injection
// validation, multi-hop derivation, outputs, stats, callbacks.
#include "src/runtime/system.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/apps/dns.h"
#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_.AddNodes(3);
    ASSERT_TRUE(topo_.AddLink(0, 1, LinkProps{0.001, 1e9}).ok());
    ASSERT_TRUE(topo_.AddLink(1, 2, LinkProps{0.001, 1e9}).ok());
    topo_.ComputeRoutes();
    auto program = apps::MakeForwardingProgram();
    ASSERT_TRUE(program.ok());
    auto bed = Testbed::Create(std::move(program).value(), &topo_,
                               Scheme::kReference);
    ASSERT_TRUE(bed.ok());
    bed_ = std::move(bed).value();
  }

  System& sys() { return bed_->system(); }

  Topology topo_;
  std::unique_ptr<Testbed> bed_;
};

TEST_F(SystemTest, RejectsNonSlowChangingInsert) {
  Status st = sys().InsertSlowTuple(apps::MakePacket(0, 0, 2, "x"));
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(SystemTest, RejectsOutOfRangeNode) {
  EXPECT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(99, 2, 1)).IsOutOfRange());
  EXPECT_TRUE(sys()
                  .ScheduleInject(apps::MakePacket(99, 0, 2, "x"), 0)
                  .IsOutOfRange());
}

TEST_F(SystemTest, RejectsWrongInjectionRelation) {
  Status st = sys().ScheduleInject(apps::MakeRecv(0, 0, 2, "x"), 0);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(SystemTest, DeleteMissingTupleIsNotFound) {
  EXPECT_TRUE(sys().DeleteSlowTuple(apps::MakeRoute(0, 2, 1)).IsNotFound());
}

TEST_F(SystemTest, RejectsNonSlowChangingDelete) {
  // Delete must validate the relation exactly like insert does: a packet
  // event is not slow-changing state, even if an equal-looking tuple
  // happens to sit in the database.
  Status st = sys().DeleteSlowTuple(apps::MakePacket(0, 0, 2, "x"));
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(SystemTest, EndToEndForwarding) {
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(0, 2, 1)).ok());
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(1, 2, 2)).ok());
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "hi"), 0).ok());
  sys().Run();

  EXPECT_EQ(sys().stats().events_injected, 1u);
  EXPECT_EQ(sys().stats().rule_firings, 3u);  // r1@0, r1@1, r2@2
  EXPECT_EQ(sys().stats().outputs, 1u);
  ASSERT_EQ(sys().OutputsAt(2).size(), 1u);
  EXPECT_EQ(sys().OutputsAt(2)[0].tuple, apps::MakeRecv(2, 0, 2, "hi"));
  // The recv tuple is materialized in node 2's database.
  EXPECT_TRUE(sys().DbAt(2).Contains(apps::MakeRecv(2, 0, 2, "hi")));
}

TEST_F(SystemTest, OutputTimeReflectsPropagation) {
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(0, 2, 1)).ok());
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(1, 2, 2)).ok());
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "hi"), 5.0).ok());
  sys().Run();
  ASSERT_EQ(sys().OutputsAt(2).size(), 1u);
  EXPECT_GT(sys().OutputsAt(2)[0].time, 5.0);
  EXPECT_LT(sys().OutputsAt(2)[0].time, 5.1);
}

TEST_F(SystemTest, PacketWithoutRouteDiesSilently) {
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "hi"), 0).ok());
  sys().Run();
  EXPECT_EQ(sys().stats().outputs, 0u);
  EXPECT_EQ(sys().stats().rule_firings, 0u);
}

TEST_F(SystemTest, SelfDestinedPacketDeliversLocally) {
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(2, 0, 2, "hi"), 0).ok());
  sys().Run();
  ASSERT_EQ(sys().OutputsAt(2).size(), 1u);
  EXPECT_EQ(sys().OutputsAt(2)[0].tuple, apps::MakeRecv(2, 0, 2, "hi"));
}

TEST_F(SystemTest, OutputCallbackFires) {
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(0, 2, 1)).ok());
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(1, 2, 2)).ok());
  int called = 0;
  sys().SetOutputCallback([&](NodeId node, const OutputRecord& rec) {
    EXPECT_EQ(node, 2);
    EXPECT_EQ(rec.tuple.relation(), "recv");
    ++called;
  });
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "a"), 0).ok());
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "b"), 1).ok());
  sys().Run();
  EXPECT_EQ(called, 2);
}

TEST_F(SystemTest, AllOutputsAggregates) {
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(0, 2, 1)).ok());
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(1, 2, 2)).ok());
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "a"), 0).ok());
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(2, 2, 2, "b"), 0).ok());
  sys().Run();
  EXPECT_EQ(sys().AllOutputs().size(), 2u);
}

TEST_F(SystemTest, MulticastRoutesDeriveMultipleOutputs) {
  // Two route entries for the same destination at node 0: the rule fires
  // twice and both copies arrive (one direct path, one via node 1).
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(0, 2, 1)).ok());
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(0, 2, 2)).ok());
  ASSERT_TRUE(sys().InsertSlowTuple(apps::MakeRoute(1, 2, 2)).ok());
  ASSERT_TRUE(sys().ScheduleInject(apps::MakePacket(0, 0, 2, "hi"), 0).ok());
  sys().Run();
  EXPECT_EQ(sys().stats().outputs, 2u);
}

TEST(SystemDnsTest, ResolvesThroughDelegationChain) {
  apps::DnsParams params;
  params.num_servers = 12;
  params.num_clients = 3;
  params.num_urls = 6;
  params.trunk_depth = 5;
  apps::DnsUniverse universe = apps::MakeDnsUniverse(params);

  auto program = apps::MakeDnsProgram();
  ASSERT_TRUE(program.ok());
  auto bed = Testbed::Create(std::move(program).value(), &universe.graph,
                             Scheme::kReference);
  ASSERT_TRUE(bed.ok());
  ASSERT_TRUE(apps::InstallDnsState((*bed)->system(), universe).ok());

  // Resolve every URL from every client.
  int64_t rqid = 0;
  for (NodeId client : universe.clients) {
    for (const std::string& url : universe.urls) {
      ++rqid;
      ASSERT_TRUE((*bed)
                      ->system()
                      .ScheduleInject(apps::MakeUrlEvent(client, url, rqid),
                                      0.001 * static_cast<double>(rqid))
                      .ok());
    }
  }
  (*bed)->system().Run();

  size_t expected = universe.clients.size() * universe.urls.size();
  EXPECT_EQ((*bed)->system().stats().outputs, expected);

  // Every reply carries the address record's IP for its URL.
  for (NodeId client : universe.clients) {
    for (const OutputRecord& out : (*bed)->system().OutputsAt(client)) {
      ASSERT_EQ(out.tuple.relation(), "reply");
      const std::string& url = out.tuple.at(1).AsString();
      auto it = std::find(universe.urls.begin(), universe.urls.end(), url);
      ASSERT_NE(it, universe.urls.end());
      size_t k = static_cast<size_t>(it - universe.urls.begin());
      EXPECT_EQ(out.tuple.at(2).AsInt(),
                0x0A000000 + static_cast<int64_t>(k));
    }
  }
}

// Integer operands are untrusted peer bytes: an event whose arithmetic
// overflows fails its rule (logged) instead of raising SIGFPE, the
// message is still accepted, and the node keeps running.
TEST(SystemArithmeticTest, OverflowingEventFailsItsRuleAndEmitsNothing) {
  auto program = Program::Parse("r1 out(@L, Q, R) :- ev(@L, A, B), "
                                "Q := A / B, R := A % B.\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Topology topo;
  topo.AddNodes(1);
  topo.ComputeRoutes();
  EventQueue queue;
  Network network(&topo, &queue);
  System sys(&*program, &topo, &network, &queue, FunctionRegistry{},
             /*recorder=*/nullptr);
  auto deliver = [&](int64_t a, int64_t b) {
    ByteWriter w;
    Tuple::Make("ev", 0, {Value::Int(a), Value::Int(b)}).Serialize(w);
    Message msg;
    msg.kind = MessageKind::kEvent;
    msg.src = 0;
    msg.dst = 0;
    msg.payload = w.Take();
    return sys.HandleMessage(msg);
  };

  EXPECT_TRUE(deliver(INT64_MIN, -1).ok());
  EXPECT_EQ(sys.stats().rule_firings, 0u);
  EXPECT_TRUE(sys.AllOutputs().empty());

  // The node still derives from well-formed values afterwards.
  EXPECT_TRUE(deliver(INT64_MIN, 2).ok());
  ASSERT_EQ(sys.AllOutputs().size(), 1u);
  EXPECT_EQ(sys.AllOutputs()[0].tuple,
            Tuple::Make("out", 0, {Value::Int(INT64_MIN / 2), Value::Int(0)}));
}

// Constant folding at System construction (the planner) and in the
// analyzer must survive a constant expression that overflows.
TEST(SystemArithmeticTest, OverflowingConstantExpressionLoads) {
  auto program = Program::Parse(
      "r1 out(@L, Q) :- ev(@L, A), "
      "Q := (0 - 9223372036854775807 - 1) / (0 - 1).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Topology topo;
  topo.AddNodes(1);
  topo.ComputeRoutes();
  EventQueue queue;
  Network network(&topo, &queue);
  System sys(&*program, &topo, &network, &queue, FunctionRegistry{},
             /*recorder=*/nullptr);
  ASSERT_TRUE(sys.ScheduleInject(Tuple::Make("ev", 0, {Value::Int(1)}), 0.1)
                  .ok());
  sys.Run();
  EXPECT_EQ(sys.stats().events_injected, 1u);
  EXPECT_EQ(sys.stats().rule_firings, 0u);
}

}  // namespace
}  // namespace dpc
