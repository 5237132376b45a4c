// Message-driven distributed querying (§5.6): the trees must equal the
// analytic queriers' output for every scheme; measured latency accrues
// from the simulated network and parallel branch fan-out caps it at the
// slowest branch rather than the branch sum.
#include "src/core/distributed_query.h"

#include <gtest/gtest.h>

#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;

class DistributedQueryTest : public ::testing::TestWithParam<Scheme> {
 protected:
  void SetUp() override {
    TransitStubParams params;
    params.num_transit = 2;
    params.stubs_per_transit = 2;
    params.nodes_per_stub = 4;
    topo_ = MakeTransitStub(params);

    auto program = apps::MakeForwardingProgram();
    ASSERT_TRUE(program.ok());
    auto bed = Testbed::Create(std::move(program).value(), &topo_.graph,
                               GetParam());
    ASSERT_TRUE(bed.ok());
    bed_ = std::move(bed).value();

    Rng rng(11);
    pairs_ = apps::PickCommunicatingPairs(topo_, 6, rng);
    for (auto [s, d] : pairs_) {
      ASSERT_TRUE(
          apps::InstallRoutesForPair(bed_->system(), topo_.graph, s, d).ok());
    }
    double t = 0;
    for (int round = 0; round < 3; ++round) {
      for (auto [s, d] : pairs_) {
        ASSERT_TRUE(bed_->system()
                        .ScheduleInject(
                            apps::MakePacket(
                                s, s, d,
                                apps::MakePayload(64, round * 100 + s)),
                            t += 0.001)
                        .ok());
      }
    }
    bed_->system().Run();
    ASSERT_GT(bed_->system().stats().outputs, 0u);
  }

  std::unique_ptr<DistributedQuerier> MakeDistributed() {
    switch (GetParam()) {
      case Scheme::kExspan:
        return DistributedQuerier::ForExspan(bed_->exspan(), &topo_.graph,
                                             &bed_->queue());
      case Scheme::kBasic:
        return DistributedQuerier::ForBasic(
            bed_->basic(), &bed_->program(), &bed_->system().functions(),
            &topo_.graph, &bed_->queue());
      case Scheme::kAdvanced:
      case Scheme::kAdvancedInterClass:
        return DistributedQuerier::ForAdvanced(
            bed_->advanced(), &bed_->program(), &bed_->system().functions(),
            &topo_.graph, &bed_->queue());
      default:
        return nullptr;
    }
  }

  TransitStubTopology topo_;
  std::unique_ptr<Testbed> bed_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

TEST_P(DistributedQueryTest, TreesMatchAnalyticQuerier) {
  auto distributed = MakeDistributed();
  ASSERT_NE(distributed, nullptr);
  auto analytic = bed_->MakeQuerier();

  // Only the Advanced schemes ship the EVID with the output (§5.3);
  // ExSPAN and Basic queries identify derivations by tuple alone.
  bool use_evid = GetParam() == Scheme::kAdvanced ||
                  GetParam() == Scheme::kAdvancedInterClass;
  size_t checked = 0;
  for (const OutputRecord& out : bed_->system().AllOutputs()) {
    Vid evid = out.meta.evid;
    const Vid* evid_ptr = use_evid ? &evid : nullptr;
    auto expected = analytic->Query(out.tuple, evid_ptr);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto got = distributed->QueryAndWait(out.tuple, evid_ptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // One traversal behind both engines: the same trees in the same
    // order, and the same rows read.
    EXPECT_EQ(got->trees, expected->trees) << out.tuple.ToString();
    EXPECT_EQ(got->entries_touched, expected->entries_touched)
        << out.tuple.ToString();
    EXPECT_EQ(got->bytes_transferred, expected->bytes_transferred)
        << out.tuple.ToString();
    EXPECT_GT(got->latency_s, 0);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
  EXPECT_GT(distributed->network().total_bytes_sent(), 0u);
}

TEST_P(DistributedQueryTest, MissingTupleFailsCleanly) {
  auto distributed = MakeDistributed();
  auto res = distributed->QueryAndWait(
      apps::MakeRecv(pairs_[0].second, 1, pairs_[0].second, "ghost"));
  EXPECT_TRUE(res.status().IsNotFound());
}

TEST_P(DistributedQueryTest, AsyncCompletionDeliversOnQueue) {
  auto distributed = MakeDistributed();
  OutputRecord out = bed_->system().AllOutputs().front();
  bool fired = false;
  distributed->QueryAsync(out.tuple, nullptr, bed_->queue().now() + 1.0,
                          [&](Result<QueryResult> res) {
                            EXPECT_TRUE(res.ok());
                            fired = true;
                          });
  EXPECT_FALSE(fired);
  bed_->queue().RunAll();
  EXPECT_TRUE(fired);
}

TEST_P(DistributedQueryTest, ReliableTransportMatchesAnalyticUnderLoss) {
  // 20% per-traversal loss on the query network: with ack/retransmit the
  // protocol must still reconstruct exactly the analytic trees.
  auto distributed = MakeDistributed();
  distributed->network().SetLossRate(0.2, /*seed=*/17);
  TransportOptions retry_forever;
  retry_forever.max_attempts = 0;  // loss is transient: never give up
  distributed->EnableReliableTransport(retry_forever);
  auto analytic = bed_->MakeQuerier();
  bool use_evid = GetParam() == Scheme::kAdvanced ||
                  GetParam() == Scheme::kAdvancedInterClass;
  size_t checked = 0;
  for (const OutputRecord& out : bed_->system().AllOutputs()) {
    Vid evid = out.meta.evid;
    const Vid* evid_ptr = use_evid ? &evid : nullptr;
    auto expected = analytic->Query(out.tuple, evid_ptr);
    ASSERT_TRUE(expected.ok());
    auto got = distributed->QueryAndWait(out.tuple, evid_ptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->trees, expected->trees);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
  EXPECT_GT(distributed->network().dropped_messages(), 0u);
  EXPECT_GT(distributed->transport()->stats().retransmissions, 0u);
  EXPECT_EQ(distributed->transport()->stats().delivery_failures, 0u);
}

TEST_P(DistributedQueryTest, LossyQueriesNeverHangOrAbort) {
  // Raw lossy network, no transport: every query must still terminate —
  // with the result, or with DeadlineExceeded once loss orphans it.
  auto distributed = MakeDistributed();
  distributed->network().SetLossRate(0.6, /*seed=*/23);
  size_t ok = 0, deadline = 0;
  for (const OutputRecord& out : bed_->system().AllOutputs()) {
    auto res = distributed->QueryAndWait(out.tuple);
    if (res.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(res.status().IsDeadlineExceeded())
          << res.status().ToString();
      ++deadline;
    }
  }
  EXPECT_EQ(ok + deadline, bed_->system().AllOutputs().size());
  EXPECT_GT(deadline, 0u);  // 60% loss over many multi-hop queries
}

TEST_P(DistributedQueryTest, PartitionedQueryHitsTheDeadline) {
  auto distributed = MakeDistributed();
  distributed->set_default_deadline_s(0.5);
  // Isolate every node: all remote query frames are dropped.
  std::vector<int> groups(topo_.graph.num_nodes());
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = static_cast<int>(i);
  ASSERT_TRUE(distributed->network().SetPartition(groups).ok());
  size_t completions = 0, deadline = 0;
  for (const OutputRecord& out : bed_->system().AllOutputs()) {
    auto res = distributed->QueryAndWait(out.tuple);
    ++completions;
    if (!res.ok()) {
      ASSERT_TRUE(res.status().IsDeadlineExceeded())
          << res.status().ToString();
      ++deadline;
    }
  }
  EXPECT_EQ(completions, bed_->system().AllOutputs().size());
  EXPECT_GT(deadline, 0u);
}

TEST_P(DistributedQueryTest, TransportGiveUpFailsQueryUnderPartition) {
  // Reliable transport with bounded attempts across a permanent partition:
  // the transport abandons the frame and the query fails cleanly instead
  // of retrying forever.
  auto distributed = MakeDistributed();
  TransportOptions options;
  options.initial_rto_s = 0.05;
  options.max_attempts = 3;
  distributed->EnableReliableTransport(options);
  std::vector<int> groups(topo_.graph.num_nodes());
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = static_cast<int>(i);
  ASSERT_TRUE(distributed->network().SetPartition(groups).ok());
  size_t deadline = 0;
  for (const OutputRecord& out : bed_->system().AllOutputs()) {
    auto res = distributed->QueryAndWait(out.tuple);
    if (!res.ok()) {
      ASSERT_TRUE(res.status().IsDeadlineExceeded())
          << res.status().ToString();
      ++deadline;
    }
  }
  EXPECT_GT(deadline, 0u);
  EXPECT_GT(distributed->transport()->stats().delivery_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DistributedQueryTest,
    ::testing::Values(Scheme::kExspan, Scheme::kBasic, Scheme::kAdvanced,
                      Scheme::kAdvancedInterClass),
    [](const auto& info) {
      std::string name = apps::SchemeName(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(DistributedQueryLatencyTest, ParallelBranchesBeatSequentialSum) {
  // A diamond with multicast: the analytic model walks branches
  // depth-first (sum), the distributed protocol fans out (max).
  Topology topo;
  NodeId n1 = topo.AddNode(), n2 = topo.AddNode(), n3 = topo.AddNode(),
         n4 = topo.AddNode();
  LinkProps lp{0.005, 1e9};
  ASSERT_TRUE(topo.AddLink(n1, n2, lp).ok());
  ASSERT_TRUE(topo.AddLink(n2, n3, lp).ok());
  ASSERT_TRUE(topo.AddLink(n1, n4, lp).ok());
  ASSERT_TRUE(topo.AddLink(n4, n3, lp).ok());
  topo.ComputeRoutes();

  auto program = apps::MakeForwardingProgram();
  ASSERT_TRUE(program.ok());
  auto bed =
      Testbed::Create(std::move(program).value(), &topo, Scheme::kExspan)
          .value();
  System& sys = bed->system();
  ASSERT_TRUE(sys.InsertSlowTuple(apps::MakeRoute(n1, n3, n2)).ok());
  ASSERT_TRUE(sys.InsertSlowTuple(apps::MakeRoute(n1, n3, n4)).ok());
  ASSERT_TRUE(sys.InsertSlowTuple(apps::MakeRoute(n2, n3, n3)).ok());
  ASSERT_TRUE(sys.InsertSlowTuple(apps::MakeRoute(n4, n3, n3)).ok());
  ASSERT_TRUE(
      sys.ScheduleInject(apps::MakePacket(n1, n1, n3, "m"), 0.1).ok());
  sys.Run();

  Tuple recv = apps::MakeRecv(n3, n1, n3, "m");
  auto analytic = bed->MakeQuerier()->Query(recv);
  auto distributed =
      DistributedQuerier::ForExspan(bed->exspan(), &topo, &bed->queue());
  auto parallel = distributed->QueryAndWait(recv);
  ASSERT_TRUE(analytic.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->trees.size(), 2u);
  ASSERT_EQ(analytic->trees.size(), 2u);
  for (const ProvTree& tree : parallel->trees) {
    EXPECT_NE(std::find(analytic->trees.begin(), analytic->trees.end(),
                        tree),
              analytic->trees.end());
  }
  EXPECT_LT(parallel->latency_s, analytic->latency_s);
}

}  // namespace
}  // namespace dpc
