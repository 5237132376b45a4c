// Corrupt stored provenance and bad query targets never abort a query,
// and the analytic and distributed engines fail them with the same code.
//
// Each case restores a node's tables with rows a damaged checkpoint or a
// faulty peer could produce, then queries the output through
// Testbed::MakeQuerier() and through DistributedQuerier:
//   * a chain row (or ExSPAN derivation) that refers back to itself runs
//     into the walk's depth limit: Internal;
//   * a prov row naming a node outside the topology: Internal;
//   * a chain row naming a rule the program does not have: Internal;
//   * a query target outside the topology: InvalidArgument.
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"
#include "src/core/distributed_query.h"
#include "src/core/snapshot.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;

// Two linked nodes: a packet injected at n0 is forwarded to n1 (r1) and
// received there (r2), so n1 stores the output's prov row and the row of
// the last rule execution.
class QueryCorruptInputTest : public ::testing::TestWithParam<Scheme> {
 protected:
  void SetUp() override {
    n0_ = topo_.AddNode();
    n1_ = topo_.AddNode();
    ASSERT_TRUE(topo_.AddLink(n0_, n1_, LinkProps{0.001, 1e9}).ok());
    topo_.ComputeRoutes();
    auto program = apps::MakeForwardingProgram();
    ASSERT_TRUE(program.ok());
    auto bed = Testbed::Create(std::move(program).value(), &topo_, GetParam());
    ASSERT_TRUE(bed.ok());
    bed_ = std::move(bed).value();
    System& sys = bed_->system();
    ASSERT_TRUE(sys.InsertSlowTuple(apps::MakeRoute(n0_, n1_, n1_)).ok());
    ASSERT_TRUE(
        sys.ScheduleInject(apps::MakePacket(n0_, n0_, n1_, "x"), 0.1).ok());
    sys.Run();
    recv_ = apps::MakeRecv(n1_, n0_, n1_, "x");
  }

  bool IsChainScheme() const { return GetParam() != Scheme::kExspan; }

  // Rewrites node `n`'s tables through `edit` and restores them, as a
  // restart from a damaged checkpoint would.
  void Corrupt(NodeId n, const std::function<void(NodeSnapshot&)>& edit) {
    ByteWriter w;
    bed_->recorder().SerializeNodeState(n, w);
    ByteReader r(w.bytes());
    auto snap = NodeSnapshot::Deserialize(r);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    // The recorder's own state follows the tables; keep it as is.
    std::vector<uint8_t> rest(w.bytes().end() - r.remaining(),
                              w.bytes().end());
    edit(*snap);
    ByteWriter out;
    snap->Serialize(out);
    for (uint8_t b : rest) out.PutU8(b);
    ByteReader in(out.bytes());
    Status st = bed_->recorder().RestoreNodeState(n, in);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  std::unique_ptr<DistributedQuerier> MakeDistributed() {
    switch (GetParam()) {
      case Scheme::kExspan:
        return DistributedQuerier::ForExspan(bed_->exspan(), &topo_,
                                             &bed_->queue());
      case Scheme::kBasic:
        return DistributedQuerier::ForBasic(bed_->basic(), &bed_->program(),
                                            &bed_->system().functions(),
                                            &topo_, &bed_->queue());
      default:
        return DistributedQuerier::ForAdvanced(
            bed_->advanced(), &bed_->program(), &bed_->system().functions(),
            &topo_, &bed_->queue());
    }
  }

  // Both engines must fail `target` with `code`.
  void ExpectBothFail(const Tuple& target, StatusCode code) {
    auto local = bed_->MakeQuerier()->Query(target);
    EXPECT_EQ(local.status().code(), code)
        << "local: " << local.status().ToString();
    auto distributed = MakeDistributed()->QueryAndWait(target);
    EXPECT_EQ(distributed.status().code(), code)
        << "distributed: " << distributed.status().ToString();
  }

  Topology topo_;
  NodeId n0_ = kNullNode, n1_ = kNullNode;
  std::unique_ptr<Testbed> bed_;
  Tuple recv_;
};

TEST_P(QueryCorruptInputTest, IntactRowsAnswerInBothEngines) {
  auto local = bed_->MakeQuerier()->Query(recv_);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto distributed = MakeDistributed()->QueryAndWait(recv_);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  EXPECT_EQ(local->trees, distributed->trees);
  EXPECT_EQ(local->trees.size(), 1u);
}

TEST_P(QueryCorruptInputTest, SelfReferencingChainIsInternal) {
  Corrupt(n1_, [&](NodeSnapshot& snap) {
    for (RuleExecEntry& row : snap.rule_exec) {
      if (IsChainScheme()) {
        row.next = NodeRid{row.rloc, row.rid};
      } else {
        // ExSPAN: the execution that derived recv now consumed recv.
        ASSERT_FALSE(row.vids.empty());
        row.vids[0] = recv_.Vid();
      }
    }
    for (RuleExecLinkEntry& link : snap.exec_links) {
      link.next = NodeRid{link.rloc, link.rid};
    }
  });
  ExpectBothFail(recv_, StatusCode::kInternal);
}

TEST_P(QueryCorruptInputTest, RowNamingMissingNodeIsInternal) {
  Corrupt(n1_, [](NodeSnapshot& snap) {
    ASSERT_FALSE(snap.prov.empty());
    for (ProvEntry& row : snap.prov) row.rule.loc = 5000;
  });
  ExpectBothFail(recv_, StatusCode::kInternal);
}

TEST_P(QueryCorruptInputTest, UnknownRuleIdIsInternal) {
  if (!IsChainScheme()) {
    GTEST_SKIP() << "ExSPAN assembles stored tuples and re-executes no rule";
  }
  Corrupt(n1_, [](NodeSnapshot& snap) {
    for (RuleExecEntry& row : snap.rule_exec) row.rule_id = "no_such_rule";
    for (RuleExecNodeEntry& node : snap.exec_nodes) {
      node.rule_id = "no_such_rule";
    }
  });
  ExpectBothFail(recv_, StatusCode::kInternal);
}

TEST_P(QueryCorruptInputTest, TargetOutsideTopologyIsInvalidArgument) {
  ExpectBothFail(apps::MakeRecv(99, n0_, n1_, "x"),
                 StatusCode::kInvalidArgument);
  ExpectBothFail(apps::MakeRecv(-1, n0_, n1_, "x"),
                 StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, QueryCorruptInputTest,
    ::testing::Values(Scheme::kExspan, Scheme::kBasic, Scheme::kAdvanced,
                      Scheme::kAdvancedInterClass),
    [](const auto& info) {
      std::string name = apps::SchemeName(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dpc
