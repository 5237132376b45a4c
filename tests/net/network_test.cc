// Network: hop-by-hop delivery, latency accrual, bandwidth accounting,
// broadcast.
#include "src/net/network.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace dpc {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_.AddNodes(4);
    // 0 -- 1 -- 2 -- 3 with 10 ms / 1 Mbps links.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(topo_.AddLink(i, i + 1, LinkProps{0.010, 1e6}).ok());
    }
    topo_.ComputeRoutes();
    net_ = std::make_unique<Network>(&topo_, &queue_);
  }

  Message MakeMsg(NodeId src, NodeId dst, size_t payload_len) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.payload.assign(payload_len, 0xCD);
    return m;
  }

  Topology topo_;
  EventQueue queue_;
  std::unique_ptr<Network> net_;
};

TEST_F(NetworkTest, DeliversToDestination) {
  std::vector<Message> delivered;
  net_->SetDeliveryHandler([&](const Message& m) { delivered.push_back(m); });
  net_->Send(MakeMsg(0, 3, 100));
  queue_.RunAll();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].dst, 3);
  EXPECT_EQ(delivered[0].payload.size(), 100u);
}

TEST_F(NetworkTest, LatencyAccruesPerHop) {
  double arrival = -1;
  net_->SetDeliveryHandler([&](const Message&) { arrival = queue_.now(); });
  // 128-byte wire size (100 + 28 header): 3 hops of 10ms + 1.024ms tx.
  net_->Send(MakeMsg(0, 3, 100));
  queue_.RunAll();
  double per_hop = 0.010 + (100 + kMessageHeaderBytes) * 8.0 / 1e6;
  EXPECT_NEAR(arrival, 3 * per_hop, 1e-9);
}

TEST_F(NetworkTest, LocalDeliveryIsFastAndFree) {
  int delivered = 0;
  net_->SetDeliveryHandler([&](const Message&) { ++delivered; });
  net_->Send(MakeMsg(2, 2, 50));
  queue_.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_->total_bytes_sent(), 0u);
  EXPECT_LT(queue_.now(), 0.001);
}

TEST_F(NetworkTest, BytesChargedPerTraversedLink) {
  net_->SetDeliveryHandler([](const Message&) {});
  net_->Send(MakeMsg(0, 3, 100));
  queue_.RunAll();
  EXPECT_EQ(net_->total_bytes_sent(), 3 * (100 + kMessageHeaderBytes));
  EXPECT_EQ(net_->total_messages(), 1u);
}

TEST_F(NetworkTest, BucketsSplitByTime) {
  net_->set_bucket_width_s(0.02);
  net_->SetDeliveryHandler([](const Message&) {});
  net_->Send(MakeMsg(0, 2, 0));  // hop at t=0 and t~=0.0102
  queue_.RunAll();
  const auto& buckets = net_->bucket_bytes();
  ASSERT_GE(buckets.size(), 1u);
  EXPECT_EQ(buckets[0], 2u * kMessageHeaderBytes);
}

TEST_F(NetworkTest, BroadcastReachesEveryoneButTheOriginator) {
  // §5.5: the inserting node resets its own cache synchronously; the
  // broadcast must not echo the sig back to it.
  std::vector<NodeId> destinations;
  net_->SetDeliveryHandler(
      [&](const Message& m) { destinations.push_back(m.dst); });
  Message m;
  m.kind = MessageKind::kControl;
  net_->Broadcast(1, std::move(m));
  queue_.RunAll();
  std::sort(destinations.begin(), destinations.end());
  EXPECT_EQ(destinations, (std::vector<NodeId>{0, 2, 3}));
}

TEST_F(NetworkTest, ResetAccountingClearsCounters) {
  net_->SetDeliveryHandler([](const Message&) {});
  net_->Send(MakeMsg(0, 3, 10));
  queue_.RunAll();
  ASSERT_GT(net_->total_bytes_sent(), 0u);
  net_->ResetAccounting();
  EXPECT_EQ(net_->total_bytes_sent(), 0u);
  EXPECT_EQ(net_->total_messages(), 0u);
  EXPECT_TRUE(net_->bucket_bytes().empty());
}

TEST_F(NetworkTest, InFlightOrderPreservedOnSamePath) {
  std::vector<int> order;
  net_->SetDeliveryHandler([&](const Message& m) {
    order.push_back(static_cast<int>(m.payload.size()));
  });
  net_->Send(MakeMsg(0, 3, 1));
  net_->Send(MakeMsg(0, 3, 2));
  net_->Send(MakeMsg(0, 3, 3));
  queue_.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(NetworkTest, DownedLinkDropsTraversals) {
  int delivered = 0;
  net_->SetDeliveryHandler([&](const Message&) { ++delivered; });
  ASSERT_TRUE(net_->SetLinkUp(1, 2, false).ok());
  net_->Send(MakeMsg(0, 3, 10));  // must cross 1--2
  net_->Send(MakeMsg(0, 1, 10));  // unaffected
  queue_.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_->dropped_messages(), 1u);
}

TEST_F(NetworkTest, SetLinkUpRestoresDelivery) {
  int delivered = 0;
  net_->SetDeliveryHandler([&](const Message&) { ++delivered; });
  ASSERT_TRUE(net_->SetLinkUp(1, 2, false).ok());
  ASSERT_TRUE(net_->SetLinkUp(1, 2, true).ok());
  net_->Send(MakeMsg(0, 3, 10));
  queue_.RunAll();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, SetLinkUpRejectsUnknownLink) {
  EXPECT_FALSE(net_->SetLinkUp(0, 3, false).ok());  // no direct 0--3 link
}

TEST_F(NetworkTest, ScheduleLinkUpTogglesAtSimTime) {
  int delivered = 0;
  net_->SetDeliveryHandler([&](const Message&) { ++delivered; });
  ASSERT_TRUE(net_->ScheduleLinkUp(1, 2, false, 0.5).ok());
  ASSERT_TRUE(net_->ScheduleLinkUp(1, 2, true, 2.0).ok());
  // t=0: link still up, goes through. t=1: down, dropped. t=3: up again.
  queue_.ScheduleAt(0.0, [&] { net_->Send(MakeMsg(0, 3, 10)); });
  queue_.ScheduleAt(1.0, [&] { net_->Send(MakeMsg(0, 3, 10)); });
  queue_.ScheduleAt(3.0, [&] { net_->Send(MakeMsg(0, 3, 10)); });
  queue_.RunAll();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net_->dropped_messages(), 1u);
}

TEST_F(NetworkTest, PartitionSplitsGroupsAndHeals) {
  int delivered = 0;
  net_->SetDeliveryHandler([&](const Message&) { ++delivered; });
  ASSERT_TRUE(net_->SetPartition({0, 0, 1, 1}).ok());
  net_->Send(MakeMsg(0, 1, 10));  // same group
  net_->Send(MakeMsg(0, 3, 10));  // crosses the cut at 1--2
  queue_.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_->dropped_messages(), 1u);
  ASSERT_TRUE(net_->SetPartition({}).ok());  // heal
  net_->Send(MakeMsg(0, 3, 10));
  queue_.RunAll();
  EXPECT_EQ(delivered, 2);
}

TEST_F(NetworkTest, PartitionRejectsWrongSize) {
  EXPECT_FALSE(net_->SetPartition({0, 1}).ok());
}

TEST_F(NetworkTest, PerLinkLossOverridesGlobalRate) {
  int delivered = 0;
  net_->SetDeliveryHandler([&](const Message&) { ++delivered; });
  net_->SetLossRate(0.9, /*seed=*/7);
  // Overriding every traversed link to 0 makes the path lossless even
  // though the global rate is near-certain loss.
  ASSERT_TRUE(net_->SetLinkLossRate(0, 1, 0.0).ok());
  ASSERT_TRUE(net_->SetLinkLossRate(1, 2, 0.0).ok());
  ASSERT_TRUE(net_->SetLinkLossRate(2, 3, 0.0).ok());
  for (int i = 0; i < 20; ++i) net_->Send(MakeMsg(0, 3, 10));
  queue_.RunAll();
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(net_->dropped_messages(), 0u);
}

TEST_F(NetworkTest, LossIsDeterministicPerSeed) {
  auto run = [&](uint64_t seed) {
    EventQueue q;
    Network net(&topo_, &q);
    std::vector<uint64_t> delivered;
    net.SetDeliveryHandler(
        [&](const Message& m) { delivered.push_back(m.tx_id); });
    net.SetLossRate(0.5, seed);
    for (int i = 0; i < 50; ++i) {
      Message m;
      m.src = 0;
      m.dst = 3;
      m.tx_id = static_cast<uint64_t>(i) + 1;  // 50 distinct transmissions
      net.Send(std::move(m));
    }
    q.RunAll();
    return delivered;
  };
  EXPECT_EQ(run(42), run(42));  // same seed: the same transmissions survive
  EXPECT_GT(run(42).size(), 0u);
  EXPECT_LT(run(42).size(), 50u);
  EXPECT_NE(run(42), run(43));  // different seed: a different drop set
}

TEST_F(NetworkTest, LossIsAPureFunctionOfTransmissionIdentity) {
  // The drop decision hashes (seed, tx_id, link) — it does not consume a
  // shared RNG stream — so whether a given transmission survives is
  // independent of what other traffic exists or in what order it is sent.
  auto survives = [&](uint64_t tx_id, int decoys) {
    EventQueue q;
    Network net(&topo_, &q);
    int got = 0;
    net.SetDeliveryHandler([&](const Message& m) {
      if (m.tx_id == 0xabcdef) ++got;
    });
    net.SetLossRate(0.5, /*seed=*/42);
    for (int i = 0; i < decoys; ++i) {
      Message d;
      d.src = 0;
      d.dst = 3;
      d.tx_id = 1000 + static_cast<uint64_t>(i);
      net.Send(std::move(d));
    }
    Message m;
    m.src = 0;
    m.dst = 3;
    m.tx_id = tx_id;
    net.Send(std::move(m));
    q.RunAll();
    return got;
  };
  int alone = survives(0xabcdef, 0);
  EXPECT_EQ(alone, survives(0xabcdef, 7));
  EXPECT_EQ(alone, survives(0xabcdef, 31));
}

TEST_F(NetworkTest, SendDerivesTxIdFromContent) {
  // Send leaves an unassigned tx_id (0) alone: only a loss draw reads it,
  // so a message that crosses no lossy link is delivered with tx_id 0.
  std::vector<uint64_t> lossless;
  net_->SetDeliveryHandler(
      [&](const Message& m) { lossless.push_back(m.tx_id); });
  net_->Send(MakeMsg(0, 3, 10));
  net_->Send(MakeMsg(0, 3, 25));
  queue_.RunAll();
  EXPECT_EQ(lossless, (std::vector<uint64_t>{0, 0}));

  // Under loss the first draw derives the id from the message content,
  // so byte-identical raw sends share one loss fate and distinct payloads
  // draw independently.
  constexpr size_t kPayloads = 32;
  constexpr int kCopies = 4;
  std::map<size_t, int> copies_delivered;  // payload length -> copies
  std::map<size_t, std::set<uint64_t>> ids;
  net_->SetDeliveryHandler([&](const Message& m) {
    ++copies_delivered[m.payload.size()];
    ids[m.payload.size()].insert(m.tx_id);
  });
  net_->SetLossRate(0.2, /*seed=*/11);
  for (size_t len = 1; len <= kPayloads; ++len) {
    for (int c = 0; c < kCopies; ++c) net_->Send(MakeMsg(0, 3, len));
  }
  queue_.RunAll();
  EXPECT_GT(copies_delivered.size(), 0u);
  EXPECT_LT(copies_delivered.size(), kPayloads);
  std::set<uint64_t> distinct;
  for (const auto& [len, n] : copies_delivered) {
    EXPECT_EQ(n, kCopies) << "payload " << len;  // all copies or none
    ASSERT_EQ(ids[len].size(), 1u);  // same bytes, same identity
    EXPECT_NE(*ids[len].begin(), 0u);
    distinct.insert(*ids[len].begin());
  }
  // Different payload, different identity.
  EXPECT_EQ(distinct.size(), copies_delivered.size());
}

TEST(MessageTest, WireSizeIncludesHeader) {
  Message m;
  m.payload.assign(100, 0);
  EXPECT_EQ(m.WireSize(), 100 + kMessageHeaderBytes);
}

// Modeled padding must be indistinguishable on the wire from the same
// number of real trailing zero bytes: the same WireSize, content tx_id,
// per-hop arrival times, bandwidth buckets and, under loss, the same
// surviving transmissions.
TEST_F(NetworkTest, PaddingActsLikeRealZeroBytes) {
  struct Outcome {
    std::vector<std::pair<uint64_t, double>> arrivals;  // (tx_id, time)
    uint64_t bytes = 0;
    uint64_t dropped = 0;
    std::vector<uint64_t> buckets;
    bool operator==(const Outcome&) const = default;
  };
  auto make = [](int i, size_t n, bool modeled) {
    Message m;
    m.src = 0;
    m.dst = 3;
    m.payload = {static_cast<uint8_t>(i), 0x5A, static_cast<uint8_t>(i * 7)};
    if (modeled) {
      m.padding = n;
    } else {
      m.payload.resize(m.payload.size() + n, 0);
    }
    return m;
  };
  auto run = [&](size_t n, bool modeled, double loss) {
    EventQueue q;
    Network net(&topo_, &q);
    net.set_bucket_width_s(0.01);
    if (loss > 0) net.SetLossRate(loss, /*seed=*/5);
    Outcome out;
    net.SetDeliveryHandler([&](const Message& m) {
      EXPECT_EQ(m.padding, modeled ? n : 0u);
      out.arrivals.emplace_back(m.tx_id, q.now());
    });
    for (int i = 0; i < 24; ++i) net.Send(make(i, n, modeled));
    q.RunAll();
    out.bytes = net.total_bytes_sent();
    out.dropped = net.dropped_messages();
    out.buckets = net.bucket_bytes();
    return out;
  };
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{4096},
                   size_t{1} << 20}) {
    SCOPED_TRACE("padding " + std::to_string(n));
    EXPECT_EQ(make(0, n, true).WireSize(), make(0, n, false).WireSize());
    Outcome lossless = run(n, true, 0);
    ASSERT_EQ(lossless.arrivals.size(), 24u);
    EXPECT_EQ(lossless, run(n, false, 0));
    Outcome lossy = run(n, true, 0.3);
    EXPECT_GT(lossy.arrivals.size(), 0u);
    EXPECT_LT(lossy.arrivals.size(), 24u);
    EXPECT_EQ(lossy, run(n, false, 0.3));
  }
}

}  // namespace
}  // namespace dpc
