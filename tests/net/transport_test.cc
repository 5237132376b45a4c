// ReliableTransport: ack/retransmit/backoff, exactly-once dedup, bounded
// give-up, determinism under seeded loss.
#include "src/net/transport.h"

#include <gtest/gtest.h>

#include <vector>

namespace dpc {
namespace {

class TransportTest : public ::testing::Test {
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

  void MakeTransport(TransportOptions options = {}) {
    transport_ = std::make_unique<ReliableTransport>(net_.get(), &queue_,
                                                     options);
    transport_->SetDeliveryHandler(
        [this](const Message& m) { delivered_.push_back(m); });
  }

  Message MakeMsg(NodeId src, NodeId dst, uint8_t tag) {
    Message m;
    m.kind = MessageKind::kEvent;
    m.src = src;
    m.dst = dst;
    m.payload.assign(16, tag);
    return m;
  }

  Topology topo_;
  EventQueue queue_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<ReliableTransport> transport_;
  std::vector<Message> delivered_;
};

TEST_F(TransportTest, LosslessDeliveryIsTransparent) {
  MakeTransport();
  transport_->Send(MakeMsg(0, 3, 0xAA));
  queue_.RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].dst, 3);
  EXPECT_EQ(delivered_[0].kind, MessageKind::kEvent);
  // The transport header must be stripped before the application sees it.
  EXPECT_EQ(delivered_[0].payload, std::vector<uint8_t>(16, 0xAA));
  EXPECT_EQ(transport_->stats().retransmissions, 0u);
  EXPECT_EQ(transport_->in_flight(), 0u);
}

TEST_F(TransportTest, RetransmitsUntilDeliveredUnderHeavyLoss) {
  // 50% per-traversal loss over 3 hops leaves ~1.6% end-to-end success per
  // attempt; loss is transient, so retry forever rather than give up.
  TransportOptions options;
  options.max_attempts = 0;
  MakeTransport(options);
  net_->SetLossRate(0.5, /*seed=*/3);
  for (int i = 0; i < 20; ++i) {
    transport_->Send(MakeMsg(0, 3, static_cast<uint8_t>(i)));
  }
  queue_.RunAll();
  EXPECT_EQ(delivered_.size(), 20u);
  EXPECT_GT(transport_->stats().retransmissions, 0u);
  EXPECT_EQ(transport_->stats().delivery_failures, 0u);
  EXPECT_EQ(transport_->in_flight(), 0u);
}

TEST_F(TransportTest, LostAckTriggersResendButDeliversOnce) {
  TransportOptions options;
  options.max_attempts = 0;
  MakeTransport(options);
  // Drop the very first traversal 1->0 the ack takes; data 0->1 is clean.
  // Easiest deterministic setup: full loss on the link only after the data
  // frame got through once. Instead, force it with a one-shot hook: down
  // the link while the ack is in flight is timing-fragile, so use loss on
  // every traversal with a seed known to lose some acks: the observable
  // contract is what matters — exactly-once delivery, duplicates
  // suppressed, duplicate deliveries re-acked.
  net_->SetLossRate(0.4, /*seed=*/11);
  for (int i = 0; i < 30; ++i) {
    transport_->Send(MakeMsg(0, 1, static_cast<uint8_t>(i)));
  }
  queue_.RunAll();
  EXPECT_EQ(delivered_.size(), 30u);  // exactly once each, no duplicates
  EXPECT_EQ(transport_->stats().duplicates_suppressed +
                transport_->stats().data_frames_sent,
            transport_->stats().acks_sent);
  EXPECT_EQ(transport_->in_flight(), 0u);
}

TEST_F(TransportTest, BackoffCapsAtMaxRto) {
  TransportOptions options;
  options.initial_rto_s = 0.1;
  options.backoff_factor = 2.0;
  options.max_rto_s = 0.4;
  options.max_attempts = 5;
  MakeTransport(options);
  ASSERT_TRUE(net_->SetLinkUp(0, 1, false).ok());
  transport_->Send(MakeMsg(0, 1, 1));
  queue_.RunAll();
  // Attempts at t=0, .1, .3, .7, 1.1 (rto 0.1, 0.2, 0.4, 0.4), giving up
  // one rto after the 5th attempt: t = 1.5.
  EXPECT_EQ(transport_->stats().delivery_failures, 1u);
  EXPECT_EQ(transport_->stats().retransmissions, 4u);
  EXPECT_NEAR(queue_.now(), 1.5, 1e-9);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(TransportTest, FailureHandlerGetsTheOriginalMessage) {
  TransportOptions options;
  options.max_attempts = 2;
  MakeTransport(options);
  std::vector<Message> failed;
  transport_->SetFailureHandler(
      [&](const Message& m) { failed.push_back(m); });
  ASSERT_TRUE(net_->SetLinkUp(2, 3, false).ok());
  transport_->Send(MakeMsg(0, 3, 0x5C));
  queue_.RunAll();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].dst, 3);
  EXPECT_EQ(failed[0].payload, std::vector<uint8_t>(16, 0x5C));
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(transport_->in_flight(), 0u);
}

TEST_F(TransportTest, RecoversWhenLinkHealsBeforeGiveUp) {
  TransportOptions options;
  options.initial_rto_s = 0.2;
  options.max_attempts = 16;
  MakeTransport(options);
  ASSERT_TRUE(net_->SetLinkUp(1, 2, false).ok());
  ASSERT_TRUE(net_->ScheduleLinkUp(1, 2, true, 1.0).ok());
  transport_->Send(MakeMsg(0, 3, 0x77));
  queue_.RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(transport_->stats().delivery_failures, 0u);
  EXPECT_GT(transport_->stats().retransmissions, 0u);
}

TEST_F(TransportTest, SurvivesATransientPartition) {
  MakeTransport();
  ASSERT_TRUE(net_->SetPartition({0, 0, 1, 1}).ok());
  net_->SchedulePartition({}, 2.0);  // heal at t=2
  transport_->Send(MakeMsg(0, 3, 0x33));
  queue_.RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(transport_->stats().delivery_failures, 0u);
}

TEST_F(TransportTest, BroadcastSkipsOriginatorAndIsReliable) {
  MakeTransport();
  net_->SetLossRate(0.3, /*seed=*/5);
  Message m;
  m.kind = MessageKind::kControl;
  transport_->Broadcast(1, std::move(m));
  queue_.RunAll();
  std::vector<NodeId> destinations;
  for (const Message& d : delivered_) destinations.push_back(d.dst);
  std::sort(destinations.begin(), destinations.end());
  EXPECT_EQ(destinations, (std::vector<NodeId>{0, 2, 3}));
}

TEST_F(TransportTest, DeterministicPerSeed) {
  auto run = [&](uint64_t seed) {
    EventQueue q;
    Network net(&topo_, &q);
    ReliableTransport transport(&net, &q);
    uint64_t count = 0;
    transport.SetDeliveryHandler([&](const Message&) { ++count; });
    net.SetLossRate(0.4, seed);
    Message m;
    m.kind = MessageKind::kEvent;
    for (int i = 0; i < 25; ++i) {
      m.src = 0;
      m.dst = 3;
      m.payload.assign(8, static_cast<uint8_t>(i));
      transport.Send(m);
    }
    q.RunAll();
    return std::make_tuple(count, transport.stats().retransmissions,
                           transport.stats().duplicates_suppressed,
                           q.now());
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_EQ(std::get<0>(run(9)), 25u);
}

// Transport header prepended to every frame: type byte + u64 sequence.
constexpr size_t kFrameHeaderBytes = 9;

TEST_F(TransportTest, PaddingSurvivesWrapAndUnwrap) {
  MakeTransport();
  Message m = MakeMsg(0, 3, 0xAB);
  m.padding = 500;
  transport_->Send(std::move(m));
  queue_.RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].payload, std::vector<uint8_t>(16, 0xAB));
  EXPECT_EQ(delivered_[0].padding, 500u);
  // Three hops of the padded data frame, three of the bare ack.
  EXPECT_EQ(net_->total_bytes_sent(),
            3 * (kMessageHeaderBytes + kFrameHeaderBytes + 16 + 500) +
                3 * (kMessageHeaderBytes + kFrameHeaderBytes));
}

TEST_F(TransportTest, PaddingIsChargedOnEveryAttempt) {
  TransportOptions options;
  options.initial_rto_s = 0.1;
  options.max_attempts = 4;
  MakeTransport(options);
  std::vector<Message> failed;
  transport_->SetFailureHandler(
      [&](const Message& m) { failed.push_back(m); });
  ASSERT_TRUE(net_->SetLinkUp(0, 1, false).ok());
  Message m = MakeMsg(0, 1, 0x11);
  m.padding = 1000;
  transport_->Send(std::move(m));
  queue_.RunAll();
  EXPECT_EQ(transport_->stats().retransmissions, 3u);
  // Each of the four attempts is charged, padding included, on the downed
  // link that drops it.
  EXPECT_EQ(net_->total_bytes_sent(),
            4 * (kMessageHeaderBytes + kFrameHeaderBytes + 16 + 1000));
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].padding, 1000u);
}

TEST_F(TransportTest, PaddedRetransmissionsMatchRealZeroBytes) {
  // Under loss, a padded run and one that ships the same zeros for real
  // must deliver the same bytes at the same times, with the same
  // retransmissions, acks, bytes, drops and bandwidth buckets.
  auto run = [&](bool modeled) {
    EventQueue q;
    Network net(&topo_, &q);
    net.SetLossRate(0.4, /*seed=*/9);
    TransportOptions options;
    options.max_attempts = 0;
    ReliableTransport transport(&net, &q, options);
    std::vector<std::pair<std::vector<uint8_t>, double>> got;
    transport.SetDeliveryHandler([&](const Message& msg) {
      std::vector<uint8_t> bytes = msg.payload;
      bytes.resize(bytes.size() + msg.padding, 0);
      got.emplace_back(std::move(bytes), q.now());
    });
    for (int i = 0; i < 20; ++i) {
      Message msg = MakeMsg(0, 3, static_cast<uint8_t>(i));
      if (modeled) {
        msg.padding = 777;
      } else {
        msg.payload.resize(msg.payload.size() + 777, 0);
      }
      transport.Send(std::move(msg));
    }
    q.RunAll();
    return std::make_tuple(got, net.total_bytes_sent(),
                           net.dropped_messages(), net.bucket_bytes(),
                           transport.stats().retransmissions,
                           transport.stats().acks_sent);
  };
  auto modeled = run(true);
  EXPECT_EQ(std::get<0>(modeled).size(), 20u);
  EXPECT_GT(std::get<4>(modeled), 0u);
  EXPECT_EQ(modeled, run(false));
}

}  // namespace
}  // namespace dpc
