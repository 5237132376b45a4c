#include "src/net/transport.h"

#include <algorithm>

#include "src/net/shard_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/serial.h"

namespace dpc {

namespace {

// Transport frame header prepended to the application payload.
enum FrameType : uint8_t { kDataFrame = 0, kAckFrame = 1 };

std::vector<uint8_t> WrapPayload(FrameType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload) {
  ByteWriter w;
  w.PutU8(type);
  w.PutU64(seq);
  std::vector<uint8_t> out = w.Take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// Per-transmission identity for the deterministic loss hash: a fresh id
// per (src, seq, attempt) — and per (src, seq, ack#) for acks, salted
// apart — so retransmissions of identical bytes draw independently. The
// source node salts the hash because sequence numbers are per source:
// without it, node 3's frame 7 and node 9's frame 7 would share a loss
// fate on a common link.
uint64_t FrameTxId(NodeId src, uint64_t seq, uint32_t attempt, bool ack) {
  uint64_t x = (static_cast<uint64_t>(src) + 1) * 0xd6e8feb86659fd93ULL +
               seq * 0x9e3779b97f4a7c15ULL + attempt +
               (ack ? 0x517cc1b727220a95ULL : 0);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return (x ^ (x >> 31)) | 1;
}

}  // namespace

ReliableTransport::ReliableTransport(Network* network, EventQueue* queue,
                                     TransportOptions options)
    : network_(network), queue_(queue), options_(options) {
  DPC_CHECK(network_ != nullptr);
  DPC_CHECK(queue_ != nullptr);
  DPC_CHECK(options_.initial_rto_s > 0);
  DPC_CHECK(options_.backoff_factor >= 1);
  nodes_.resize(static_cast<size_t>(network_->topology()->num_nodes()));
  MetricsRegistry& reg = GlobalMetrics();
  metrics_.data_frames_sent = &reg.GetCounter("transport.data_frames_sent");
  metrics_.retransmissions = &reg.GetCounter("transport.retransmissions");
  metrics_.acks_sent = &reg.GetCounter("transport.acks_sent");
  metrics_.duplicates_suppressed =
      &reg.GetCounter("transport.duplicates_suppressed");
  metrics_.delivery_failures = &reg.GetCounter("transport.delivery_failures");
  network_->SetDeliveryHandler(
      [this](const Message& msg) { OnNetworkDelivery(msg); });
}

size_t ReliableTransport::in_flight() const {
  size_t total = 0;
  for (const NodeState& n : nodes_) total += n.pending.size();
  return total;
}

EventQueue* ReliableTransport::QueueFor(NodeId node) {
  if (engine_ != nullptr) return &engine_->queue(engine_->shard_of(node));
  return queue_;
}

void ReliableTransport::Send(Message msg) {
  NodeId src = msg.src;
  DPC_CHECK(src >= 0 && static_cast<size_t>(src) < nodes_.size());
  NodeState& sender = nodes_[static_cast<size_t>(src)];
  uint64_t seq = sender.next_seq++;
  Pending p;
  p.frame.kind = msg.kind;
  p.frame.src = msg.src;
  p.frame.dst = msg.dst;
  p.frame.payload = WrapPayload(kDataFrame, seq, msg.payload);
  p.frame.padding = msg.padding;  // charged on every attempt, never stored
  p.original = std::move(msg);
  p.rto_s = options_.initial_rto_s;
  p.frame.tx_id = FrameTxId(src, seq, 1, /*ack=*/false);
  stats_.data_frames_sent.fetch_add(1, std::memory_order_relaxed);
  metrics_.data_frames_sent->IncrementAt(p.frame.src);
  if (Trace().enabled()) {
    // Span covers first transmission through ack (or abandonment).
    Trace().AsyncBegin(p.frame.src, TraceCat::kTransport, "frame", seq,
                       "\"dst\": " + std::to_string(p.frame.dst) +
                           ", \"bytes\": " +
                           std::to_string(p.frame.payload.size() +
                                          p.frame.padding));
  }
  TransmitFrame(p.frame);
  sender.pending.emplace(seq, std::move(p));
  ArmTimer(src, seq);
}

void ReliableTransport::Broadcast(NodeId from, Message msg) {
  int num_nodes = network_->topology()->num_nodes();
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (n == from) continue;  // the originator already handled it locally
    Message copy = msg;
    copy.src = from;
    copy.dst = n;
    Send(std::move(copy));
  }
}

void ReliableTransport::TransmitFrame(const Message& frame) {
  Message copy = frame;
  network_->Send(std::move(copy));
}

void ReliableTransport::ArmTimer(NodeId src, uint64_t seq) {
  NodeState& sender = nodes_[static_cast<size_t>(src)];
  auto it = sender.pending.find(seq);
  if (it == sender.pending.end()) return;
  it->second.timer = QueueFor(src)->ScheduleAfter(
      it->second.rto_s, [this, src, seq]() { OnTimeout(src, seq); });
}

void ReliableTransport::OnTimeout(NodeId src, uint64_t seq) {
  NodeState& sender = nodes_[static_cast<size_t>(src)];
  auto it = sender.pending.find(seq);
  if (it == sender.pending.end()) return;  // acked in the meantime
  Pending& p = it->second;
  if (options_.max_attempts > 0 && p.attempts >= options_.max_attempts) {
    stats_.delivery_failures.fetch_add(1, std::memory_order_relaxed);
    metrics_.delivery_failures->IncrementAt(p.frame.src);
    Message original = std::move(p.original);
    if (Trace().enabled()) {
      Trace().AsyncEnd(original.src, TraceCat::kTransport, "frame", seq,
                       "\"outcome\": \"abandoned\"");
    }
    sender.pending.erase(it);
    DPC_LOG(Warning) << "transport: abandoning message to node "
                     << original.dst << " after " << options_.max_attempts
                     << " attempts";
    if (failure_handler_) failure_handler_(original);
    return;
  }
  ++p.attempts;
  p.frame.tx_id = FrameTxId(src, seq, static_cast<uint32_t>(p.attempts),
                            /*ack=*/false);
  stats_.retransmissions.fetch_add(1, std::memory_order_relaxed);
  metrics_.retransmissions->IncrementAt(p.frame.src);
  if (Trace().enabled()) {
    Trace().Instant(p.frame.src, TraceCat::kTransport, "retransmit",
                    "\"seq\": " + std::to_string(seq) +
                        ", \"attempt\": " + std::to_string(p.attempts));
  }
  p.rto_s = std::min(p.rto_s * options_.backoff_factor, options_.max_rto_s);
  TransmitFrame(p.frame);
  ArmTimer(src, seq);
}

void ReliableTransport::OnNetworkDelivery(const Message& msg) {
  ByteReader r(msg.payload);
  auto type = r.GetU8();
  auto seq = r.GetU64();
  if (!type.ok() || !seq.ok()) {
    DPC_LOG(Error) << "transport: malformed frame from node " << msg.src;
    return;
  }
  if (*type == kAckFrame) {
    // The ack is delivered at the original sender (msg.dst), on its shard:
    // the pending map and its timer both belong to that node's slice.
    NodeState& sender = nodes_[static_cast<size_t>(msg.dst)];
    auto it = sender.pending.find(*seq);
    if (it == sender.pending.end()) return;  // duplicate ack
    QueueFor(msg.dst)->Cancel(it->second.timer);
    if (Trace().enabled()) {
      Trace().AsyncEnd(it->second.frame.src, TraceCat::kTransport, "frame",
                       *seq, "\"outcome\": \"acked\", \"attempts\": " +
                                 std::to_string(it->second.attempts));
    }
    sender.pending.erase(it);
    return;
  }
  if (*type != kDataFrame) {
    DPC_LOG(Error) << "transport: unknown frame type "
                   << static_cast<int>(*type);
    return;
  }
  // Receiver side, on msg.dst's shard; dedup per peer because sequence
  // numbers are per source node.
  PeerRx& rx = nodes_[static_cast<size_t>(msg.dst)].rx[msg.src];
  // Acknowledge every data frame, duplicates included: the previous ack
  // may have been the casualty.
  Message ack;
  ack.kind = MessageKind::kAck;
  ack.src = msg.dst;
  ack.dst = msg.src;
  ByteWriter w;
  w.PutU8(kAckFrame);
  w.PutU64(*seq);
  ack.payload = w.Take();
  ack.tx_id = FrameTxId(msg.src, *seq, ++rx.ack_counts[*seq], /*ack=*/true);
  stats_.acks_sent.fetch_add(1, std::memory_order_relaxed);
  metrics_.acks_sent->IncrementAt(msg.dst);
  network_->Send(std::move(ack));

  if (!rx.delivered.insert(*seq).second) {
    stats_.duplicates_suppressed.fetch_add(1, std::memory_order_relaxed);
    metrics_.duplicates_suppressed->IncrementAt(msg.dst);
    return;
  }
  Message original;
  original.kind = msg.kind;
  original.src = msg.src;
  original.dst = msg.dst;
  original.payload.assign(msg.payload.begin() + 9, msg.payload.end());
  original.padding = msg.padding;
  if (handler_) handler_(original);
}

}  // namespace dpc
