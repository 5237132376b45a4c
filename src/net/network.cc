#include "src/net/network.h"

#include "src/net/shard_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace dpc {

namespace {
uint64_t PackPair(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kFnvPrime = 1099511628211ULL;

// FNV-1a over `n` zero bytes: each step is `h ^= 0; h *= P`, so the run
// folds to h * P^n (mod 2^64), computed by square-and-multiply.
uint64_t FnvZeros(uint64_t h, uint64_t n) {
  for (uint64_t p = kFnvPrime; n != 0; n >>= 1, p *= p) {
    if (n & 1) h *= p;
  }
  return h;
}

// FNV-1a over the message identity fields and its wire bytes (payload,
// then the modeled zero padding), for sends that did not assign a tx_id
// themselves. Only a loss draw reads it. `| 1` keeps 0 meaning
// "unassigned".
uint64_t ContentTxId(const Message& msg) {
  uint64_t h = 1469598103934665603ULL;
  auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  };
  mix_byte(static_cast<uint8_t>(msg.kind));
  for (int shift = 0; shift < 32; shift += 8) {
    mix_byte(static_cast<uint8_t>(static_cast<uint32_t>(msg.src) >> shift));
    mix_byte(static_cast<uint8_t>(static_cast<uint32_t>(msg.dst) >> shift));
  }
  for (uint8_t b : msg.payload) mix_byte(b);
  return FnvZeros(h, msg.padding) | 1;
}
}  // namespace

size_t Message::WireSize() const {
  return kMessageHeaderBytes + payload.size() + padding;
}

Network::Network(const Topology* topology, EventQueue* queue)
    : topology_(topology),
      queue_(queue),
      accounts_(1),
      drop_counter_(&GlobalMetrics().GetCounter("network.messages_dropped")) {
  DPC_CHECK(topology_ != nullptr);
  DPC_CHECK(queue_ != nullptr);
}

void Network::BindShardEngine(ShardEngine* engine) {
  engine_ = engine;
  accounts_.clear();
  accounts_.resize(engine_ != nullptr ? engine_->num_shards() : 1);
}

Network::ShardAccount& Network::AccountFor(NodeId at) {
  return accounts_[engine_ != nullptr ? engine_->shard_of(at) : 0];
}

SimTime Network::SimNow() const {
  if (engine_ != nullptr) {
    int shard = ShardEngine::current_shard();
    if (shard >= 0) return engine_->queue(shard).now();
    return engine_->now();
  }
  return queue_->now();
}

void Network::ScheduleAtNodeAfter(NodeId node, double delay,
                                  EventQueue::Callback fn, uint64_t tag) {
  SimTime t = SimNow() + delay;
  if (engine_ != nullptr) {
    engine_->ScheduleAtNode(node, t, std::move(fn), tag);
  } else {
    queue_->ScheduleAtTagged(t, tag, std::move(fn));
  }
}

void Network::ChargeBytes(ShardAccount& acct, double time, size_t bytes) {
  acct.bytes += bytes;
  double rel = time - bucket_origin_s_;
  if (rel < 0) rel = 0;
  size_t bucket = static_cast<size_t>(rel / bucket_width_s_);
  if (acct.bucket_bytes.size() <= bucket) {
    acct.bucket_bytes.resize(bucket + 1, 0);
  }
  acct.bucket_bytes[bucket] += bytes;
}

void Network::Send(Message msg) {
  DPC_CHECK(msg.src >= 0 && msg.src < topology_->num_nodes());
  DPC_CHECK(msg.dst >= 0 && msg.dst < topology_->num_nodes());
  ++AccountFor(msg.src).messages;
  if (msg.src == msg.dst) {
    uint64_t tag = msg.batch_tag;
    ScheduleAtNodeAfter(msg.dst, local_delay_s_,
                        [this, m = std::move(msg)]() {
                          if (handler_) handler_(m);
                        },
                        tag);
    return;
  }
  NodeId src = msg.src;
  Forward(std::move(msg), src);
}

void Network::SetLossRate(double rate, uint64_t seed) {
  DPC_CHECK(rate >= 0 && rate < 1);
  loss_rate_ = rate;
  loss_seed_ = seed;
  UpdateFaults();
}

void Network::UpdateFaults() {
  faults_ = loss_rate_ > 0 || !link_loss_.empty() || !links_down_.empty() ||
            !partition_.empty();
}

Status Network::CheckLink(NodeId a, NodeId b) const {
  if (!topology_->HasLink(a, b)) {
    return Status::InvalidArgument("no link between " + std::to_string(a) +
                                   " and " + std::to_string(b));
  }
  return Status::OK();
}

Status Network::SetLinkLossRate(NodeId a, NodeId b, double rate) {
  DPC_RETURN_NOT_OK(CheckLink(a, b));
  if (rate < 0 || rate >= 1) {
    return Status::InvalidArgument("loss rate must be in [0, 1)");
  }
  link_loss_[PackPair(a, b)] = rate;
  UpdateFaults();
  return Status::OK();
}

Status Network::SetLinkUp(NodeId a, NodeId b, bool up) {
  DPC_RETURN_NOT_OK(CheckLink(a, b));
  if (up) {
    links_down_.erase(PackPair(a, b));
  } else {
    links_down_.insert(PackPair(a, b));
  }
  UpdateFaults();
  return Status::OK();
}

Status Network::ScheduleLinkUp(NodeId a, NodeId b, bool up, SimTime at) {
  DPC_RETURN_NOT_OK(CheckLink(a, b));
  auto flip = [this, a, b, up]() { (void)SetLinkUp(a, b, up); };
  if (engine_ != nullptr) {
    // Fault state is read by every shard: flip it at a window barrier.
    engine_->ScheduleGlobal(at, std::move(flip));
  } else {
    queue_->ScheduleAt(at, std::move(flip));
  }
  return Status::OK();
}

Status Network::SetPartition(std::vector<int> group_of_node) {
  if (!group_of_node.empty() &&
      group_of_node.size() != static_cast<size_t>(topology_->num_nodes())) {
    return Status::InvalidArgument(
        "partition vector must name a group per node");
  }
  partition_ = std::move(group_of_node);
  UpdateFaults();
  return Status::OK();
}

void Network::SchedulePartition(std::vector<int> group_of_node, SimTime at) {
  auto apply = [this, groups = std::move(group_of_node)]() {
    Status st = SetPartition(groups);
    DPC_CHECK(st.ok()) << st.ToString();
  };
  if (engine_ != nullptr) {
    engine_->ScheduleGlobal(at, std::move(apply));
  } else {
    queue_->ScheduleAt(at, std::move(apply));
  }
}

bool Network::TraversalDropped(NodeId at, NodeId next, Message& msg) const {
  if (!faults_) return false;
  if (links_down_.count(PackPair(at, next)) > 0) return true;
  if (!partition_.empty() && partition_[at] != partition_[next]) return true;
  double rate = loss_rate_;
  auto it = link_loss_.find(PackPair(at, next));
  if (it != link_loss_.end()) rate = it->second;
  if (rate <= 0) return false;
  // The content never changes along the path, so the id derived at the
  // first draw is the one every later hop of this transmission would get.
  if (msg.tx_id == 0) msg.tx_id = ContentTxId(msg);
  // Deterministic draw: a pure function of (seed, transmission, directed
  // hop), so the same traversal drops — or survives — regardless of what
  // other traffic exists or how nodes are sharded.
  uint64_t hop = (static_cast<uint64_t>(static_cast<uint32_t>(at)) << 32) |
                 static_cast<uint32_t>(next);
  uint64_t h = Mix64(loss_seed_ ^ Mix64(msg.tx_id ^ Mix64(hop)));
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

void Network::Forward(Message msg, NodeId at) {
  NodeId next = topology_->NextHop(at, msg.dst);
  DPC_CHECK(next != kNullNode) << "no route from " << at << " to " << msg.dst;
  const LinkProps& link = topology_->Link(at, next);
  size_t wire = msg.WireSize();
  ChargeBytes(AccountFor(at), SimNow(), wire);
  if (TraversalDropped(at, next, msg)) {
    ++AccountFor(at).dropped;
    drop_counter_->IncrementAt(at);
    if (Trace().enabled()) {
      Trace().Instant(at, TraceCat::kNetwork, "drop",
                      "\"next\": " + std::to_string(next) +
                          ", \"dst\": " + std::to_string(msg.dst) +
                          ", \"bytes\": " + std::to_string(wire));
    }
    return;  // the traversal consumed bandwidth but never arrives
  }
  double delay = link.latency_s +
                 static_cast<double>(wire) * 8.0 / link.bandwidth_bps;
  // Only the final hop — the entry that invokes the delivery handler — is
  // tagged; intermediate Forward hops never join a batch.
  uint64_t tag = next == msg.dst ? msg.batch_tag : 0;
  auto hop = [this, m = std::move(msg), next]() mutable {
    if (next == m.dst) {
      if (handler_) handler_(m);
    } else {
      Forward(std::move(m), next);
    }
  };
  // The closure carries the whole Message: if a new field outgrows the
  // queue's inline buffer, every hop would heap-allocate again.
  static_assert(QueueCallback::kFitsInline<decltype(hop)>,
                "the per-hop closure must fit EventQueue's inline storage");
  ScheduleAtNodeAfter(next, delay, std::move(hop), tag);
}

void Network::Broadcast(NodeId from, Message msg) {
  for (NodeId n = 0; n < topology_->num_nodes(); ++n) {
    if (n == from) continue;  // the originator already handled it locally
    Message copy = msg;
    copy.src = from;
    copy.dst = n;
    copy.tx_id = 0;  // re-derive per destination
    Send(std::move(copy));
  }
}

uint64_t Network::total_bytes_sent() const {
  uint64_t sum = 0;
  for (const ShardAccount& a : accounts_) sum += a.bytes;
  return sum;
}

uint64_t Network::total_messages() const {
  uint64_t sum = 0;
  for (const ShardAccount& a : accounts_) sum += a.messages;
  return sum;
}

uint64_t Network::dropped_messages() const {
  uint64_t sum = 0;
  for (const ShardAccount& a : accounts_) sum += a.dropped;
  return sum;
}

std::vector<uint64_t> Network::bucket_bytes() const {
  std::vector<uint64_t> merged;
  for (const ShardAccount& a : accounts_) {
    if (a.bucket_bytes.size() > merged.size()) {
      merged.resize(a.bucket_bytes.size(), 0);
    }
    for (size_t i = 0; i < a.bucket_bytes.size(); ++i) {
      merged[i] += a.bucket_bytes[i];
    }
  }
  return merged;
}

void Network::ResetAccounting() {
  for (ShardAccount& a : accounts_) {
    a.bytes = 0;
    a.messages = 0;
    a.dropped = 0;
    a.bucket_bytes.clear();
  }
}

}  // namespace dpc
