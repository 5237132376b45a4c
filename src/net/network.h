// Network: message delivery over a Topology driven by the EventQueue.
// Messages are forwarded hop-by-hop along shortest paths; every traversed
// link contributes latency + serialization delay and is charged to the
// bandwidth accounting that the paper's Figures 11 and 15 report.
//
// Delivery is best-effort: the fault-injection API below (uniform or
// per-link loss, links going down/up at a simulated time, node partitions)
// drops traversals. Layer a ReliableTransport (transport.h) on top when a
// workload must survive those faults.
//
// Sharded runtime (src/net/shard_engine.h): after BindShardEngine, every
// hop is scheduled on the shard owning the node it executes at, and the
// bandwidth/drop accounting is kept in per-shard slots (each written only
// by its owning worker) merged on read. Loss draws are a pure hash of
// (seed, tx_id, link) — no shared RNG stream — so the set of dropped
// traversals is identical at any shard count.
//
// Each link traversal is one queue event whose closure carries the whole
// Message inline (EventQueue's QueueCallback), so forwarding allocates
// nothing per hop.
#ifndef DPC_NET_NETWORK_H_
#define DPC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/db/tuple.h"
#include "src/net/event_queue.h"
#include "src/net/topology.h"
#include "src/util/stats.h"

namespace dpc {

class Counter;
class ShardEngine;

enum class MessageKind : uint8_t {
  kEvent = 0,    // an event tuple propagating through a DELP
  kControl = 1,  // slow-changing-update sig broadcast (§5.5)
  kQuery = 2,    // distributed provenance query traffic
  kAck = 3,      // transport-layer acknowledgement (transport.h)
};

struct Message {
  MessageKind kind = MessageKind::kEvent;
  NodeId src = kNullNode;
  NodeId dst = kNullNode;
  // Simulation-local transmission identity keying the deterministic loss
  // draw for each link traversal. Not serialized and not charged to
  // WireSize. 0 = unassigned: the first traversal that draws for loss
  // derives one from the message content (kind, src, dst, payload and
  // padding) and stores it here, so byte-identical raw sends share one
  // loss fate. A message that never meets a lossy link is never hashed and
  // is delivered with tx_id still 0. ReliableTransport assigns a fresh id
  // per (seq, attempt) so a retransmission of identical bytes gets an
  // independent draw.
  uint64_t tx_id = 0;
  // Simulation-local batch tag (not serialized, no wire cost): nonzero on
  // kEvent messages whose delivery may join a same-instant set-at-a-time
  // batch at the destination (src/runtime/batch_eval.h). The tag rides to
  // the final hop's queue entry; intermediate hops stay untagged.
  uint64_t batch_tag = 0;
  std::vector<uint8_t> payload;
  // Simulation-local modeled padding: `padding` zero bytes that follow
  // `payload` on the wire but are never stored. WireSize() charges them,
  // so bandwidth buckets and per-hop transfer delays see them, and the
  // content tx_id hashes them as zeros, so loss draws do too: the message
  // behaves exactly like `payload` followed by `padding` real zero bytes.
  // Senders that model a response size without shipping its bytes (the
  // distributed querier) set this instead of growing `payload`.
  size_t padding = 0;

  size_t WireSize() const;
};

// Fixed per-message framing overhead charged on every hop (addresses,
// kind tag, length), mimicking a UDP-style header.
inline constexpr size_t kMessageHeaderBytes = 28;

// Anything that can carry Messages between nodes: the raw (lossy) Network
// or a ReliableTransport layered over it. System and DistributedQuerier
// program against this seam so reliability is a deployment choice.
class MessageChannel {
 public:
  using DeliveryHandler = std::function<void(const Message& msg)>;

  virtual ~MessageChannel() = default;

  // Installs the handler invoked when a message reaches its destination.
  // Under the sharded runtime it runs on the destination's shard thread.
  virtual void SetDeliveryHandler(DeliveryHandler handler) = 0;

  // Sends `msg` from msg.src to msg.dst.
  virtual void Send(Message msg) = 0;

  // Unicasts a copy of `msg` from `from` to every *other* node (§5.5 sig).
  // The originator handles the signal synchronously at the send site, so
  // it is not echoed a copy.
  virtual void Broadcast(NodeId from, Message msg) = 0;
};

class Network : public MessageChannel {
 public:
  Network(const Topology* topology, EventQueue* queue);

  // Routes hop scheduling through `engine` (each hop executes on the shard
  // owning the node it is at) and widens the accounting to one slot per
  // shard. Call before any traffic; the engine must outlive the Network.
  void BindShardEngine(ShardEngine* engine);

  void SetDeliveryHandler(DeliveryHandler handler) override {
    handler_ = std::move(handler);
  }

  // Sends `msg` from msg.src to msg.dst. Local sends (src == dst) deliver
  // after `local_delay_s` with no bandwidth charge.
  void Send(Message msg) override;

  void Broadcast(NodeId from, Message msg) override;

  // --- accounting ---
  // Sums over the per-shard slots. Exact while the engine is idle or
  // between windows (tests, experiment teardown); during a window a
  // concurrent read would be a benign-but-torn snapshot, so don't.
  uint64_t total_bytes_sent() const;
  uint64_t total_messages() const;
  uint64_t dropped_messages() const;

  // Bytes charged per `bucket` seconds of simulated time since the bucket
  // origin (t=0 by default). bandwidth(t) = bucket_bytes[i] / bucket for
  // t - origin in bucket i. By value: the merge of the per-shard bucket
  // vectors.
  std::vector<uint64_t> bucket_bytes() const;
  double bucket_width_s() const { return bucket_width_s_; }
  void set_bucket_width_s(double w) { bucket_width_s_ = w; }
  // Rebases bucket 0 at `t0`: an experiment whose measured phase starts
  // after a setup drain keys its bandwidth series off the phase start, not
  // absolute sim time (which would prepend one empty bucket per elapsed
  // width). Idle-only, like set_bucket_width_s.
  void set_bucket_origin_s(double t0) { bucket_origin_s_ = t0; }

  // Resets counters (not pending traffic). Idle-only.
  void ResetAccounting();

  const Topology* topology() const { return topology_; }

  // Delay before a locally-addressed message is delivered.
  void set_local_delay_s(double d) { local_delay_s_ = d; }

  // --- fault injection -------------------------------------------------
  // All injected faults drop individual link traversals. Local deliveries
  // (src == dst) are never dropped. Dropped traversals are still charged
  // to bandwidth (the bytes were sent) and counted in dropped_messages().
  //
  // Fault state is mutated only while the shard engine is idle (setup
  // code, or Schedule* callbacks which run as global actions at a window
  // barrier) and read by workers during windows; the engine's barrier
  // provides the happens-before, so the maps below need no lock.

  // Uniform loss: drop each traversal independently with probability
  // `rate`. Deterministic given `seed`: whether a traversal drops is a
  // pure hash of (seed, msg.tx_id, link), independent of arrival order
  // and shard count.
  void SetLossRate(double rate, uint64_t seed = 1);

  // Per-link loss overriding the uniform rate on that link (either
  // direction). Keyed by the same seed as SetLossRate.
  Status SetLinkLossRate(NodeId a, NodeId b, double rate);

  // Takes link (a, b) down / back up. While down, every traversal of the
  // link is dropped; routing is unchanged (the paper's routes are static),
  // so recovery is the transport layer's job.
  Status SetLinkUp(NodeId a, NodeId b, bool up);
  // Same, at simulated time `at` (a global action when sharded).
  Status ScheduleLinkUp(NodeId a, NodeId b, bool up, SimTime at);

  // Partitions the nodes: a traversal is dropped when its endpoints are in
  // different groups. `group_of_node[n]` is node n's group id; the vector
  // must have one entry per node. An empty vector heals the partition.
  Status SetPartition(std::vector<int> group_of_node);
  void SchedulePartition(std::vector<int> group_of_node, SimTime at);

 private:
  // Accounting slot for activity at node `at`: written only by the worker
  // owning `at`'s shard (or the coordinator while the engine is idle), so
  // plain uint64_t fields suffice. Padded to avoid false sharing.
  struct alignas(64) ShardAccount {
    uint64_t bytes = 0;
    uint64_t messages = 0;
    uint64_t dropped = 0;
    std::vector<uint64_t> bucket_bytes;
  };

  void Forward(Message msg, NodeId at);
  void ChargeBytes(ShardAccount& acct, double time, size_t bytes);
  // True when fault injection says this traversal never arrives. Pure in
  // (fault state, msg content or tx_id, at, next). Fills in an unassigned
  // msg.tx_id at the first loss draw; with no fault configured it returns
  // before any lookup.
  bool TraversalDropped(NodeId at, NodeId next, Message& msg) const;
  Status CheckLink(NodeId a, NodeId b) const;
  // Recomputes faults_ after any fault-state change.
  void UpdateFaults();
  ShardAccount& AccountFor(NodeId at);
  // Simulated time in the calling context: the executing shard's clock on
  // a worker, the engine's global clock (or queue time) otherwise.
  SimTime SimNow() const;
  // Schedules `fn` at SimNow() + delay on the shard owning `node`,
  // carrying `tag` as the queue entry's batch tag.
  void ScheduleAtNodeAfter(NodeId node, double delay, EventQueue::Callback fn,
                           uint64_t tag = 0);

  const Topology* topology_;
  EventQueue* queue_;
  ShardEngine* engine_ = nullptr;
  DeliveryHandler handler_;
  double local_delay_s_ = 1e-6;
  double bucket_width_s_ = 1.0;
  double bucket_origin_s_ = 0;
  std::vector<ShardAccount> accounts_;  // one per shard; size 1 unsharded
  double loss_rate_ = 0;
  uint64_t loss_seed_ = 1;
  Counter* drop_counter_;
  // Fault state keyed by the (min, max) node pair packed into 64 bits.
  std::unordered_map<uint64_t, double> link_loss_;
  std::unordered_set<uint64_t> links_down_;
  std::vector<int> partition_;  // empty = no partition
  // False while no loss rate, link loss, down link or partition is set:
  // then no traversal can drop and TraversalDropped looks nothing up.
  bool faults_ = false;
};

}  // namespace dpc

#endif  // DPC_NET_NETWORK_H_
