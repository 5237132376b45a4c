// Message-driven distributed provenance querying (§5.6): the query
// actually travels the simulated network as kQuery messages, hop by hop
// along the stored provenance chains, and the measured latency comes from
// the event queue — propagation, per-link transfer of the accumulated
// response, and processing delays all accrue in simulated time.
//
// DistributedQuerier is the event-queue driver of the scheme's QueryWalk
// (query_walk.h): the walk decides what each step reads and charges and
// how a leaf becomes a tree; this driver turns the steps into kQuery
// frames and processing delays. The analytic ProvenanceQuerier (query.h)
// drives the same walk depth-first, so both return the same trees,
// entries and bytes. Here, though, branch fan-outs proceed in parallel,
// so the completion time is the max over branches — what a real
// deployment would observe.
//
// Fault tolerance: by default query frames ride the raw (lossy) Network.
// EnableReliableTransport() layers ack/retransmit/dedup delivery
// (net/transport.h) underneath, and per-query deadlines guarantee the
// callback always fires — with the result, or with DeadlineExceeded when
// loss or a partition stalls the protocol. A query never hangs and never
// aborts the process.
#ifndef DPC_CORE_DISTRIBUTED_QUERY_H_
#define DPC_CORE_DISTRIBUTED_QUERY_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "src/core/query.h"
#include "src/net/event_queue.h"
#include "src/net/network.h"
#include "src/net/transport.h"

namespace dpc {

class DistributedQuerier {
 public:
  using Callback = std::function<void(Result<QueryResult>)>;

  // The querier owns a dedicated Network on `topology`/`queue`, so query
  // traffic is accounted separately from maintenance traffic.
  static std::unique_ptr<DistributedQuerier> ForExspan(
      const ExspanRecorder* recorder, const Topology* topology,
      EventQueue* queue, QueryCostModel cost = {});
  static std::unique_ptr<DistributedQuerier> ForBasic(
      const BasicRecorder* recorder, const Program* program,
      const FunctionRegistry* fns, const Topology* topology,
      EventQueue* queue, QueryCostModel cost = {});
  static std::unique_ptr<DistributedQuerier> ForAdvanced(
      const AdvancedRecorder* recorder, const Program* program,
      const FunctionRegistry* fns, const Topology* topology,
      EventQueue* queue, QueryCostModel cost = {});

  ~DistributedQuerier();

  // Switches query traffic onto a ReliableTransport over the querier's
  // network, so dropped kQuery frames are retransmitted and deduplicated.
  // Must be called before the first query is launched.
  void EnableReliableTransport(TransportOptions options = {});

  // Deadline applied to every query that does not pass its own (seconds
  // of simulated time from launch; 0 disables). When a query misses its
  // deadline the callback fires with Status::DeadlineExceeded.
  void set_default_deadline_s(double deadline_s) {
    default_deadline_s_ = deadline_s;
  }
  double default_deadline_s() const { return default_deadline_s_; }

  // Launches the query protocol at simulated time `when` from the output
  // tuple's node; `cb` fires (from the event queue) on completion with the
  // reconstructed trees and the measured latency, or with a Status —
  // DeadlineExceeded after `deadline_s` (0 = default deadline) without
  // completion.
  void QueryAsync(const Tuple& output, const Vid* evid, SimTime when,
                  Callback cb) {
    QueryAsync(output, evid, when, /*deadline_s=*/0, std::move(cb));
  }
  void QueryAsync(const Tuple& output, const Vid* evid, SimTime when,
                  double deadline_s, Callback cb);

  // Convenience: schedules now, drains the queue, returns the result.
  // Never aborts: a query orphaned by message loss yields
  // Status::DeadlineExceeded instead.
  Result<QueryResult> QueryAndWait(const Tuple& output,
                                   const Vid* evid = nullptr);

  // Accounting for the query traffic itself.
  Network& network() { return net_; }
  // Null until EnableReliableTransport is called.
  ReliableTransport* transport() { return transport_.get(); }

  // Processes one incoming kQuery frame. Wired as the channel's delivery
  // handler; public so tests can push arbitrary (malformed, truncated,
  // duplicated) peer bytes straight at the querier. Returns
  // InvalidArgument for an undecodable frame and NotFound for a
  // continuation id this querier no longer (or never) knew — e.g. a
  // straggler transmission arriving after its frame was abandoned. Both
  // are counted ("query.malformed_messages" / "query.unknown_
  // continuations") and neither ever aborts the process.
  Status HandleMessage(const Message& msg);

  // Implementation details (defined in the .cc); public so the protocol
  // driver in the anonymous namespace can reach them.
  struct Impl;
  // A registered continuation for an in-flight kQuery frame: `fn` runs on
  // delivery, `on_fail` when the transport abandons the frame.
  struct Continuation {
    std::function<void()> fn;
    std::function<void()> on_fail;
  };

 private:
  DistributedQuerier(QueryWalk walk, EventQueue* queue, QueryCostModel cost);

  void HandleDeliveryFailure(const Message& msg);

  const Topology* topology_;
  EventQueue* queue_;
  QueryCostModel cost_;
  Network net_;
  std::unique_ptr<ReliableTransport> transport_;
  double default_deadline_s_ = 0;
  // In-flight continuations keyed by the id embedded in message payloads.
  std::unordered_map<uint64_t, Continuation> continuations_;
  uint64_t next_continuation_ = 1;
  uint64_t next_query_id_ = 1;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dpc

#endif  // DPC_CORE_DISTRIBUTED_QUERY_H_
