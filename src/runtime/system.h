// System: the distributed DELP runtime (§3.1). One Program runs at every
// node of a Topology; events injected at a node trigger rules by pipelined
// semi-naïve evaluation, and derived head tuples travel as network messages
// to the node named by their location specifier. A ProvenanceRecorder
// observes every injection / rule firing / output and maintains the
// provenance storage under its scheme.
//
// Each rule is compiled once, at construction, into the positional
// executor (src/runtime/batch_eval.h). Every dispatch is a batch: the
// event alone, or with the same-instant, same-(node, relation) events the
// queue drains behind it. ProcessBatch is the one place rules are
// evaluated.
#ifndef DPC_RUNTIME_SYSTEM_H_
#define DPC_RUNTIME_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/planner.h"
#include "src/core/recorder.h"
#include "src/db/table.h"
#include "src/ndlog/eval.h"
#include "src/ndlog/program.h"
#include <atomic>

#include "src/net/event_queue.h"
#include "src/net/network.h"
#include "src/runtime/batch_eval.h"
#include "src/runtime/replay.h"
#include "src/util/result.h"

namespace dpc {

class ShardEngine;

// A terminal output tuple together with the provenance metadata it arrived
// with (used by tests and provenance queries).
struct OutputRecord {
  Tuple tuple;
  ProvMeta meta;
  SimTime time = 0;
};

struct SystemStats {
  uint64_t events_injected = 0;
  uint64_t rule_firings = 0;
  uint64_t outputs = 0;
  uint64_t control_signals = 0;
};

class System {
 public:
  // All pointers must outlive the System. The recorder may be null (run
  // without provenance). `channel` is the message path between nodes —
  // the raw (lossy) Network, or a ReliableTransport layered over it when
  // the deployment must survive injected faults.
  System(const Program* program, const Topology* topology,
         MessageChannel* channel, EventQueue* queue,
         FunctionRegistry functions, ProvenanceRecorder* recorder);

  // Runs this System on a sharded parallel engine (src/net/shard_engine.h):
  // injections route to the owning shard's queue and Run/RunUntil drive
  // conservative windows instead of `queue`. Call before the first
  // ScheduleInject/Run; the engine must outlive the System. The channel
  // must be bound to the same engine (Network::BindShardEngine) so
  // deliveries execute on the destination node's shard.
  void BindShardEngine(ShardEngine* engine) { engine_ = engine; }

  // --- state management -----------------------------------------------

  // Inserts a slow-changing (base) tuple into its node's database. If the
  // recorder requests it (§5.5), broadcasts a sig control message.
  Status InsertSlowTuple(const Tuple& t);
  Status DeleteSlowTuple(const Tuple& t);

  // --- execution --------------------------------------------------------

  // Schedules the injection of `event` (a tuple of the program's input
  // event relation, located at its injection node) at simulated time
  // `when`.
  Status ScheduleInject(const Tuple& event, SimTime when);

  // Runs the simulation until the queue(s) drain (bounded by `max_events`).
  void Run(size_t max_events = 0);
  void RunUntil(SimTime t);

  // --- observation -------------------------------------------------------

  Database& DbAt(NodeId node) { return dbs_[node]; }
  const Database& DbAt(NodeId node) const { return dbs_[node]; }

  const std::vector<OutputRecord>& OutputsAt(NodeId node) const {
    return outputs_[node];
  }
  std::vector<OutputRecord> AllOutputs() const;

  // Invoked on every terminal output (after the recorder hook).
  void SetOutputCallback(std::function<void(NodeId, const OutputRecord&)> cb) {
    output_callback_ = std::move(cb);
  }

  // When set, every non-deterministic input (slow-table operation, event
  // injection) is appended to `log` for §3.2-style replay. Must outlive
  // the System.
  void SetReplayLog(ReplayLog* log) { replay_log_ = log; }

  // Toggles draining (on by default): same-instant, same-(node, relation)
  // events drain into one batch whose rules are evaluated once per batch
  // (src/runtime/batch_eval.h), with firings, recorder hooks and sends
  // emitted in exactly the tuple-at-a-time order. Off, every event is a
  // batch of one — the reference the batched-vs-unbatched tests compare
  // against: provenance bytes, storage accounting and query answers are
  // byte-identical either way (docs/perf.md).
  void SetBatchEval(bool enabled) { batch_eval_ = enabled; }
  bool batch_eval() const { return batch_eval_; }

  // Processes one incoming message as the channel's delivery handler
  // does. Public so tests can feed arbitrary peer bytes straight at the
  // runtime: a malformed event payload (undecodable tuple/meta, missing
  // integer location) returns InvalidArgument — counted under
  // "system.malformed_messages" — and never aborts the node.
  Status HandleMessage(const Message& msg);

  // Snapshot of the run counters. By value: the internal counters are
  // atomics bumped from shard workers, and a struct copy of them taken
  // while idle (or between windows) is exact.
  SystemStats stats() const {
    SystemStats s;
    s.events_injected = stats_.events_injected.load(std::memory_order_relaxed);
    s.rule_firings = stats_.rule_firings.load(std::memory_order_relaxed);
    s.outputs = stats_.outputs.load(std::memory_order_relaxed);
    s.control_signals = stats_.control_signals.load(std::memory_order_relaxed);
    return s;
  }
  const Program& program() const { return *program_; }
  const FunctionRegistry& functions() const { return functions_; }
  ProvenanceRecorder* recorder() const { return recorder_; }
  const Topology& topology() const { return *topology_; }
  EventQueue& queue() { return *queue_; }

 private:
  // What a dispatch of one trigger relation runs, resolved once at
  // construction.
  struct Trigger {
    uint64_t ordinal = 0;       // batch tag ordinal (>= 1)
    std::vector<size_t> rules;  // indices into compiled_, program order
  };

  // One same-instant batch member awaiting deferred processing: the event
  // plus everything Phase B needs to replay its hooks in original order.
  struct PendingEvent {
    TupleRef tuple;
    ProvMeta meta;    // arrival meta; unused for injections
    bool is_arrival;  // false: injection (OnInject produces the meta)
  };

  // Shared entry for injected and delivered trigger events of `trigger`.
  // Appends to the active batch collector when one is draining; otherwise
  // drains the queue's same-instant, same-tag peers behind the event (if
  // any) and processes the batch.
  void Dispatch(NodeId node, const Trigger& trigger, const TupleRef& tuple,
                const ProvMeta& meta, bool is_arrival, uint64_t tag);
  // Phase A: per-rule evaluation over the whole batch (pure; reads dbs_
  // only). Phase B: per event in batch order, pre-hooks then firing
  // emission — the exact tuple-at-a-time sequence of recorder calls and
  // sends. Every event of the batch is of `trigger`'s relation.
  void ProcessBatch(NodeId node, const Trigger& trigger,
                    std::vector<PendingEvent>& batch);
  // OnArrival (arrivals) / OnInject (injections, returns the meta).
  ProvMeta RunEventHook(NodeId node, const TupleRef& tuple,
                        const ProvMeta& meta, bool is_arrival);
  // Routes one firing of program rule `rule_index`: counters, head
  // validation, OnRuleFired, then send/output.
  void EmitFiring(NodeId node, size_t rule_index, const TupleRef& tuple,
                  const ProvMeta& meta, RuleFiring& f);
  // Batch tag for deliveries of `trigger`'s relation at `node`; 0 when
  // `trigger` is null (the relation triggers no rule) or batching is off.
  uint64_t BatchTagFor(NodeId node, const Trigger* trigger) const;
  // The trigger of `relation`, or null when it triggers no rule.
  const Trigger* TriggerOf(const std::string& relation) const;

  void EmitOutput(NodeId node, const TupleRef& tuple, const ProvMeta& meta);
  // Ships `tuple` to its location; `trigger` is its relation's (null for
  // a terminal head materialized remotely).
  void SendEvent(NodeId from, const TupleRef& tuple, const ProvMeta& meta,
                 const Trigger* trigger);
  std::vector<uint8_t> EncodeEventPayload(const Tuple& tuple,
                                          const ProvMeta& meta) const;
  // Simulated time at `node`'s shard (== queue_->now() unsharded). Inside
  // an event callback at `node` this is the executing event's time.
  SimTime NowFor(NodeId node) const;
  // Barrier/global time when sharded, queue time otherwise (idle-only).
  SimTime GlobalNow() const;

  const Program* program_;
  ProgramPlan plan_;  // one RulePlan per program rule, in rule order
  const Topology* topology_;
  MessageChannel* channel_;
  EventQueue* queue_;
  FunctionRegistry functions_;
  ProvenanceRecorder* recorder_;

  // Each program rule compiled over plan_ and functions_, in rule order.
  // Shared read-only by shard workers.
  std::vector<CompiledRule> compiled_;

  ReplayLog* replay_log_ = nullptr;
  bool batch_eval_ = true;
  ShardEngine* engine_ = nullptr;
  // Trigger relation -> its ordinal and rules, computed once at
  // construction; read-only afterwards (map nodes never move, so the
  // pointers below stay valid).
  std::map<std::string, Trigger> triggers_;
  // Per program rule: the trigger its head relation is, or null when the
  // head is terminal.
  std::vector<const Trigger*> head_triggers_;
  // The batch collector active on this thread, if any: DrainAtTime runs
  // peers' queue entries whose Dispatch must append here instead of
  // processing. Thread-local because shard workers batch independently.
  static thread_local std::vector<PendingEvent>* tls_collector_;
  static thread_local System* tls_collector_owner_;
  // Per-node state: confined to the shard owning the node (one thread at
  // a time; the engine's barriers order cross-window handoffs).
  std::vector<Database> dbs_;
  std::vector<std::vector<OutputRecord>> outputs_;
  // Invoked from the emitting node's shard thread: must be thread-safe
  // when running sharded.
  std::function<void(NodeId, const OutputRecord&)> output_callback_;
  // Atomics: bumped concurrently from shard workers, lost-update-free.
  struct AtomicSystemStats {
    std::atomic<uint64_t> events_injected{0};
    std::atomic<uint64_t> rule_firings{0};
    std::atomic<uint64_t> outputs{0};
    std::atomic<uint64_t> control_signals{0};
  };
  AtomicSystemStats stats_;

  // Registry mirrors of stats_ (per-node scoped), resolved once at
  // construction; see src/obs/metrics.h.
  struct {
    Counter* events_injected;
    Counter* rule_firings;
    Counter* outputs;
    Counter* control_signals;
    Counter* malformed_messages;
    Counter* invalid_heads;
    Histogram* batch_size;
  } metrics_;
  // Firings produced in drained batches (two or more events), one counter
  // per program rule ("system.batched_firings.<rule id>"), indexed by rule
  // position.
  std::vector<Counter*> batched_firings_counters_;
  Tracer* tracer_;
};

}  // namespace dpc

#endif  // DPC_RUNTIME_SYSTEM_H_
