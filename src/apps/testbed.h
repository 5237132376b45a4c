// Testbed: wires up one complete deployment — program + topology + event
// queue + network + provenance recorder + runtime — for a chosen
// maintenance scheme. Tests, benches and examples all build on this.
#ifndef DPC_APPS_TESTBED_H_
#define DPC_APPS_TESTBED_H_

#include <memory>
#include <string>

#include "src/core/advanced_recorder.h"
#include "src/core/basic_recorder.h"
#include "src/core/exspan_recorder.h"
#include "src/core/query.h"
#include "src/core/reference_recorder.h"
#include "src/core/wal_recorder.h"
#include "src/net/shard_engine.h"
#include "src/net/transport.h"
#include "src/runtime/system.h"

namespace dpc::apps {

enum class Scheme {
  kReference,          // ship whole trees inline (ground truth / ablation)
  kExspan,             // uncompressed baseline (§2.2)
  kBasic,              // intra-tree optimization (§4)
  kAdvanced,           // equivalence-based compression (§5.3)
  kAdvancedInterClass  // + inter-equivalence-class sharing (§5.4)
};

const char* SchemeName(Scheme scheme);

// Deployment knobs beyond the scheme choice: query cost model, fault
// injection on the runtime network, and reliable delivery on top of it.
struct TestbedOptions {
  QueryCostModel query_cost;
  // Uniform per-traversal loss probability on the runtime network
  // (Network::SetLossRate); 0 = lossless.
  double loss_rate = 0;
  uint64_t loss_seed = 1;
  // When true the System sends through a ReliableTransport (ack /
  // retransmit / dedup) instead of the raw network, so the run converges
  // to the loss-free outputs even under injected faults.
  bool reliable_transport = false;
  TransportOptions transport;

  // Number of runtime shards (src/net/shard_engine.h). 1 = the classic
  // single-threaded queue (no engine at all). N > 1 partitions the nodes
  // into N contiguous blocks, each driven by its own worker thread under
  // conservative lookahead windows; results (outputs, provenance tables,
  // bandwidth accounting) are byte-identical to shards = 1. Clamped to 1
  // when the topology has no usable cross-shard lookahead (a zero-latency
  // cross-shard link). Reliable transport is shard-safe: retransmission
  // timers live on the sending node's shard queue (src/net/transport.h).
  int shards = 1;

  // --- durability (src/core/wal_recorder.h) --------------------------
  // When non-empty, a WalRecorder wraps the scheme's recorder and logs
  // every mutation to per-node WAL files under this directory (which must
  // exist). Checkpoints and crash recovery go through Testbed::wal().
  // Not supported for Scheme::kReference (it has no node-state
  // serialization) — Create fails.
  std::string wal_dir;
  // fsync every WAL record (survive power loss, not just a killed
  // process). Slow; off by default.
  bool wal_sync = false;
  // Group-commit: buffer WAL appends and flush only at checkpoints and
  // shutdown. Much cheaper than the default flush-per-record, but a
  // kill -9 loses the buffered tail — recovery then reconstructs a
  // consistent prefix of the run rather than everything acknowledged.
  bool wal_buffered = false;

  // Batch draining (System::SetBatchEval): same-instant, same-(node,
  // relation) events evaluate each compiled rule once per batch. On by
  // default; off, every event is a batch of one. Results are
  // byte-identical either way (docs/perf.md), so this knob exists for
  // differential testing and benchmarking.
  bool batch_eval = true;

  // --- observability (src/obs) ---------------------------------------
  // When non-empty, the process tracer records this deployment (bound to
  // its event queue's simulated clock) and the Testbed writes the
  // Chrome-trace JSON here on FlushTrace() / destruction. Only one
  // deployment can be traced at a time: the tracer is process-wide.
  std::string trace_path;
  // Enable tracing without a file (events stay in memory, readable via
  // dpc::Trace().events() or exported by the caller).
  bool trace = false;
  size_t trace_max_events = 2000000;
  // Capture a metrics baseline at creation so MetricsDelta() isolates
  // this deployment's activity from earlier runs in the process.
  bool metrics = true;
};

// The three schemes the paper's evaluation compares, in its order.
inline constexpr Scheme kPaperSchemes[] = {Scheme::kExspan, Scheme::kBasic,
                                           Scheme::kAdvanced};

class Testbed {
 public:
  // `topology` must outlive the Testbed; `program` is copied in.
  static Result<std::unique_ptr<Testbed>> Create(
      Program program, const Topology* topology, Scheme scheme,
      QueryCostModel query_cost = {});
  static Result<std::unique_ptr<Testbed>> Create(Program program,
                                                 const Topology* topology,
                                                 Scheme scheme,
                                                 TestbedOptions options);

  Scheme scheme() const { return scheme_; }
  const Program& program() const { return program_; }
  System& system() { return *system_; }
  EventQueue& queue() { return queue_; }
  Network& network() { return network_; }
  // Effective shard count after clamping (1 = no engine).
  int shards() const { return shards_; }
  // Null when shards() == 1.
  ShardEngine* shard_engine() { return engine_.get(); }
  // Schedules `fn` at simulated time `t` as a global action: on the
  // sharded engine it runs at a window barrier after everything earlier
  // than `t`, alone; unsharded it is a plain queue event. Use for
  // snapshots and fault flips that read or mutate cross-shard state.
  void ScheduleGlobal(SimTime t, std::function<void()> fn);
  // Null unless TestbedOptions::reliable_transport was set.
  ReliableTransport* transport() { return transport_.get(); }
  const TestbedOptions& options() const { return options_; }
  const Topology& topology() const { return *topology_; }
  // The scheme's recorder (the WAL decorator's inner when wal_dir is set).
  ProvenanceRecorder& recorder() { return *recorder_; }
  // Null unless TestbedOptions::wal_dir was set. Checkpoint() and
  // Recover() must run while the deployment is idle or at a
  // ScheduleGlobal barrier.
  WalRecorder* wal() { return wal_.get(); }

  // Typed access; nullptr when the scheme does not match.
  ReferenceRecorder* reference() { return reference_; }
  ExspanRecorder* exspan() { return exspan_; }
  BasicRecorder* basic() { return basic_; }
  AdvancedRecorder* advanced() { return advanced_; }

  // A querier for the scheme's storage; nullptr for kReference (its trees
  // are read directly).
  std::unique_ptr<ProvenanceQuerier> MakeQuerier() const;

  StorageBreakdown TotalStorage() const {
    return recorder_->TotalStorage(topology_->num_nodes());
  }
  StorageBreakdown StorageAt(NodeId node) const {
    return recorder_->StorageAt(node);
  }

  // True when this testbed enabled the process tracer.
  bool tracing() const { return tracing_; }
  // Writes the recorded trace to options.trace_path (no-op Status when
  // tracing is off or no path was configured). Also called on
  // destruction, which additionally disables the tracer so its clock
  // cannot dangle into the destroyed queue.
  Status FlushTrace();
  // Metrics recorded since this testbed was created (empty when
  // options.metrics was false).
  MetricsSnapshot MetricsDelta() const;

  ~Testbed();

 private:
  Testbed(Program program, const Topology* topology, Scheme scheme,
          TestbedOptions options);

  Program program_;
  const Topology* topology_;
  Scheme scheme_;
  TestbedOptions options_;
  EventQueue queue_;
  Network network_;
  std::unique_ptr<ReliableTransport> transport_;
  std::unique_ptr<ProvenanceRecorder> recorder_;
  // Destroyed before recorder_ (declared after): the decorator holds a
  // raw pointer to the scheme recorder it wraps.
  std::unique_ptr<WalRecorder> wal_;
  ReferenceRecorder* reference_ = nullptr;
  ExspanRecorder* exspan_ = nullptr;
  BasicRecorder* basic_ = nullptr;
  AdvancedRecorder* advanced_ = nullptr;
  std::unique_ptr<System> system_;
  // Declared after system_/network_ users but destroyed first: the
  // destructor joins the worker threads while queue_ (shard 0) and the
  // handlers they run are still alive.
  std::unique_ptr<ShardEngine> engine_;
  int shards_ = 1;
  bool tracing_ = false;
  bool trace_flushed_ = false;
  MetricsSnapshot metrics_baseline_;
};

}  // namespace dpc::apps

#endif  // DPC_APPS_TESTBED_H_
