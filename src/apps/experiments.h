// Reusable experiment drivers behind the bench/ binaries that regenerate
// the paper's Figures 8-16. Each driver deploys one maintenance scheme on a
// topology, replays a workload over simulated time, snapshots per-node
// storage at fixed intervals and collects the network's bandwidth buckets.
//
// Scales default to laptop-sized runs; the DPC_* environment variables
// documented in EXPERIMENTS.md restore the paper's scale.
#ifndef DPC_APPS_EXPERIMENTS_H_
#define DPC_APPS_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "src/apps/dns.h"
#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"
#include "src/obs/metrics.h"
#include "src/util/perf.h"
#include "src/util/stats.h"

namespace dpc::apps {

// One scheduled input event.
struct WorkloadItem {
  Tuple event;
  double time_s = 0;
};

struct ExperimentConfig {
  double duration_s = 20;
  double snapshot_interval_s = 2;
  double bandwidth_bucket_s = 1.0;
  // When > 0, re-install a random communicating pair's first route entry
  // every this many seconds (the §6.1.2 slow-changing-update variant).
  double route_update_interval_s = 0;
  // Fault injection: uniform per-traversal loss probability on the
  // deployment's network (0 = lossless), with the seed that drives it.
  double loss_rate = 0;
  uint64_t loss_seed = 1;
  // Run the System over a ReliableTransport so the workload converges to
  // the loss-free outputs despite the injected loss.
  bool reliable_transport = false;
  TransportOptions transport;
  // Runtime shard count (TestbedOptions::shards): > 1 runs the workload
  // on the parallel sharded engine. Results are byte-identical to 1.
  int shards = 1;
  // Batch draining (TestbedOptions::batch_eval). Results are
  // byte-identical on or off; off makes every event a batch of one for
  // differential testing.
  bool batch_eval = true;
  // When non-empty, trace the run and write Chrome-trace JSON here
  // (TestbedOptions::trace_path).
  std::string trace_path;
  // Capture the run's metrics delta into ExperimentResult::metrics.
  bool metrics = true;
  // Durability: when non-empty, journal every recorder mutation to
  // per-node WALs under this directory (TestbedOptions::wal_dir) and cut
  // compacted checkpoints every wal_checkpoint_interval_s of measured
  // time (0 = WAL only, no periodic checkpoints). The interval doubles as
  // the recovery-granularity knob: a crash replays at most one interval's
  // worth of log.
  std::string wal_dir;
  double wal_checkpoint_interval_s = 0;
  // Group-commit WAL appends (TestbedOptions::wal_buffered): cheaper, but
  // a crash loses the buffered tail.
  bool wal_buffered = false;
};

struct ExperimentResult {
  std::string scheme;
  // Snapshot times and, per node, the scheme's total storage bytes.
  std::vector<double> snapshot_times;
  std::vector<std::vector<size_t>> per_node_storage;  // [snapshot][node]
  StorageBreakdown final_storage;
  uint64_t total_network_bytes = 0;
  uint64_t total_messages = 0;
  std::vector<uint64_t> bandwidth_buckets;  // bytes per bucket
  double bandwidth_bucket_s = 1.0;
  uint64_t events_injected = 0;
  uint64_t outputs = 0;
  // Fault-injection accounting (zero on lossless runs).
  uint64_t dropped_messages = 0;
  TransportStats transport_stats;
  // Identity-work counters (SHA-1 runs, bytes serialized, cache traffic)
  // over the measurement window: this run's delta of the process-wide
  // counters, taken after setup traffic drains.
  IdentityCounters identity;
  // Observability counters/histograms over the same window (delta of the
  // process-wide MetricsRegistry; empty when ExperimentConfig::metrics is
  // false). Render with metrics.ToText() or metrics.ToJson().
  MetricsSnapshot metrics;

  // Total storage across nodes at snapshot i (0 with a warning when
  // fewer snapshots were taken).
  size_t TotalStorageAt(size_t i) const;
  // Per-node average storage growth rate in bits per simulated second.
  std::vector<double> PerNodeGrowthBps() const;
  // Aggregate growth rate in bytes per simulated second. Both growth
  // accessors report 0 (with a warning) when the run produced fewer than
  // two snapshots.
  double TotalGrowthBytesPerSec() const;

 private:
  bool HasGrowthWindow() const;
};

// Runs `scheme` over `topology` with pre-installed slow state and the given
// workload. `install` is invoked once before any event fires.
ExperimentResult RunExperiment(
    Scheme scheme, Program program, const Topology* topology,
    const std::vector<WorkloadItem>& workload, const ExperimentConfig& config,
    const std::function<Status(System&)>& install,
    const std::function<void(System&, double)>& periodic_update = nullptr);

// --- packet forwarding (§6.1) ----------------------------------------------

struct ForwardingWorkload {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<WorkloadItem> items;
};

// `pairs` communicating node pairs; each sends `rate_pps` packets/second
// for `duration_s` (offset-staggered), 500-byte payloads by default.
ForwardingWorkload MakeForwardingWorkload(const TransitStubTopology& topo,
                                          size_t pairs, double rate_pps,
                                          double duration_s,
                                          size_t payload_len, uint64_t seed);

// Fixed total budget of packets spread evenly over `pairs` pairs (Fig. 10).
ForwardingWorkload MakeFixedCountForwardingWorkload(
    const TransitStubTopology& topo, size_t pairs, size_t total_packets,
    double duration_s, size_t payload_len, uint64_t seed);

ExperimentResult RunForwarding(Scheme scheme,
                               const TransitStubTopology& topo,
                               const ForwardingWorkload& workload,
                               const ExperimentConfig& config);

// --- DNS resolution (§6.2) --------------------------------------------------

// `count` Zipf-distributed requests at `rate_rps` aggregate rate, spread
// round-robin over the clients; restricted to the first `num_urls` URLs
// when num_urls > 0.
std::vector<WorkloadItem> MakeDnsWorkload(const DnsUniverse& universe,
                                          size_t count, double rate_rps,
                                          double zipf_theta, uint64_t seed,
                                          int num_urls = 0);

ExperimentResult RunDns(Scheme scheme, const DnsUniverse& universe,
                        const std::vector<WorkloadItem>& workload,
                        const ExperimentConfig& config);

// --- environment-variable scaling -------------------------------------------

// Reads env var `name` as double/size_t, falling back to `def`.
double EnvDouble(const char* name, double def);
size_t EnvSize(const char* name, size_t def);

// Pretty-prints a figure header + the per-scheme series rows.
void PrintFigureHeader(const std::string& figure, const std::string& setup);

}  // namespace dpc::apps

#endif  // DPC_APPS_EXPERIMENTS_H_
