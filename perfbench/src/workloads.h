// Benchmark inputs and deployments.
//
// Inputs (events, their expected outputs, checkpoint times) are generated
// from the seed once per run and are not part of set-up time. A World is
// what every round rebuilds as set-up: the compiled program and the
// topology (or DNS universe). A Deployment is one scheme's complete
// runtime, wired by hand from the library's public constructors so the
// traced run can put timing decorators at each seam.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decorators.h"
#include "spans.h"
#include "src/apps/dns.h"
#include "src/apps/experiments.h"
#include "src/apps/testbed.h"
#include "src/core/distributed_query.h"
#include "src/core/query.h"
#include "src/core/wal_recorder.h"
#include "src/net/transit_stub.h"
#include "src/runtime/system.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool dns = false;  // DNS resolution instead of packet forwarding
  // Closed-loop queries per scheme per round: a fwd query costs ~0.1 ms
  // and a DNS Advanced one ~10 ms, so DNS runs the minimum (167 x 6
  // rounds = 1002).
  int queries_per_round = 0;
};

// The workloads this benchmark defines; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct Inputs {
  std::vector<dpc::apps::WorkloadItem> items;
  // expected[i] is the one output items[i] must produce.
  std::vector<dpc::Tuple> expected;
  // Forwarding only: the communicating pairs whose routes are installed.
  std::vector<std::pair<dpc::NodeId, dpc::NodeId>> pairs;
  // Simulated seconds after the phase start at which the WAL is
  // checkpointed (whenever a WAL is attached).
  std::vector<double> checkpoint_times;
  std::string description;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

class World {
 public:
  // Compiles the program and builds the topology or universe.
  static dpc::Result<std::unique_ptr<World>> Build(const WorkloadSpec& spec);

  const dpc::Program& program() const { return *program_; }
  const dpc::Topology& topology() const;
  // Inserts the workload's slow-changing state.
  dpc::Status Install(dpc::System& system, const Inputs& inputs) const;

 private:
  std::optional<dpc::Program> program_;
  std::optional<dpc::TransitStubTopology> fwd_;
  std::optional<dpc::apps::DnsUniverse> dns_;
};

struct Deployment {
  explicit Deployment(const dpc::Topology* topology)
      : network(topology, &queue) {}

  // Destroyed in reverse: the System first, the queue last.
  dpc::EventQueue queue;
  dpc::Network network;
  std::unique_ptr<TimedChannel> timed_channel;
  std::unique_ptr<dpc::ProvenanceRecorder> scheme;
  std::unique_ptr<TimedRecorder> timed_scheme;
  std::unique_ptr<dpc::WalRecorder> wal;
  std::unique_ptr<TimedRecorder> timed_wal;
  std::unique_ptr<dpc::System> system;
};

// Builds `scheme`'s deployment over `world`. A non-empty `wal_dir`
// attaches a WalRecorder there (flush per record, no fsync). A non-null
// `log` installs the timing decorators.
dpc::Result<std::unique_ptr<Deployment>> BuildDeployment(
    const World& world, dpc::apps::Scheme scheme, const std::string& wal_dir,
    SpanLog* log);

std::unique_ptr<dpc::DistributedQuerier> MakeDistQuerier(
    Deployment& dep, const World& world, dpc::apps::Scheme scheme);
std::unique_ptr<dpc::ProvenanceQuerier> MakeLocalQuerier(
    Deployment& dep, const World& world, dpc::apps::Scheme scheme);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
