#include "workloads.h"

#include "src/apps/forwarding.h"
#include "src/core/advanced_recorder.h"
#include "src/core/basic_recorder.h"
#include "src/core/equivalence_keys.h"
#include "src/core/exspan_recorder.h"
#include "src/core/reference_recorder.h"
#include "src/util/rng.h"

namespace perfbench {

using dpc::apps::Scheme;

namespace {

// fig09 shape: 200 pairs of the 100-node transit-stub topology, each
// sending 500-byte packets at 1 pkt/s for 10 simulated seconds from a
// random per-pair offset (2000 events). Many pairs keep the path-length
// mix, and so the work per event and the query-latency tail, nearly the
// same for every seed.
constexpr size_t kFwdPairs = 200;
constexpr double kFwdRatePps = 1;
constexpr double kFwdDurationS = 10;

// fig16 shape: the 100-server hierarchy with Zipf(0.9) URLs, every client
// issuing kDnsBursts bursts of kDnsBurstSize same-instant requests, one
// burst per kDnsBurstGapS from a random per-client offset.
constexpr int kDnsBursts = 2;
constexpr int kDnsBurstSize = 8;
constexpr double kDnsBurstGapS = 2.0;
constexpr double kDnsZipfTheta = 0.9;

// WAL checkpoints cut the phase into this many intervals.
constexpr int kCheckpointIntervals = 4;

const WorkloadSpec kWorkloads[] = {
    {"fwd-steady", /*dns=*/false, 1000},
    {"dns-burst", /*dns=*/true, 167},
};

std::vector<double> CheckpointTimes(double duration_s) {
  std::vector<double> times;
  for (int k = 1; k < kCheckpointIntervals; ++k) {
    times.push_back(duration_s * k / kCheckpointIntervals);
  }
  return times;
}

Inputs MakeForwardingInputs(uint64_t seed) {
  dpc::TransitStubTopology topo = dpc::MakeTransitStub();
  dpc::apps::ForwardingWorkload w = dpc::apps::MakeForwardingWorkload(
      topo, kFwdPairs, kFwdRatePps, kFwdDurationS,
      dpc::apps::kDefaultPayloadLen, seed);
  Inputs in;
  in.pairs = std::move(w.pairs);
  in.items = std::move(w.items);
  in.expected.reserve(in.items.size());
  for (const dpc::apps::WorkloadItem& item : in.items) {
    // packet(@S, S, D, payload) is received as recv(@D, S, D, payload).
    const dpc::Tuple& p = item.event;
    dpc::NodeId dst = static_cast<dpc::NodeId>(p.at(2).AsInt());
    in.expected.push_back(
        dpc::Tuple::Make("recv", dst, {p.at(1), p.at(2), p.at(3)}));
  }
  in.checkpoint_times = CheckpointTimes(kFwdDurationS);
  in.description =
      std::to_string(kFwdPairs) + " pairs x " +
      std::to_string(static_cast<int>(kFwdRatePps)) + " pkt/s x " +
      std::to_string(static_cast<int>(kFwdDurationS)) +
      " s, 500-byte payloads, 100-node transit-stub";
  return in;
}

Inputs MakeDnsInputs(uint64_t seed) {
  dpc::apps::DnsUniverse u = dpc::apps::MakeDnsUniverse();
  dpc::ZipfGenerator zipf(u.urls.size(), kDnsZipfTheta, seed);
  dpc::Rng rng(seed * 7919 + 1);
  Inputs in;
  int64_t rqid = 0;
  for (dpc::NodeId client : u.clients) {
    double offset = rng.NextDouble() * kDnsBurstGapS;
    for (int b = 0; b < kDnsBursts; ++b) {
      double t = offset + b * kDnsBurstGapS;
      for (int k = 0; k < kDnsBurstSize; ++k) {
        size_t url = zipf.Next();
        in.items.push_back(dpc::apps::WorkloadItem{
            dpc::apps::MakeUrlEvent(client, u.urls[url], rqid), t});
        // InstallDnsState gives urls[k] the address 10.0.0.k.
        in.expected.push_back(dpc::Tuple::Make(
            "reply", client,
            {dpc::Value::Str(u.urls[url]),
             dpc::Value::Int(0x0A000000 + static_cast<int64_t>(url)),
             dpc::Value::Int(rqid)}));
        ++rqid;
      }
    }
  }
  in.checkpoint_times = CheckpointTimes(kDnsBursts * kDnsBurstGapS);
  in.description = std::to_string(u.clients.size()) + " clients x " +
                   std::to_string(kDnsBursts) + " bursts x " +
                   std::to_string(kDnsBurstSize) +
                   " requests, Zipf(0.9) over " +
                   std::to_string(u.urls.size()) + " URLs, " +
                   std::to_string(u.servers.size()) + " servers";
  return in;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  return spec.dns ? MakeDnsInputs(seed) : MakeForwardingInputs(seed);
}

dpc::Result<std::unique_ptr<World>> World::Build(const WorkloadSpec& spec) {
  auto world = std::make_unique<World>();
  if (spec.dns) {
    DPC_ASSIGN_OR_RETURN(dpc::Program program, dpc::apps::MakeDnsProgram());
    world->program_.emplace(std::move(program));
    world->dns_.emplace(dpc::apps::MakeDnsUniverse());
  } else {
    DPC_ASSIGN_OR_RETURN(dpc::Program program,
                         dpc::apps::MakeForwardingProgram());
    world->program_.emplace(std::move(program));
    world->fwd_.emplace(dpc::MakeTransitStub());
  }
  return world;
}

const dpc::Topology& World::topology() const {
  return dns_ ? dns_->graph : fwd_->graph;
}

dpc::Status World::Install(dpc::System& system, const Inputs& inputs) const {
  if (dns_) return dpc::apps::InstallDnsState(system, *dns_);
  for (auto [s, d] : inputs.pairs) {
    DPC_RETURN_NOT_OK(
        dpc::apps::InstallRoutesForPair(system, fwd_->graph, s, d));
  }
  return dpc::Status::OK();
}

dpc::Result<std::unique_ptr<Deployment>> BuildDeployment(
    const World& world, Scheme scheme, const std::string& wal_dir,
    SpanLog* log) {
  const dpc::Topology& topo = world.topology();
  const int n = topo.num_nodes();
  auto dep = std::make_unique<Deployment>(&topo);
  switch (scheme) {
    case Scheme::kReference:
      dep->scheme = std::make_unique<dpc::ReferenceRecorder>(n);
      break;
    case Scheme::kExspan:
      dep->scheme = std::make_unique<dpc::ExspanRecorder>(n);
      break;
    case Scheme::kBasic:
      dep->scheme =
          std::make_unique<dpc::BasicRecorder>(&world.program(), n);
      break;
    case Scheme::kAdvanced: {
      DPC_ASSIGN_OR_RETURN(dpc::EquivalenceKeys keys,
                           dpc::ComputeEquivalenceKeys(world.program()));
      dep->scheme = std::make_unique<dpc::AdvancedRecorder>(
          &world.program(), std::move(keys), n);
      break;
    }
    case Scheme::kAdvancedInterClass:
      return dpc::Status::InvalidArgument("scheme not benchmarked");
  }
  dpc::ProvenanceRecorder* recorder = dep->scheme.get();
  if (log != nullptr) {
    dep->timed_scheme =
        std::make_unique<TimedRecorder>(recorder, log, /*wal=*/false);
    recorder = dep->timed_scheme.get();
  }
  if (!wal_dir.empty()) {
    dpc::WalOptions options;
    options.dir = wal_dir;
    DPC_ASSIGN_OR_RETURN(dep->wal, dpc::WalRecorder::Attach(
                                       recorder, &world.program(), n,
                                       std::move(options)));
    recorder = dep->wal.get();
    if (log != nullptr) {
      dep->timed_wal =
          std::make_unique<TimedRecorder>(recorder, log, /*wal=*/true);
      recorder = dep->timed_wal.get();
    }
  }
  dpc::MessageChannel* channel = &dep->network;
  if (log != nullptr) {
    dep->timed_channel = std::make_unique<TimedChannel>(channel, log);
    channel = dep->timed_channel.get();
  }
  dep->system = std::make_unique<dpc::System>(
      &world.program(), &topo, channel, &dep->queue,
      dpc::DefaultFunctions(), recorder);
  return dep;
}

std::unique_ptr<dpc::DistributedQuerier> MakeDistQuerier(
    Deployment& dep, const World& world, Scheme scheme) {
  const dpc::Topology* topo = &world.topology();
  switch (scheme) {
    case Scheme::kExspan:
      return dpc::DistributedQuerier::ForExspan(
          static_cast<const dpc::ExspanRecorder*>(dep.scheme.get()), topo,
          &dep.queue);
    case Scheme::kBasic:
      return dpc::DistributedQuerier::ForBasic(
          static_cast<const dpc::BasicRecorder*>(dep.scheme.get()),
          &world.program(), &dep.system->functions(), topo, &dep.queue);
    case Scheme::kAdvanced:
      return dpc::DistributedQuerier::ForAdvanced(
          static_cast<const dpc::AdvancedRecorder*>(dep.scheme.get()),
          &world.program(), &dep.system->functions(), topo, &dep.queue);
    default:
      return nullptr;
  }
}

std::unique_ptr<dpc::ProvenanceQuerier> MakeLocalQuerier(
    Deployment& dep, const World& world, Scheme scheme) {
  const dpc::Topology* topo = &world.topology();
  switch (scheme) {
    case Scheme::kExspan:
      return std::make_unique<dpc::ExspanQuerier>(
          static_cast<const dpc::ExspanRecorder*>(dep.scheme.get()), topo);
    case Scheme::kBasic:
      return std::make_unique<dpc::BasicQuerier>(
          static_cast<const dpc::BasicRecorder*>(dep.scheme.get()),
          &world.program(), &dep.system->functions(), topo);
    case Scheme::kAdvanced:
      return std::make_unique<dpc::AdvancedQuerier>(
          static_cast<const dpc::AdvancedRecorder*>(dep.scheme.get()),
          &world.program(), &dep.system->functions(), topo);
    default:
      return nullptr;
  }
}

}  // namespace perfbench
