// Microbenchmark for the tuple-identity hot path: repeated Vid() /
// SerializedSize() / Hash64() reads against the memoized caches vs the
// recompute-every-time baseline (serialize into a scratch buffer, hash
// the buffer — what the runtime did before memoization), plus a
// fig09-style end-to-end forwarding run timed per scheme with the
// identity-work counters (SHA-1 invocations, bytes serialized, cache hit
// rates) it generated. The report names the SHA-1 compression block this
// CPU selected ("sha1_path": "sha-ext" or "portable") and times a digest
// on every block the CPU can run, so numbers from hosts with and without
// the SHA extensions can be told apart. The simulator cases time event
// dispatch from a preloaded queue and in a steady state (a few events in
// flight, each scheduling the next), and per-hop network delivery.
// Prints a JSON report; the checked-in snapshot lives at
// BENCH_hotpath.json.
//
// Scale knobs: DPC_PAIRS, DPC_RATE, DPC_DURATION; sharded-runtime case:
// DPC_SHARDS, DPC_SHARD_PAIRS, DPC_SHARD_RATE, DPC_SHARD_DURATION.
#include <chrono>
#include <thread>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/experiments.h"
#include "src/net/event_queue.h"
#include "src/net/network.h"
#include "src/net/transit_stub.h"
#include "src/obs/trace.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/perf.h"
#include "src/util/rng.h"
#include "src/util/sha1.h"

namespace dpc {
namespace {

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

Tuple RandomTuple(Rng& rng) {
  std::vector<Value> values;
  values.push_back(Value::Int(static_cast<int64_t>(rng.NextBelow(64))));
  size_t arity = 2 + rng.NextBelow(4);
  for (size_t i = 1; i < arity; ++i) {
    if (rng.NextBelow(2) == 0) {
      values.push_back(Value::Int(static_cast<int64_t>(rng.Next())));
    } else {
      values.push_back(
          Value::Str(std::string(8 + rng.NextBelow(24), 'x')));
    }
  }
  return Tuple("rel" + std::to_string(rng.NextBelow(8)), std::move(values));
}

// --- repeated identity reads ------------------------------------------------

struct IdentityCase {
  double uncached_ns_per_read = 0;
  double cached_ns_per_read = 0;
  double speedup = 0;
};

// `reads` identity reads per tuple. The uncached loop reproduces the
// pre-memoization cost: every read re-serializes the tuple and re-hashes
// the buffer (SHA-1 for the VID; the size falls out of the buffer).
IdentityCase BenchRepeatedIdentity(const std::vector<Tuple>& tuples,
                                   size_t reads) {
  IdentityCase res;
  uint64_t sink = 0;

  auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reads; ++r) {
    for (const Tuple& t : tuples) {
      ByteWriter w;
      t.Serialize(w);
      Sha1Digest d = Sha1::Hash(w.bytes().data(), w.size());
      sink += d.bytes[0] + w.size();
    }
  }
  auto end = std::chrono::steady_clock::now();
  double total_reads = static_cast<double>(reads * tuples.size());
  res.uncached_ns_per_read = Seconds(start, end) * 1e9 / total_reads;

  start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reads; ++r) {
    for (const Tuple& t : tuples) {
      sink += t.Vid().bytes[0] + t.SerializedSize();
    }
  }
  end = std::chrono::steady_clock::now();
  res.cached_ns_per_read = Seconds(start, end) * 1e9 / total_reads;

  DPC_CHECK(sink != 0);  // keep the loops alive
  res.speedup = res.uncached_ns_per_read / res.cached_ns_per_read;
  return res;
}

// Same shape for the 64-bit container hash: FNV over a freshly
// serialized buffer vs the memoized streaming hash.
IdentityCase BenchRepeatedHash(const std::vector<Tuple>& tuples,
                               size_t reads) {
  IdentityCase res;
  uint64_t sink = 0;

  auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reads; ++r) {
    for (const Tuple& t : tuples) {
      ByteWriter w;
      t.Serialize(w);
      sink += Fnv1a::HashBytes(w.bytes().data(), w.size());
    }
  }
  auto end = std::chrono::steady_clock::now();
  double total_reads = static_cast<double>(reads * tuples.size());
  res.uncached_ns_per_read = Seconds(start, end) * 1e9 / total_reads;

  start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reads; ++r) {
    for (const Tuple& t : tuples) sink += t.Hash64();
  }
  end = std::chrono::steady_clock::now();
  res.cached_ns_per_read = Seconds(start, end) * 1e9 / total_reads;

  DPC_CHECK(sink != 0);
  res.speedup = res.uncached_ns_per_read / res.cached_ns_per_read;
  return res;
}

// Serialization throughput with pre-reserved buffers (MB/s).
double BenchSerializeMbps(const std::vector<Tuple>& tuples, size_t reads) {
  size_t bytes = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reads; ++r) {
    for (const Tuple& t : tuples) {
      ByteWriter w;
      w.Reserve(t.SerializedSize());
      t.Serialize(w);
      bytes += w.size();
    }
  }
  auto end = std::chrono::steady_clock::now();
  return static_cast<double>(bytes) / Seconds(start, end) / 1e6;
}

// --- SHA-1 compression blocks -----------------------------------------------

struct Sha1BlockCase {
  const char* name = "";
  sha1_internal::BlockFn block = nullptr;
  double ns_per_digest = 0;
};

// One digest per serialized tuple, `reads` times over, on every block this
// CPU can run (the test seam bypasses the CPUID choice).
std::vector<Sha1BlockCase> BenchSha1Blocks(const std::vector<Tuple>& tuples,
                                           size_t reads) {
  std::vector<std::vector<uint8_t>> buffers;
  for (const Tuple& t : tuples) {
    ByteWriter w;
    t.Serialize(w);
    buffers.push_back(w.Take());
  }
  std::vector<Sha1BlockCase> out;
  out.push_back({"portable", &sha1_internal::PortableBlock});
  if (sha1_internal::CpuHasShaExt()) {
    out.push_back({"sha-ext", sha1_internal::ShaExtBlock()});
  }
  uint64_t sink = 0;
  for (Sha1BlockCase& c : out) {
    auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reads; ++r) {
      for (const std::vector<uint8_t>& b : buffers) {
        Sha1 hasher(c.block);
        hasher.Update(b.data(), b.size());
        sink += hasher.Finish().bytes[0];
      }
    }
    auto end = std::chrono::steady_clock::now();
    c.ns_per_digest = Seconds(start, end) * 1e9 /
                      static_cast<double>(reads * buffers.size());
  }
  DPC_CHECK(sink != 0);
  return out;
}

// --- event-queue dispatch: tracing off vs on --------------------------------

struct DispatchCase {
  double off_ns_per_event = 0;
  double on_ns_per_event = 0;
  double overhead_pct = 0;  // of the traced path over the disabled path
};

// Drains `events` trivial callbacks through a fresh EventQueue and reports
// ns/dispatch. The disabled-tracing path must stay one predicted branch:
// the snapshot in BENCH_hotpath.json is the regression gate.
double DispatchNsPerEvent(size_t events) {
  EventQueue q;
  uint64_t sink = 0;
  for (size_t i = 0; i < events; ++i) {
    q.ScheduleAt(static_cast<double>(i) * 1e-6, [&sink]() { ++sink; });
  }
  auto start = std::chrono::steady_clock::now();
  q.RunAll();
  auto end = std::chrono::steady_clock::now();
  DPC_CHECK(sink == events);
  return Seconds(start, end) * 1e9 / static_cast<double>(events);
}

DispatchCase BenchQueueDispatch(size_t events) {
  DispatchCase res;
  DPC_CHECK(!Trace().enabled());
  res.off_ns_per_event = DispatchNsPerEvent(events);
  // Dispatch spans carry their own timestamps, so a constant clock is
  // fine here; sized to hold every event so drops don't skew the timing.
  Trace().Enable([]() { return 0.0; }, events + 16);
  res.on_ns_per_event = DispatchNsPerEvent(events);
  Trace().Disable();
  Trace().Clear();
  res.overhead_pct =
      (res.on_ns_per_event / res.off_ns_per_event - 1.0) * 100.0;
  return res;
}

// Steady state: `in_flight` chains, each event scheduling its successor,
// so the heap stays shallow and every dispatch pays for one schedule —
// the shape of a running simulation rather than a preloaded queue.
double SteadyDispatchNsPerEvent(size_t events, size_t in_flight) {
  struct Tick {
    EventQueue* q;
    size_t* fired;
    size_t limit;
    void operator()() const {
      if (++*fired < limit) q->ScheduleAfter(1e-6, Tick(*this));
    }
  };
  EventQueue q;
  size_t fired = 0;
  for (size_t i = 0; i < in_flight; ++i) {
    q.ScheduleAt(static_cast<double>(i) * 1e-7, Tick{&q, &fired, events});
  }
  auto start = std::chrono::steady_clock::now();
  q.RunAll();
  auto end = std::chrono::steady_clock::now();
  DPC_CHECK(fired >= events);
  return Seconds(start, end) * 1e9 / static_cast<double>(fired);
}

// --- network: per-hop delivery -----------------------------------------------

struct NetworkHopCase {
  double query_ns_per_traversal = 0;
  double event_ns_per_message = 0;
};

// Delivers `messages` messages from `make(i)` through a lossless Network,
// 64 in flight at a time, and returns the ns spent in Send and in every
// hop's dispatch (building the messages is not timed).
template <typename MakeFn>
double TimeDelivery(const Topology& graph, size_t messages, MakeFn make) {
  constexpr size_t kInFlight = 64;
  EventQueue q;
  Network net(&graph, &q);
  uint64_t delivered = 0;
  net.SetDeliveryHandler([&delivered](const Message&) { ++delivered; });
  std::vector<Message> batch;
  double ns = 0;
  for (size_t sent = 0; sent < messages; sent += batch.size()) {
    batch.clear();
    for (size_t i = sent; i < messages && batch.size() < kInFlight; ++i) {
      batch.push_back(make(i));
    }
    auto start = std::chrono::steady_clock::now();
    for (Message& m : batch) net.Send(std::move(m));
    q.RunAll();
    ns += Seconds(start, std::chrono::steady_clock::now()) * 1e9;
  }
  DPC_CHECK(delivered == messages);
  return ns;
}

// Per-hop delivery on the paper's transit-stub topology. The query-like
// case models distributed-query frames (an 8-byte payload plus 300 bytes
// of modeled padding) between random node pairs and reports ns per link
// traversal; the event case sends 560-byte event messages across one link
// and reports ns per message.
NetworkHopCase BenchNetworkHop(size_t messages) {
  TransitStubTopology topo = MakeTransitStub();
  const Topology& graph = topo.graph;
  std::vector<std::pair<NodeId, NodeId>> links;
  graph.ForEachLink(
      [&](NodeId a, NodeId b, const LinkProps&) { links.emplace_back(a, b); });
  const uint64_t n = static_cast<uint64_t>(graph.num_nodes());
  Rng rng(20170514);

  NetworkHopCase res;
  uint64_t traversals = 0;
  double ns = TimeDelivery(graph, messages, [&](size_t i) {
    Message m;
    m.kind = MessageKind::kQuery;
    m.src = static_cast<NodeId>(rng.NextBelow(n));
    do {
      m.dst = static_cast<NodeId>(rng.NextBelow(n));
    } while (m.dst == m.src);
    m.payload.assign(8, static_cast<uint8_t>(i));
    m.padding = 300;
    traversals += static_cast<uint64_t>(graph.Distance(m.src, m.dst));
    return m;
  });
  res.query_ns_per_traversal = ns / static_cast<double>(traversals);

  ns = TimeDelivery(graph, messages, [&](size_t i) {
    const auto& [a, b] = links[rng.NextBelow(links.size())];
    Message m;
    m.kind = MessageKind::kEvent;
    m.src = a;
    m.dst = b;
    m.payload.assign(560, static_cast<uint8_t>(i));
    return m;
  });
  res.event_ns_per_message = ns / static_cast<double>(messages);
  return res;
}

// --- end-to-end: fig09-style forwarding run ---------------------------------

struct EndToEndCase {
  std::string scheme;
  double wall_clock_s = 0;
  uint64_t sha1_invocations = 0;
  uint64_t tuple_bytes_serialized = 0;
  uint64_t vid_cache_hits = 0;
  uint64_t vid_cache_misses = 0;
};

std::vector<EndToEndCase> BenchEndToEnd(size_t pairs, double rate,
                                        double duration) {
  TransitStubTopology topo = MakeTransitStub();
  apps::ForwardingWorkload workload = apps::MakeForwardingWorkload(
      topo, pairs, rate, duration, apps::kDefaultPayloadLen, /*seed=*/42);
  apps::ExperimentConfig config;
  config.duration_s = duration;
  config.snapshot_interval_s = duration / 10;

  std::vector<EndToEndCase> out;
  for (apps::Scheme scheme : apps::kPaperSchemes) {
    auto start = std::chrono::steady_clock::now();
    apps::ExperimentResult r =
        apps::RunForwarding(scheme, topo, workload, config);
    auto end = std::chrono::steady_clock::now();
    DPC_CHECK(r.outputs > 0);
    EndToEndCase c;
    c.scheme = r.scheme;
    c.wall_clock_s = Seconds(start, end);
    c.sha1_invocations = r.identity.sha1_invocations;
    c.tuple_bytes_serialized = r.identity.tuple_bytes_serialized;
    c.vid_cache_hits = r.identity.vid_cache_hits;
    c.vid_cache_misses = r.identity.vid_cache_misses;
    out.push_back(std::move(c));
  }
  return out;
}

// --- sharded runtime: 1-shard vs N-shard wall clock -------------------------

struct ShardedCase {
  int nodes = 0;
  int shards = 0;
  double wall_1shard_s = 0;
  double wall_nshard_s = 0;
  double speedup = 0;
  bool accounting_identical = false;
  uint64_t outputs = 0;
  uint64_t events_injected = 0;
};

// A 1000+-node transit-stub deployment run on the classic single queue and
// on the sharded parallel engine. Reports measured wall clocks (whatever
// the host can actually deliver — see host_cores in the JSON) and verifies
// the sharded run's accounting is byte-identical.
ShardedCase BenchSharded(int shards, size_t pairs, double rate,
                         double duration) {
  TransitStubParams params;
  params.num_transit = 8;
  params.stubs_per_transit = 4;
  params.nodes_per_stub = 32;  // 8 + 8*4*32 = 1032 nodes
  TransitStubTopology topo = MakeTransitStub(params);
  apps::ForwardingWorkload workload = apps::MakeForwardingWorkload(
      topo, pairs, rate, duration, apps::kDefaultPayloadLen, /*seed=*/42);
  apps::ExperimentConfig config;
  config.duration_s = duration;
  config.snapshot_interval_s = duration / 4;
  config.metrics = false;

  ShardedCase c;
  c.nodes = topo.graph.num_nodes();
  c.shards = shards;

  auto start = std::chrono::steady_clock::now();
  apps::ExperimentResult r1 =
      apps::RunForwarding(apps::Scheme::kAdvanced, topo, workload, config);
  c.wall_1shard_s = Seconds(start, std::chrono::steady_clock::now());

  config.shards = shards;
  start = std::chrono::steady_clock::now();
  apps::ExperimentResult rn =
      apps::RunForwarding(apps::Scheme::kAdvanced, topo, workload, config);
  c.wall_nshard_s = Seconds(start, std::chrono::steady_clock::now());

  DPC_CHECK(r1.outputs > 0);
  c.outputs = rn.outputs;
  c.events_injected = rn.events_injected;
  c.speedup = c.wall_1shard_s / c.wall_nshard_s;
  c.accounting_identical =
      r1.per_node_storage == rn.per_node_storage &&
      r1.final_storage.prov == rn.final_storage.prov &&
      r1.final_storage.rule_exec == rn.final_storage.rule_exec &&
      r1.final_storage.event_store == rn.final_storage.event_store &&
      r1.final_storage.tuple_store == rn.final_storage.tuple_store &&
      r1.total_network_bytes == rn.total_network_bytes &&
      r1.total_messages == rn.total_messages &&
      r1.outputs == rn.outputs;
  return c;
}

int Main() {
  Rng rng(20170514);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 256; ++i) tuples.push_back(RandomTuple(rng));

  IdentityCase identity = BenchRepeatedIdentity(tuples, 2000);
  IdentityCase hash = BenchRepeatedHash(tuples, 2000);
  double mbps = BenchSerializeMbps(tuples, 2000);
  std::vector<Sha1BlockCase> blocks = BenchSha1Blocks(tuples, 2000);
  DispatchCase dispatch =
      BenchQueueDispatch(apps::EnvSize("DPC_DISPATCH_EVENTS", 200000));
  constexpr size_t kInFlight = 16;
  double steady_ns =
      SteadyDispatchNsPerEvent(apps::EnvSize("DPC_DISPATCH_EVENTS", 200000),
                               kInFlight);
  NetworkHopCase hop = BenchNetworkHop(/*messages=*/50000);

  size_t pairs = apps::EnvSize("DPC_PAIRS", 20);
  double rate = apps::EnvDouble("DPC_RATE", 10);
  double duration = apps::EnvDouble("DPC_DURATION", 10);
  std::vector<EndToEndCase> e2e = BenchEndToEnd(pairs, rate, duration);

  ShardedCase sharded = BenchSharded(
      static_cast<int>(apps::EnvSize("DPC_SHARDS", 8)),
      apps::EnvSize("DPC_SHARD_PAIRS", 64),
      apps::EnvDouble("DPC_SHARD_RATE", 20),
      apps::EnvDouble("DPC_SHARD_DURATION", 5));

  std::printf("{\n  \"bench\": \"hotpath_bench\",\n");
  std::printf("  \"sha1_path\": \"%s\",\n", Sha1::BlockName());
  std::printf("  \"sha1_ns_per_digest\": {");
  for (size_t i = 0; i < blocks.size(); ++i) {
    std::printf("%s\"%s\": %.1f", i > 0 ? ", " : "", blocks[i].name,
                blocks[i].ns_per_digest);
  }
  std::printf("},\n");
  std::printf("  \"repeated_identity\": {\"uncached_ns_per_read\": %.1f, "
              "\"cached_ns_per_read\": %.1f, \"speedup\": %.1f},\n",
              identity.uncached_ns_per_read, identity.cached_ns_per_read,
              identity.speedup);
  std::printf("  \"repeated_hash\": {\"uncached_ns_per_read\": %.1f, "
              "\"cached_ns_per_read\": %.1f, \"speedup\": %.1f},\n",
              hash.uncached_ns_per_read, hash.cached_ns_per_read,
              hash.speedup);
  std::printf("  \"serialize_mb_per_s\": %.0f,\n", mbps);
  std::printf("  \"queue_dispatch\": {\"tracing_off_ns_per_event\": %.1f, "
              "\"tracing_on_ns_per_event\": %.1f, \"overhead_pct\": %.1f},\n",
              dispatch.off_ns_per_event, dispatch.on_ns_per_event,
              dispatch.overhead_pct);
  std::printf("  \"queue_steady_dispatch\": {\"in_flight\": %zu, "
              "\"ns_per_event\": %.1f},\n",
              kInFlight, steady_ns);
  std::printf("  \"network_hop\": {\"query_frame_ns_per_traversal\": %.1f, "
              "\"event_560b_ns_per_message\": %.1f},\n",
              hop.query_ns_per_traversal, hop.event_ns_per_message);
  std::printf("  \"fig09\": {\"pairs\": %zu, \"rate_pps\": %.0f, "
              "\"duration_s\": %.0f, \"schemes\": [\n",
              pairs, rate, duration);
  for (size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndCase& c = e2e[i];
    double total_vid = static_cast<double>(c.vid_cache_hits +
                                           c.vid_cache_misses);
    std::printf(
        "    {\"scheme\": \"%s\", \"wall_clock_s\": %.3f, "
        "\"sha1_invocations\": %llu, \"tuple_bytes_serialized\": %llu, "
        "\"vid_cache_hit_rate\": %.3f}%s\n",
        c.scheme.c_str(), c.wall_clock_s,
        static_cast<unsigned long long>(c.sha1_invocations),
        static_cast<unsigned long long>(c.tuple_bytes_serialized),
        total_vid > 0 ? static_cast<double>(c.vid_cache_hits) / total_vid
                      : 0.0,
        i + 1 < e2e.size() ? "," : "");
  }
  std::printf("  ]},\n");
  std::printf(
      "  \"sharded\": {\"nodes\": %d, \"shards\": %d, "
      "\"host_cores\": %u,\n"
      "    \"wall_clock_1shard_s\": %.3f, \"wall_clock_%dshard_s\": %.3f, "
      "\"speedup\": %.2f,\n"
      "    \"events_injected\": %llu, \"outputs\": %llu, "
      "\"accounting_identical\": %s}\n",
      sharded.nodes, sharded.shards,
      std::thread::hardware_concurrency(), sharded.wall_1shard_s,
      sharded.shards, sharded.wall_nshard_s, sharded.speedup,
      static_cast<unsigned long long>(sharded.events_injected),
      static_cast<unsigned long long>(sharded.outputs),
      sharded.accounting_identical ? "true" : "false");
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace dpc

int main() { return dpc::Main(); }
