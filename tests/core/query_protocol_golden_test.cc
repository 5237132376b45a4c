// Golden pin of both query engines' simulated results (§5.6).
//
// The engines' wall-clock cost may change; what they report may not. For
// forwarding and DNS under ExSPAN, Basic, Advanced and Advanced with
// inter-class sharing, each run queries every output in order and records
//   * per deployment, before any query (the `ingest` line): the runtime
//     network's bytes, messages, drops and bucket_bytes, SystemStats, a
//     SHA-1 over AllOutputs() in order (tuple, time as a hex float,
//     serialized meta) and a SHA-1 over every node's serialized
//     provenance state — the runtime's own output, which the DNS
//     fixture's same-instant bursts send through batched evaluation;
//   * per query: the reported latency_s (exact, as a hex float), hops,
//     entries touched, bytes transferred and the SHA-1 of the serialized
//     trees in result order (or the failure code);
//   * per distributed run: the querier network's bytes, messages, drops
//     and bucket_bytes, plus the reliable transport's retransmissions and
//     acks.
// The distributed protocol runs lossless, at 20% loss over
// ReliableTransport, and at 2% raw loss; the `local` runs query the
// analytic cost model through Testbed::MakeQuerier(). Every run must
// reproduce its section of tests/golden/query_protocol.golden line for
// line.
//
// Regenerate only for a change that is meant to move simulated results:
//   DPC_UPDATE_GOLDEN=1 ./build/tests/query_protocol_golden_test
// (one process, so the per-section rewrites of the file do not race).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/dns.h"
#include "src/apps/forwarding.h"
#include "src/apps/testbed.h"
#include "src/core/distributed_query.h"
#include "src/net/transit_stub.h"
#include "src/util/sha1.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;

enum class Workload { kForwarding, kDns };
enum class Mode { kLossless, kReliable20, kRaw2, kLocal };

struct Config {
  Workload workload;
  Scheme scheme;
  Mode mode;
};

std::string ConfigName(const Config& c) {
  std::string name = c.workload == Workload::kForwarding ? "fwd" : "dns";
  switch (c.scheme) {
    case Scheme::kExspan: name += "_exspan"; break;
    case Scheme::kBasic: name += "_basic"; break;
    case Scheme::kAdvanced: name += "_advanced"; break;
    case Scheme::kAdvancedInterClass: name += "_interclass"; break;
    default: name += "_other"; break;
  }
  switch (c.mode) {
    case Mode::kLossless: name += "_lossless"; break;
    case Mode::kReliable20: name += "_reliable20"; break;
    case Mode::kRaw2: name += "_raw2"; break;
    case Mode::kLocal: name += "_local"; break;
  }
  return name;
}

std::string GoldenPath() {
  return std::string(DPC_GOLDEN_DIR) + "/query_protocol.golden";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The lines of `text` from the "== name ==" header up to the next header.
std::string Section(const std::string& text, const std::string& name) {
  const std::string header = "== " + name + " ==\n";
  size_t begin = text.find(header);
  if (begin == std::string::npos) return "";
  size_t end = text.find("\n== ", begin + header.size() - 1);
  return text.substr(begin, end == std::string::npos
                                ? std::string::npos
                                : end + 1 - begin);
}

void WriteSection(const std::string& name, const std::string& section) {
  std::string text = ReadFile(GoldenPath());
  std::string old = Section(text, name);
  if (old.empty()) {
    text += section;
  } else {
    text.replace(text.find(old), old.size(), section);
  }
  std::ofstream out(GoldenPath(), std::ios::trunc);
  out << text;
}

std::unique_ptr<Testbed> BuildForwarding(const Topology* graph,
                                         const TransitStubTopology& topo,
                                         Scheme scheme) {
  auto program = apps::MakeForwardingProgram();
  EXPECT_TRUE(program.ok());
  auto bed = Testbed::Create(std::move(program).value(), graph, scheme);
  EXPECT_TRUE(bed.ok());
  Rng rng(11);
  auto pairs = apps::PickCommunicatingPairs(topo, 6, rng);
  for (auto [s, d] : pairs) {
    EXPECT_TRUE(
        apps::InstallRoutesForPair((*bed)->system(), *graph, s, d).ok());
  }
  double t = 0;
  for (int round = 0; round < 3; ++round) {
    for (auto [s, d] : pairs) {
      EXPECT_TRUE((*bed)
                      ->system()
                      .ScheduleInject(
                          apps::MakePacket(
                              s, s, d, apps::MakePayload(64, round * 100 + s)),
                          t += 0.001)
                      .ok());
    }
  }
  (*bed)->system().Run();
  return std::move(bed).value();
}

// Same-instant request bursts over a few URLs: classes repeat, so the
// Advanced queries fan out over rows that share a RID.
std::unique_ptr<Testbed> BuildDns(const apps::DnsUniverse& u, Scheme scheme) {
  auto program = apps::MakeDnsProgram();
  EXPECT_TRUE(program.ok());
  auto bed = Testbed::Create(std::move(program).value(), &u.graph, scheme);
  EXPECT_TRUE(bed.ok());
  EXPECT_TRUE(apps::InstallDnsState((*bed)->system(), u).ok());
  (*bed)->system().Run();
  Rng rng(5);
  int64_t rqid = 0;
  for (int burst = 0; burst < 2; ++burst) {
    for (NodeId client : u.clients) {
      double t = (*bed)->queue().now() + 0.5 * burst + 0.01 * client;
      for (int k = 0; k < 4; ++k) {
        const std::string& url = u.urls[rng.NextBelow(u.urls.size())];
        EXPECT_TRUE((*bed)
                        ->system()
                        .ScheduleInject(apps::MakeUrlEvent(client, url, rqid++),
                                        t)
                        .ok());
      }
    }
  }
  (*bed)->system().Run();
  return std::move(bed).value();
}

std::unique_ptr<DistributedQuerier> MakeQuerier(Testbed& bed,
                                                const Topology* graph) {
  switch (bed.scheme()) {
    case Scheme::kExspan:
      return DistributedQuerier::ForExspan(bed.exspan(), graph, &bed.queue());
    case Scheme::kBasic:
      return DistributedQuerier::ForBasic(bed.basic(), &bed.program(),
                                          &bed.system().functions(), graph,
                                          &bed.queue());
    default:
      return DistributedQuerier::ForAdvanced(bed.advanced(), &bed.program(),
                                             &bed.system().functions(), graph,
                                             &bed.queue());
  }
}

std::string TreesDigest(const std::vector<ProvTree>& trees) {
  ByteWriter w;
  for (const ProvTree& tree : trees) tree.Serialize(w);
  return Sha1::Hash(w.bytes().data(), w.bytes().size()).ToHex();
}

std::string Digest(const ByteWriter& w) {
  return Sha1::Hash(w.bytes().data(), w.bytes().size()).ToHex();
}

// The deployment's own results after ingest, before any query runs: the
// runtime network's traffic, the run counters, every output in order
// (tuple, arrival time, serialized meta) and every node's provenance
// state.
std::string IngestLine(Testbed& bed) {
  const Network& net = bed.network();
  SystemStats s = bed.system().stats();
  ByteWriter outputs;
  for (const OutputRecord& rec : bed.system().AllOutputs()) {
    rec.tuple.Serialize(outputs);
    char time[64];
    std::snprintf(time, sizeof(time), "%a", rec.time);
    outputs.PutString(time);
    bed.recorder().SerializeMeta(rec.meta, outputs);
  }
  ByteWriter state;
  for (NodeId n = 0; n < bed.system().topology().num_nodes(); ++n) {
    bed.recorder().SerializeNodeState(n, state);
  }
  std::ostringstream out;
  out << "ingest bytes=" << net.total_bytes_sent()
      << " messages=" << net.total_messages()
      << " dropped=" << net.dropped_messages() << " buckets=";
  for (uint64_t b : net.bucket_bytes()) out << b << ",";
  out << " injected=" << s.events_injected << " firings=" << s.rule_firings
      << " outputs=" << s.outputs << " control=" << s.control_signals
      << " outputs_sha1=" << Digest(outputs) << " state_sha1=" << Digest(state)
      << "\n";
  return out.str();
}

// Runs every query of `c` and renders its golden section.
std::string RunSection(const Config& c) {
  // The topologies outlive the testbed and querier built over them.
  TransitStubTopology topo;
  apps::DnsUniverse universe;
  const Topology* graph = nullptr;
  std::unique_ptr<Testbed> bed;
  if (c.workload == Workload::kForwarding) {
    TransitStubParams params;
    params.num_transit = 2;
    params.stubs_per_transit = 2;
    params.nodes_per_stub = 4;
    topo = MakeTransitStub(params);
    graph = &topo.graph;
    bed = BuildForwarding(graph, topo, c.scheme);
  } else {
    apps::DnsParams params;
    params.num_servers = 20;
    params.num_clients = 4;
    params.num_urls = 5;
    params.trunk_depth = 6;
    universe = apps::MakeDnsUniverse(params);
    graph = &universe.graph;
    bed = BuildDns(universe, c.scheme);
  }
  bool use_evid = c.scheme == Scheme::kAdvanced ||
                  c.scheme == Scheme::kAdvancedInterClass;
  std::ostringstream out;
  out << "== " << ConfigName(c) << " ==\n";
  out << IngestLine(*bed);
  // Renders one line per output, querying each through `query`.
  auto query_all = [&](auto&& query) {
    int index = 0;
    for (const OutputRecord& rec : bed->system().AllOutputs()) {
      Vid evid = rec.meta.evid;
      Result<QueryResult> res = query(rec.tuple, use_evid ? &evid : nullptr);
      char latency[64];
      if (res.ok()) {
        std::snprintf(latency, sizeof(latency), "%a", res->latency_s);
        out << "q" << index << " latency=" << latency << " hops=" << res->hops
            << " entries=" << res->entries_touched
            << " bytes=" << res->bytes_transferred
            << " trees=" << res->trees.size() << ":"
            << TreesDigest(res->trees) << "\n";
      } else {
        out << "q" << index
            << " failed=" << StatusCodeName(res.status().code()) << "\n";
      }
      ++index;
    }
  };
  if (c.mode == Mode::kLocal) {
    auto local = bed->MakeQuerier();
    query_all([&](const Tuple& t, const Vid* evid) {
      return local->Query(t, evid);
    });
    return out.str();
  }

  auto querier = MakeQuerier(*bed, graph);
  if (c.mode == Mode::kReliable20) {
    querier->network().SetLossRate(0.2, /*seed=*/17);
    TransportOptions retry_forever;
    retry_forever.max_attempts = 0;
    querier->EnableReliableTransport(retry_forever);
  } else if (c.mode == Mode::kRaw2) {
    querier->network().SetLossRate(0.02, /*seed=*/29);
  }
  query_all([&](const Tuple& t, const Vid* evid) {
    return querier->QueryAndWait(t, evid);
  });
  const Network& net = querier->network();
  out << "net bytes=" << net.total_bytes_sent()
      << " messages=" << net.total_messages()
      << " dropped=" << net.dropped_messages() << " buckets=";
  for (uint64_t b : net.bucket_bytes()) out << b << ",";
  out << "\n";
  if (querier->transport() != nullptr) {
    TransportStats ts = querier->transport()->stats();
    out << "transport retransmissions=" << ts.retransmissions
        << " acks=" << ts.acks_sent << "\n";
  }
  return out.str();
}

class QueryProtocolGoldenTest : public ::testing::TestWithParam<Config> {};

TEST_P(QueryProtocolGoldenTest, MatchesGolden) {
  const Config& c = GetParam();
  std::string name = ConfigName(c);
  std::string got = RunSection(c);
  if (std::getenv("DPC_UPDATE_GOLDEN") != nullptr) {
    WriteSection(name, got);
    GTEST_SKIP() << "rewrote " << name << " in " << GoldenPath();
  }
  std::string want = Section(ReadFile(GoldenPath()), name);
  ASSERT_FALSE(want.empty()) << "no section " << name << " in "
                             << GoldenPath();
  std::istringstream got_lines(got), want_lines(want);
  std::string g, w;
  int line = 0;
  while (std::getline(want_lines, w)) {
    ++line;
    ASSERT_TRUE(std::getline(got_lines, g)) << name << ": missing line " << w;
    ASSERT_EQ(g, w) << name << ": line " << line << " differs";
  }
  ASSERT_FALSE(std::getline(got_lines, g)) << name << ": extra line " << g;
}

std::vector<Config> AllConfigs() {
  std::vector<Config> out;
  for (Workload w : {Workload::kForwarding, Workload::kDns}) {
    for (Scheme s : {Scheme::kExspan, Scheme::kBasic, Scheme::kAdvanced,
                     Scheme::kAdvancedInterClass}) {
      for (Mode m : {Mode::kLossless, Mode::kReliable20, Mode::kRaw2,
                     Mode::kLocal}) {
        out.push_back(Config{w, s, m});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Runs, QueryProtocolGoldenTest,
                         ::testing::ValuesIn(AllConfigs()),
                         [](const auto& info) {
                           return ConfigName(info.param);
                         });

}  // namespace
}  // namespace dpc
