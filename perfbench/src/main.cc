// dpc_perfbench: the repository benchmark.
//
//   dpc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --wal-root DIR [--trace-out FILE] [--commit C]
//                 [--source-sha1 H]
//
// Runs one workload over the three paper schemes (ExSPAN, Basic,
// Advanced) in one single-threaded process. Each round rebuilds the
// world and every scheme's deployment (set-up), ingests the seeded input
// events (the measured phase), recovers a fresh deployment from the WAL
// of a journaled copy of the same ingest, and runs a closed loop of
// distributed provenance queries. Rounds repeat until S seconds have
// passed (at least kMinRounds); timings are reported as medians over
// rounds, query latency as the median and p99 of every query. The
// untraced run (--trace 0) prints the end-to-end metrics; the traced run
// (--trace 1) installs timing decorators at each layer seam and prints
// per-layer metrics. Every output is checked: each event yields exactly
// one output, each query answer equals the ReferenceRecorder's tree,
// recovered node state is byte-identical to the journaled deployment's,
// and every count repeats exactly. The last stdout line is the JSON
// result; README.md documents every metric.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.h"
#include "workloads.h"
#include "src/core/reference_recorder.h"
#include "src/obs/metrics.h"
#include "src/util/perf.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dpc::apps::Scheme;

constexpr Scheme kSchemes[] = {Scheme::kExspan, Scheme::kBasic,
                               Scheme::kAdvanced};
constexpr const char* kSuffix[] = {"exspan", "basic", "advanced"};
constexpr int kNumSchemes = 3;
// Enough rounds for a steady median on a noisy host. Each round runs the
// workload's queries_per_round queries per scheme, at least 167, so a
// run has at least 1002 per scheme and its p99 has at least 10 samples
// beyond it.
constexpr int kMinRounds = 6;
// Spans kept for export per scheme and root layer.
constexpr size_t kKeptSpans = 20000;
// A traced ingest's wall time not covered by any layer below its root
// span: the clock reads that open and close the root, and the few
// statements between its child spans. More than this share of the wall
// time means work ran outside every layer.
constexpr double kUnattributedShare = 1e-3;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string wal_root;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_sha1 = "unknown";
};

// Attempts and failures of one operation type.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok, uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

struct Accounting {
  Ops events;      // each injected event yields exactly one output
  Ops queries;     // answer equals the ReferenceRecorder tree
  Ops recoveries;  // per node: recovered state byte-identical
  Ops counts;      // counts that must repeat exactly
  Ops trace;       // traced ingest: layer self times cover its wall time
  std::vector<std::string> errors;

  void Fail(Ops& ops, const std::string& what) {
    ops.Add(false);
    if (errors.size() < 20) errors.push_back(what);
  }
};

// Counts of one ingest that must repeat exactly for a seed. The work and
// WAL counts are deltas over the ingest.
struct Counts {
  // What the paper measures: journaling may not change these.
  uint64_t storage = 0;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
  uint64_t rule_firings = 0;
  // Work. A WAL adds its checkpoints to the dispatched events.
  uint64_t dispatched = 0;
  uint64_t sha1 = 0;
  // Zero without a WAL.
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;

  bool operator==(const Counts&) const = default;
  Counts Paper() const {
    return Counts{storage, net_bytes, net_messages, rule_firings};
  }
  std::string ToString() const {
    return "storage=" + std::to_string(storage) +
           " net_bytes=" + std::to_string(net_bytes) +
           " net_messages=" + std::to_string(net_messages) +
           " rule_firings=" + std::to_string(rule_firings) +
           " dispatched=" + std::to_string(dispatched) +
           " sha1=" + std::to_string(sha1) +
           " wal_records=" + std::to_string(wal_records) +
           " wal_bytes=" + std::to_string(wal_bytes);
  }
};

// Counters read just before an ingest; its counts are taken against them.
struct Baseline {
  dpc::MetricsSnapshot metrics;
  dpc::IdentityCounters identity;
  uint64_t dispatched = 0;
  uint64_t wal_records = 0;
};

struct Answer {
  std::string tree;  // serialized ProvTree
  int hops = 0;
  size_t entries = 0;
  uint32_t times = 0;  // queries that returned it
};

struct SchemeRun {
  std::vector<double> ingest_eps;
  std::vector<double> recover_ms;
  std::vector<double> query_us;
  std::vector<double> untraced_eps;  // traced run's untraced baseline
  std::map<std::string, std::vector<double>> layer;  // per-round values
  std::optional<Counts> counts;
  std::unordered_map<size_t, Answer> answers;  // by input index
  // Round 0 journals one untimed copy of the ingest, which every round
  // then recovers from.
  std::string wal_dir;
  Counts journal_counts;
  std::vector<std::string> journaled_state;
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::vector<std::string> NodeStates(Deployment& dep, int nodes) {
  std::vector<std::string> out;
  for (dpc::NodeId n = 0; n < nodes; ++n) {
    dpc::ByteWriter w;
    dep.scheme->SerializeNodeState(n, w);
    const std::vector<uint8_t>& b = w.bytes();
    out.emplace_back(b.begin(), b.end());
  }
  return out;
}

std::string SerializeTree(const dpc::ProvTree& tree) {
  dpc::ByteWriter w;
  tree.Serialize(w);
  const std::vector<uint8_t>& b = w.bytes();
  return std::string(b.begin(), b.end());
}

// A copy with no memoized identity, as a client would build it.
dpc::Tuple Fresh(const dpc::Tuple& t) {
  return dpc::Tuple(t.relation(), t.values());
}

class Bench {
 public:
  Bench(const Options& opt, const WorkloadSpec& spec)
      : opt_(opt), spec_(spec), spans_(kNumSchemes, kKeptSpans) {}

  int Run();

 private:
  SpanLog* log() { return opt_.trace ? &spans_ : nullptr; }
  std::string NewWalDir();
  std::string Header() const;

  // Builds a deployment and installs its slow state. Adds the time to
  // `setup` and, when `layers` is set, to its apps.* values.
  std::unique_ptr<Deployment> SetUp(
      const World& world, Scheme scheme, const std::string& wal_dir,
      SpanLog* log, double* setup,
      std::map<std::string, std::vector<double>>* layers);
  // The measured phase: schedule every input (and the WAL checkpoints),
  // run until the deployment drains. Returns wall seconds.
  double Ingest(Deployment& dep, SpanLog* log);
  void CheckOutputs(Deployment& dep, int s);
  // Reads the counters an ingest's counts are taken against, and restarts
  // the span totals.
  Baseline Before(Deployment& dep);
  Counts CollectCounts(Deployment& dep, const Baseline& b);
  void CheckCounts(const Counts& got, const Counts& want,
                   const std::string& what);
  // Fresh deployment over `wal_dir`, then Recover(); checks the state
  // against `want_state` when given. Returns the recovered deployment, or
  // null when recovery failed.
  std::unique_ptr<Deployment> Recover(
      const World& world, int s, const std::string& wal_dir,
      const std::vector<std::string>* want_state, int round);
  void Queries(Deployment& dep, const World& world, int s, int round);
  void RoundForScheme(const World& world, int s, int round, double* setup);
  // Untimed checks after the rounds.
  void CheckJournalRepeats(const World& world);
  void CheckAgainstReference(const World& world);
  // Per-layer values of one traced ingest, taken after it. CheckSelfSum
  // returns the wall time that no layer below the root accounts for.
  double CheckSelfSum(int s, double wall_s);
  void RecordLayers(int s, Deployment& dep, const Baseline& b,
                    const Counts& c, double unattributed_s);
  void RecordWal(int s, const Counts& c, double wall_s);

  const Options& opt_;
  const WorkloadSpec& spec_;
  Inputs inputs_;
  std::unordered_map<dpc::Tuple, size_t, dpc::TupleHash> expected_index_;
  SpanLog spans_;
  SchemeRun runs_[kNumSchemes];
  std::vector<double> setup_s_;
  Accounting acct_;
  int nodes_ = 0;
  int wal_seq_ = 0;
  uint32_t query_id_ = 0;
  std::string wal_run_dir_;
};

std::string Bench::NewWalDir() {
  std::string dir = wal_run_dir_ + "/" + std::to_string(wal_seq_++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<Deployment> Bench::SetUp(
    const World& world, Scheme scheme, const std::string& wal_dir,
    SpanLog* log, double* setup,
    std::map<std::string, std::vector<double>>* layers) {
  auto t0 = Clock::now();
  dpc::Result<std::unique_ptr<Deployment>> dep = [&] {
    Scope span(log, kBuild);
    return BuildDeployment(world, scheme, wal_dir, log);
  }();
  if (!dep.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", dep.status().ToString().c_str());
    std::exit(1);
  }
  double build_s = Since(t0);
  auto t1 = Clock::now();
  {
    Scope span(log, kInstall);
    dpc::Status st = world.Install(*(*dep)->system, inputs_);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: install: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    (*dep)->system->Run();
  }
  double install_s = Since(t1);
  // Only workload traffic is counted from here on.
  (*dep)->network.ResetAccounting();
  if (setup != nullptr) *setup += build_s + install_s;
  if (layers != nullptr) {
    (*layers)["apps.build_s"].push_back(build_s);
    (*layers)["apps.install_s"].push_back(install_s);
  }
  return std::move(dep).value();
}

double Bench::Ingest(Deployment& dep, SpanLog* log) {
  auto t0 = Clock::now();
  {
    Scope root(log, kIngest);
    const double base = dep.queue.now();
    {
      Scope span(log, kSchedule);
      if (dep.wal != nullptr) {
        for (double t : inputs_.checkpoint_times) {
          dep.queue.ScheduleAt(base + t, [this, &dep, log] {
            Scope ckpt(log, kCheckpoint);
            dpc::Status st = dep.wal->Checkpoint();
            if (!st.ok()) acct_.Fail(acct_.recoveries, st.ToString());
          });
        }
      }
      for (const dpc::apps::WorkloadItem& item : inputs_.items) {
        dpc::Status st = dep.system->ScheduleInject(item.event,
                                                    base + item.time_s);
        if (!st.ok()) acct_.Fail(acct_.events, st.ToString());
      }
    }
    Scope span(log, kRun);
    dep.system->Run();
  }
  return Since(t0);
}

void Bench::CheckOutputs(Deployment& dep, int s) {
  std::vector<uint32_t> seen(inputs_.items.size(), 0);
  uint64_t unexpected = 0;
  for (dpc::NodeId n = 0; n < nodes_; ++n) {
    for (const dpc::OutputRecord& out : dep.system->OutputsAt(n)) {
      auto it = expected_index_.find(out.tuple);
      if (it == expected_index_.end()) {
        ++unexpected;
      } else {
        ++seen[it->second];
      }
    }
  }
  uint64_t bad = unexpected;
  for (uint32_t c : seen) bad += (c != 1);
  acct_.events.attempted += seen.size();
  acct_.events.failed += std::min<uint64_t>(bad, seen.size());
  if (bad != 0 && acct_.errors.size() < 20) {
    acct_.errors.push_back(std::string(kSuffix[s]) + ": " +
                           std::to_string(bad) +
                           " events without exactly one output");
  }
}

Baseline Bench::Before(Deployment& dep) {
  spans_.ResetTotals();
  return Baseline{dpc::GlobalMetrics().Snapshot(), dpc::identity_counters(),
                  dep.queue.dispatched(),
                  dep.wal ? dep.wal->records_logged() : 0};
}

Counts Bench::CollectCounts(Deployment& dep, const Baseline& b) {
  Counts c;
  c.storage = dep.scheme->TotalStorage(nodes_).Total();
  c.net_bytes = dep.network.total_bytes_sent();
  c.net_messages = dep.network.total_messages();
  c.rule_firings = dep.system->stats().rule_firings;
  c.dispatched = dep.queue.dispatched() - b.dispatched;
  c.sha1 = (dpc::identity_counters() - b.identity).sha1_invocations;
  if (dep.wal != nullptr) {
    c.wal_records = dep.wal->records_logged() - b.wal_records;
    dpc::MetricsSnapshot m =
        dpc::GlobalMetrics().Snapshot().Delta(b.metrics);
    auto it = m.counters.find("wal.bytes");
    if (it != m.counters.end()) c.wal_bytes = it->second;
  }
  return c;
}

void Bench::CheckCounts(const Counts& got, const Counts& want,
                        const std::string& what) {
  if (got == want) {
    acct_.counts.Add(true);
  } else {
    acct_.Fail(acct_.counts, what + ": " + got.ToString() + " vs " +
                                 want.ToString());
  }
}

std::unique_ptr<Deployment> Bench::Recover(
    const World& world, int s, const std::string& wal_dir,
    const std::vector<std::string>* want_state, int round) {
  auto t0 = Clock::now();
  std::unique_ptr<Deployment> fresh;
  dpc::Result<dpc::WalRecoveryStats> stats = [&] {
    Scope span(log(), kRecover);
    dpc::Result<std::unique_ptr<Deployment>> dep =
        BuildDeployment(world, kSchemes[s], wal_dir, log());
    if (!dep.ok()) return dpc::Result<dpc::WalRecoveryStats>(dep.status());
    fresh = std::move(dep).value();
    return fresh->wal->Recover();
  }();
  double ms = Since(t0) * 1e3;
  if (!stats.ok()) {
    acct_.Fail(acct_.recoveries,
               std::string(kSuffix[s]) + ": " + stats.status().ToString());
    return nullptr;
  }
  runs_[s].recover_ms.push_back(ms);
  if (opt_.trace) {
    runs_[s].layer["core.wal.records_replayed"].push_back(
        static_cast<double>(stats->records_replayed));
  }
  if (want_state == nullptr) return fresh;
  std::vector<std::string> got = NodeStates(*fresh, nodes_);
  for (int n = 0; n < nodes_; ++n) {
    if (got[n] == (*want_state)[n]) {
      acct_.recoveries.Add(true);
    } else {
      acct_.Fail(acct_.recoveries,
                 std::string(kSuffix[s]) + ": node " + std::to_string(n) +
                     " state differs after Recover() in round " +
                     std::to_string(round));
    }
  }
  return fresh;
}

void Bench::Queries(Deployment& dep, const World& world, int s, int round) {
  std::unique_ptr<dpc::DistributedQuerier> dist =
      MakeDistQuerier(dep, world, kSchemes[s]);
  std::unique_ptr<dpc::ProvenanceQuerier> local =
      opt_.trace ? MakeLocalQuerier(dep, world, kSchemes[s]) : nullptr;
  // The round's sample of outputs, drawn without replacement; every
  // scheme queries the same outputs in the same order.
  std::vector<size_t> order(inputs_.items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  dpc::Rng rng(opt_.seed * 1000003 + static_cast<uint64_t>(round) * 131);
  rng.Shuffle(order);
  const int queries = std::min<int>(spec_.queries_per_round, order.size());
  double dist_s = 0, local_s = 0, hops = 0, entries = 0;
  int answered = 0;
  for (int q = 0; q < queries; ++q) {
    size_t i = order[q];
    dpc::Tuple target = Fresh(inputs_.expected[i]);
    spans_.set_query(++query_id_);
    auto t0 = Clock::now();
    dpc::Result<dpc::QueryResult> res = [&] {
      Scope span(log(), kQueryDist);
      return dist->QueryAndWait(target);
    }();
    double wall = Since(t0);
    runs_[s].query_us.push_back(wall * 1e6);
    dist_s += wall;
    if (!res.ok() || res->trees.size() != 1) {
      acct_.Fail(acct_.queries,
                 std::string(kSuffix[s]) + ": query " +
                     inputs_.expected[i].ToString() + ": " +
                     (res.ok() ? std::to_string(res->trees.size()) + " trees"
                               : res.status().ToString()));
      continue;
    }
    hops += res->hops;
    entries += static_cast<double>(res->entries_touched);
    ++answered;
    std::string tree = SerializeTree(res->trees[0]);
    if (local != nullptr) {
      dpc::Tuple again = Fresh(inputs_.expected[i]);
      auto t1 = Clock::now();
      dpc::Result<dpc::QueryResult> lres = [&] {
        Scope span(log(), kQueryLocal);
        return local->Query(again);
      }();
      local_s += Since(t1);
      if (!lres.ok() || lres->trees.size() != 1 ||
          SerializeTree(lres->trees[0]) != tree) {
        acct_.Fail(acct_.queries, std::string(kSuffix[s]) +
                                      ": local and distributed answers "
                                      "differ for " +
                                      inputs_.expected[i].ToString());
        continue;
      }
    }
    // Repeated queries of one output must agree, hop and entry counts
    // included; the Reference check at the end settles each distinct
    // answer once.
    Answer& a = runs_[s].answers[i];
    if (a.times == 0) {
      a = Answer{std::move(tree), res->hops, res->entries_touched, 0};
    } else if (a.tree != tree || a.hops != res->hops ||
               a.entries != res->entries_touched) {
      acct_.Fail(acct_.queries, std::string(kSuffix[s]) +
                                    ": answers differ between queries of " +
                                    inputs_.expected[i].ToString());
      continue;
    }
    ++a.times;
  }
  spans_.set_query(0);
  if (opt_.trace) {
    auto& L = runs_[s].layer;
    L["core.query.dist_s"].push_back(dist_s / queries);
    L["core.query.local_s"].push_back(local_s / queries);
    // Counts must repeat exactly for a seed, and the number of rounds
    // depends on the host's speed: take them from the first round only.
    if (round == 0) {
      L["core.query.hops_mean"].push_back(answered ? hops / answered : 0);
      L["core.query.entries_mean"].push_back(answered ? entries / answered
                                                      : 0);
    }
  }
}

double Bench::CheckSelfSum(int s, double wall_s) {
  // Nothing unaccounted: the self times of the layers under the ingest
  // root add up to the wall time Ingest() measured around it, within the
  // clock reads the root itself costs.
  int64_t layers_ns = 0;
  for (int l = 0; l < kNumLayers; ++l) {
    if (l != kIngest) layers_ns += spans_.self_ns(static_cast<Layer>(l));
  }
  const int64_t wall_ns = std::llround(wall_s * 1e9);
  const int64_t unattributed_ns = wall_ns - layers_ns;
  if (spans_.count(kIngest) == 1 && spans_.depth() == 0 &&
      unattributed_ns >= 0 && unattributed_ns <= kUnattributedShare * wall_ns) {
    acct_.trace.Add(true);
  } else {
    acct_.Fail(acct_.trace, std::string(kSuffix[s]) +
                                ": layer self times sum to " +
                                std::to_string(layers_ns) +
                                " ns, ingest wall time " +
                                std::to_string(wall_ns) + " ns");
  }
  return unattributed_ns * 1e-9;
}

void Bench::RecordLayers(int s, Deployment& dep, const Baseline& b,
                         const Counts& c, double unattributed_s) {
  auto& L = runs_[s].layer;
  const SpanLog& sp = spans_;
  dpc::MetricsSnapshot m = dpc::GlobalMetrics().Snapshot().Delta(b.metrics);
  dpc::IdentityCounters id = dpc::identity_counters() - b.identity;
  double batched = 0;
  for (const auto& [name, v] : m.counters) {
    if (name.rfind("system.batched_firings.", 0) == 0) batched += v;
  }
  double firings = static_cast<double>(c.rule_firings);
  L["runtime.run_s"].push_back(sp.total_s(kRun));
  L["runtime.run_self_s"].push_back(sp.self_s(kRun));
  L["runtime.deliver_self_s"].push_back(sp.self_s(kDeliver));
  L["runtime.schedule_s"].push_back(sp.self_s(kSchedule));
  L["runtime.dispatched"].push_back(static_cast<double>(c.dispatched));
  L["runtime.rule_firings"].push_back(firings);
  L["runtime.batched_share"].push_back(firings > 0 ? batched / firings : 0);
  L["net.send_s"].push_back(sp.self_s(kSend));
  L["net.messages"].push_back(static_cast<double>(c.net_messages));
  L["net.bytes"].push_back(static_cast<double>(c.net_bytes));
  L["core.recorder.inject_s"].push_back(sp.self_s(kInject));
  L["core.recorder.rule_fired_s"].push_back(sp.self_s(kRuleFired));
  L["core.recorder.arrival_s"].push_back(sp.self_s(kArrival));
  L["core.recorder.output_s"].push_back(sp.self_s(kOutput));
  L["core.recorder.meta_s"].push_back(sp.self_s(kMeta));
  double classes = static_cast<double>(dep.timed_scheme->new_classes() +
                                       dep.timed_scheme->shared_classes());
  L["core.recorder.equiv_hit_rate"].push_back(
      classes > 0 ? dep.timed_scheme->shared_classes() / classes : 0);
  L["core.recorder.storage_bytes"].push_back(static_cast<double>(c.storage));
  L["util.identity.sha1"].push_back(static_cast<double>(c.sha1));
  double lookups =
      static_cast<double>(id.vid_cache_hits + id.vid_cache_misses);
  L["util.identity.vid_hit_rate"].push_back(
      lookups > 0 ? id.vid_cache_hits / lookups : 0);
  L["trace.unattributed_s"].push_back(unattributed_s);
}

void Bench::RecordWal(int s, const Counts& c, double wall_s) {
  auto& L = runs_[s].layer;
  L["core.wal.append_self_s"].push_back(spans_.self_s(kWal));
  L["core.wal.append_share"].push_back(spans_.self_s(kWal) / wall_s);
  L["core.wal.records"].push_back(static_cast<double>(c.wal_records));
  L["core.wal.bytes"].push_back(static_cast<double>(c.wal_bytes));
  L["core.wal.checkpoint_s"].push_back(spans_.total_s(kCheckpoint));
}

void Bench::RoundForScheme(const World& world, int s, int round,
                           double* setup) {
  SchemeRun& run = runs_[s];
  const size_t n = inputs_.items.size();
  const std::string name = kSuffix[s];
  spans_.set_scheme(static_cast<uint8_t>(s));

  std::optional<Counts> untraced;
  if (opt_.trace) {
    // Same inputs without decorators: the tracing-overhead baseline and
    // the traced-vs-untraced count check.
    auto dep = SetUp(world, kSchemes[s], "", nullptr, nullptr, nullptr);
    Baseline b = Before(*dep);
    run.untraced_eps.push_back(n / Ingest(*dep, nullptr));
    untraced = CollectCounts(*dep, b);
  }

  auto dep = SetUp(world, kSchemes[s], "", log(), setup,
                   opt_.trace ? &run.layer : nullptr);
  Baseline base = Before(*dep);
  double wall = Ingest(*dep, log());
  run.ingest_eps.push_back(n / wall);
  Counts counts = CollectCounts(*dep, base);
  if (opt_.trace) {
    RecordLayers(s, *dep, base, counts, CheckSelfSum(s, wall));
  }
  CheckOutputs(*dep, s);
  if (!run.counts) {
    run.counts = counts;
  } else {
    CheckCounts(counts, *run.counts, name + " round " + std::to_string(round));
  }
  if (untraced) CheckCounts(counts, *untraced, name + " traced vs untraced");

  if (round == 0) {
    // One untimed journaled copy of the same ingest, with periodic
    // checkpoints. Its paper counts must equal the unjournaled run's: the
    // WAL may not change what the paper measures. The traced run takes
    // the core.wal.* values from it.
    run.wal_dir = NewWalDir();
    auto jdep = SetUp(world, kSchemes[s], run.wal_dir, log(), nullptr,
                      nullptr);
    Baseline jbase = Before(*jdep);
    double jwall = Ingest(*jdep, log());
    run.journal_counts = CollectCounts(*jdep, jbase);
    if (opt_.trace) {
      CheckSelfSum(s, jwall);
      RecordWal(s, run.journal_counts, jwall);
    }
    CheckCounts(run.journal_counts.Paper(), counts.Paper(),
                name + " journaled vs unjournaled");
    run.journaled_state = NodeStates(*jdep, nodes_);
  }
  // Every round replays the same log; its state is checked once.
  Recover(world, s, run.wal_dir, round == 0 ? &run.journaled_state : nullptr,
          round);
  run.journaled_state.clear();
  Queries(*dep, world, s, round);
}

void Bench::CheckJournalRepeats(const World& world) {
  // A second journaled ingest per scheme, untraced: the WAL's counts must
  // repeat like every other count.
  for (int s = 0; s < kNumSchemes; ++s) {
    const std::string dir = NewWalDir();
    auto dep = SetUp(world, kSchemes[s], dir, nullptr, nullptr, nullptr);
    Baseline b = Before(*dep);
    Ingest(*dep, nullptr);
    CheckCounts(CollectCounts(*dep, b), runs_[s].journal_counts,
                std::string(kSuffix[s]) + " second journaled ingest");
    dep.reset();
    std::filesystem::remove_all(dir);
  }
}

void Bench::CheckAgainstReference(const World& world) {
  auto ref = SetUp(world, Scheme::kReference, "", nullptr, nullptr, nullptr);
  Ingest(*ref, nullptr);
  const auto* oracle =
      static_cast<const dpc::ReferenceRecorder*>(ref->scheme.get());
  for (int s = 0; s < kNumSchemes; ++s) {
    for (const auto& [i, answer] : runs_[s].answers) {
      std::vector<const dpc::ProvTree*> want =
          oracle->FindTrees(inputs_.expected[i]);
      bool ok = want.size() == 1 && SerializeTree(*want[0]) == answer.tree;
      acct_.queries.Add(ok, answer.times);
      if (!ok && acct_.errors.size() < 20) {
        acct_.errors.push_back(std::string(kSuffix[s]) +
                               ": answer differs from the Reference tree "
                               "for " +
                               inputs_.expected[i].ToString());
      }
    }
  }
}

std::string Bench::Header() const {
  const char* flags = PERFBENCH_CXX_FLAGS;
  std::string h = "{\"perfbench\": \"header\"";
  h += ", \"workload\": " + Quote(spec_.name);
  h += ", \"seed\": " + std::to_string(opt_.seed);
  h += ", \"seconds\": " + Num(opt_.seconds);
  h += ", \"trace\": " + std::to_string(opt_.trace ? 1 : 0);
  h += ", \"host_cores\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  h += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  h += ", \"compiler\": " + Quote(PERFBENCH_COMPILER);
  h += ", \"cxx_flags\": " + Quote(flags);
  h += ", \"commit\": " + Quote(opt_.commit);
  h += ", \"source_sha1\": " + Quote(opt_.source_sha1);
  h += ", \"shards\": 1, \"threads\": 1";
  h += ", \"schemes\": [\"ExSPAN\", \"Basic\", \"Advanced\"]";
  h += ", \"events\": " + std::to_string(inputs_.items.size());
  h += ", \"inputs\": " + Quote(inputs_.description);
  h += ", \"wal\": {\"dir\": " + Quote(opt_.wal_root) +
       ", \"filesystem\": " + Quote(FilesystemOf(opt_.wal_root)) +
       ", \"flush\": \"per-record\", \"fsync\": false" +
       ", \"checkpoints_at_s\": [";
  for (size_t k = 0; k < inputs_.checkpoint_times.size(); ++k) {
    h += (k ? ", " : "") + Num(inputs_.checkpoint_times[k]);
  }
  h += "]}, \"queries_per_round\": " + std::to_string(spec_.queries_per_round);
  h += ", \"min_rounds\": " + std::to_string(kMinRounds) + "}";
  return h;
}

int Bench::Run() {
  inputs_ = MakeInputs(spec_, opt_.seed);
  for (size_t i = 0; i < inputs_.expected.size(); ++i) {
    expected_index_.emplace(inputs_.expected[i], i);
  }
  wal_run_dir_ = opt_.wal_root + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(wal_run_dir_);
  const std::string header = Header();
  std::printf("%s\n", header.c_str());
  std::fflush(stdout);

  auto start = Clock::now();
  int rounds = 0;
  while (rounds < kMinRounds || Since(start) < opt_.seconds) {
    // The exported spans are the last round's.
    if (opt_.trace) spans_.ClearKept();
    double setup = 0;
    auto t0 = Clock::now();
    dpc::Result<std::unique_ptr<World>> world = World::Build(spec_);
    if (!world.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   world.status().ToString().c_str());
      return 1;
    }
    nodes_ = (*world)->topology().num_nodes();
    setup += Since(t0);
    for (int s = 0; s < kNumSchemes; ++s) {
      RoundForScheme(**world, s, rounds, &setup);
    }
    setup_s_.push_back(setup);
    ++rounds;
  }
  const double measured_s = Since(start);
  const double peak_rss_mb = PeakRssMb();

  // Untimed: a second journaled ingest, and the oracle, which is the
  // Reference run of the same inputs.
  dpc::Result<std::unique_ptr<World>> world = World::Build(spec_);
  if (world.ok()) {
    CheckJournalRepeats(**world);
    CheckAgainstReference(**world);
  } else {
    acct_.Fail(acct_.queries, world.status().ToString());
  }
  std::filesystem::remove_all(wal_run_dir_);

  if (opt_.trace && !opt_.trace_out.empty()) {
    std::vector<std::string> names = {"ExSPAN", "Basic", "Advanced"};
    std::ofstream out(opt_.trace_out);
    out << spans_.ToChromeJson(names, header);
  }

  std::string metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + Num(value) +
               ", \"unit\": " + Quote(unit) + "}";
  };
  if (!opt_.trace) {
    add("setup_s", Median(setup_s_), "s");
    add("peak_rss_mb", peak_rss_mb, "MB");
    for (int s = 0; s < kNumSchemes; ++s) {
      add(std::string("ingest_eps.") + kSuffix[s],
          Median(runs_[s].ingest_eps), "events/s");
    }
    for (int s = 0; s < kNumSchemes; ++s) {
      add(std::string("query_p50_us.") + kSuffix[s],
          dpc::Cdf(runs_[s].query_us).Quantile(0.50), "us");
    }
    for (int s = 0; s < kNumSchemes; ++s) {
      add(std::string("query_p99_us.") + kSuffix[s],
          dpc::Cdf(runs_[s].query_us).Quantile(0.99), "us");
    }
    for (int s = 0; s < kNumSchemes; ++s) {
      add(std::string("recover_ms.") + kSuffix[s],
          Median(runs_[s].recover_ms), "ms");
    }
  } else {
    for (int s = 0; s < kNumSchemes; ++s) {
      SchemeRun& run = runs_[s];
      double traced = Median(run.ingest_eps);
      run.layer["trace.overhead_pct"].push_back(
          traced > 0 ? (Median(run.untraced_eps) / traced - 1) * 100 : 0);
      for (const auto& [name, values] : run.layer) {
        std::string unit = "s";
        if (name.ends_with("_share") || name.ends_with("_rate")) {
          unit = "ratio";
        } else if (name.ends_with("_pct")) {
          unit = "%";
        } else if (name.ends_with("bytes")) {
          unit = "B";
        } else if (!name.ends_with("_s")) {
          unit = "count";
        }
        add(name + "." + kSuffix[s], Median(values), unit.c_str());
      }
    }
  }

  std::printf(
      "{\"perfbench\": \"operations\", \"rounds\": %d, \"measured_s\": %s, "
      "\"events\": [%llu, %llu], \"queries\": [%llu, %llu], "
      "\"recovered_nodes\": [%llu, %llu], \"count_checks\": [%llu, %llu], "
      "\"trace_sum_checks\": [%llu, %llu]}\n",
      rounds, Num(measured_s).c_str(),
      static_cast<unsigned long long>(acct_.events.attempted),
      static_cast<unsigned long long>(acct_.events.failed),
      static_cast<unsigned long long>(acct_.queries.attempted),
      static_cast<unsigned long long>(acct_.queries.failed),
      static_cast<unsigned long long>(acct_.recoveries.attempted),
      static_cast<unsigned long long>(acct_.recoveries.failed),
      static_cast<unsigned long long>(acct_.counts.attempted),
      static_cast<unsigned long long>(acct_.counts.failed),
      static_cast<unsigned long long>(acct_.trace.attempted),
      static_cast<unsigned long long>(acct_.trace.failed));
  for (const std::string& e : acct_.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
  uint64_t attempted = acct_.events.attempted + acct_.queries.attempted +
                       acct_.recoveries.attempted + acct_.counts.attempted +
                       acct_.trace.attempted;
  uint64_t failed = acct_.events.failed + acct_.queries.failed +
                    acct_.recoveries.failed + acct_.counts.failed +
                    acct_.trace.failed;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

// A timing of unoptimized or sanitized code measures the instrumentation,
// not the program.
bool RefuseBuild() {
  std::string flags = PERFBENCH_CXX_FLAGS;
  bool sanitized = flags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  bool optimized = true;
#if !defined(__OPTIMIZE__)
  optimized = false;
#endif
  if (sanitized || !optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time this %s build (flags: %s)\n",
                 sanitized ? "sanitized" : "unoptimized", flags.c_str());
    return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--wal-root") {
      opt.wal_root = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else if (key == "--source-sha1") {
      opt.source_sha1 = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr || !have_seed || !have_seconds || !have_trace ||
      opt.seconds <= 0 || opt.wal_root.empty()) {
    std::fprintf(stderr,
                 "usage: dpc_perfbench --workload fwd-steady|dns-burst "
                 "--seed N --seconds S --trace 0|1 "
                 "--wal-root DIR [--trace-out FILE] [--commit C] "
                 "[--source-sha1 H]\n");
    return 2;
  }
  if (RefuseBuild()) return 3;
  Bench bench(opt, *spec);
  return bench.Run();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
