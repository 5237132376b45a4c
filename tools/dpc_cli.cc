// dpc_cli: run any DELP from files, drive it with a trace, and query
// provenance interactively — the adoptable front door to the library.
//
//   dpc_cli --program forwarding.ndlog --trace run.trace --scheme advanced
//
// The program file holds NDlog rules (see examples in src/apps). The trace
// file holds one command per line ('#' starts a comment):
//
//   nodes N                      declare N nodes (ids 0..N-1)
//   link A B LATENCY_S BW_BPS    add an undirected link
//   interest REL                 add REL to the relations of interest
//   slow route(@0, 2, 1)         insert a slow-changing tuple
//   delete route(@0, 2, 1)       delete one (no provenance invalidation)
//   inject 0.5 packet(@0, 0, 2, "x")   schedule an event at t=0.5s
//   run                          drain the simulation
//   keys                         print the computed equivalence keys
//   stats                        print execution counters
//   storage                      print per-scheme storage breakdown
//   snapshot PREFIX              write per-node table snapshots to
//                                PREFIX-nodeN.dpcs (exspan/basic/advanced)
//   query recv(@2, 0, 2, "x")    print the tuple's provenance tree(s)
//   checkpoint                   cut a compacted WAL checkpoint
//                                (needs --wal-dir)
//   crash-at 1.5                 die with _Exit(137) at t=1.5s during the
//                                next run — a kill -9 drill; restart with
//                                --recover to rebuild from disk
//
// The lint subcommand runs the static analyzer over NDlog files without
// executing them:
//
//   dpc_cli lint [--werror] [-f text|json] [--keys] [--plan] [--shard]
//                [--growth] [--storage] [--storage-events N]
//                [--storage-depth D] [--storage-margin F]
//                [--interest REL]... FILE...
//
// The trace subcommand runs a trace script with the observability layer
// enabled, exports the run as Chrome-trace/Perfetto JSON (open it in
// ui.perfetto.dev) and optionally prints the metrics summary:
//
//   dpc_cli trace --program FILE --script FILE [--scheme NAME]
//                 [--out trace.json] [--stats] [--interest REL]...
//
// `--stats` also works in plain run mode to print the metrics registry
// after the script completes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/analysis/lint.h"
#include "src/apps/testbed.h"
#include "src/core/equivalence_keys.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/ndlog/parser.h"
#include "src/obs/trace.h"
#include "src/util/stats.h"

namespace dpc {
namespace {

using apps::Scheme;
using apps::Testbed;

int Fail(const std::string& msg) {
  std::fprintf(stderr, "dpc_cli: %s\n", msg.c_str());
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Result<Scheme> ParseScheme(const std::string& name) {
  if (name == "reference") return Scheme::kReference;
  if (name == "exspan") return Scheme::kExspan;
  if (name == "basic") return Scheme::kBasic;
  if (name == "advanced") return Scheme::kAdvanced;
  if (name == "advanced-interclass") return Scheme::kAdvancedInterClass;
  return Status::InvalidArgument(
      "unknown scheme " + name +
      " (reference|exspan|basic|advanced|advanced-interclass)");
}

struct TraceRunner {
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<ProvenanceQuerier> querier;

  int Execute(const std::string& line, int lineno) {
    std::istringstream ss(line);
    std::string cmd;
    ss >> cmd;
    if (cmd.empty() || cmd[0] == '#') return 0;

    auto rest = [&ss]() {
      std::string r;
      std::getline(ss, r);
      return r;
    };
    auto error = [lineno](const std::string& msg) {
      return Fail("trace line " + std::to_string(lineno) + ": " + msg);
    };

    if (cmd == "slow" || cmd == "delete") {
      auto tuple = ParseTuple(rest());
      if (!tuple.ok()) return error(tuple.status().ToString());
      Status st = cmd == "slow" ? bed->system().InsertSlowTuple(*tuple)
                                : bed->system().DeleteSlowTuple(*tuple);
      if (!st.ok()) return error(st.ToString());
      return 0;
    }
    if (cmd == "inject") {
      double when = 0;
      ss >> when;
      auto tuple = ParseTuple(rest());
      if (!tuple.ok()) return error(tuple.status().ToString());
      Status st = bed->system().ScheduleInject(*tuple, when);
      if (!st.ok()) return error(st.ToString());
      return 0;
    }
    if (cmd == "run") {
      bed->system().Run();
      return 0;
    }
    if (cmd == "keys") {
      auto keys = ComputeEquivalenceKeys(bed->program());
      if (!keys.ok()) return error(keys.status().ToString());
      std::printf("equivalence keys: %s\n", keys->ToString().c_str());
      return 0;
    }
    if (cmd == "stats") {
      const SystemStats& s = bed->system().stats();
      std::printf("events=%llu firings=%llu outputs=%llu sigs=%llu "
                  "net=%s msgs=%llu\n",
                  static_cast<unsigned long long>(s.events_injected),
                  static_cast<unsigned long long>(s.rule_firings),
                  static_cast<unsigned long long>(s.outputs),
                  static_cast<unsigned long long>(s.control_signals),
                  FormatBytes(static_cast<double>(
                                  bed->network().total_bytes_sent()))
                      .c_str(),
                  static_cast<unsigned long long>(
                      bed->network().total_messages()));
      return 0;
    }
    if (cmd == "storage") {
      StorageBreakdown s = bed->TotalStorage();
      std::printf("storage: prov=%zu ruleExec=%zu events=%zu tuples=%zu "
                  "total=%zu bytes\n",
                  s.prov, s.rule_exec, s.event_store, s.tuple_store,
                  s.Total());
      return 0;
    }
    if (cmd == "snapshot") {
      std::string prefix;
      ss >> prefix;
      if (prefix.empty()) return error("snapshot needs a file prefix");
      int nodes = bed->topology().num_nodes();
      size_t total = 0;
      for (NodeId n = 0; n < nodes; ++n) {
        NodeSnapshot snap;
        if (bed->exspan() != nullptr) {
          snap = bed->exspan()->SnapshotAt(n);
        } else if (bed->basic() != nullptr) {
          snap = bed->basic()->SnapshotAt(n);
        } else if (bed->advanced() != nullptr) {
          snap = bed->advanced()->SnapshotAt(n);
        } else {
          return error("the reference scheme has no snapshot support");
        }
        ByteWriter w;
        snap.Serialize(w);
        std::string path =
            prefix + "-node" + std::to_string(n) + ".dpcs";
        std::ofstream out(path, std::ios::binary);
        if (!out) return error("cannot write " + path);
        out.write(reinterpret_cast<const char*>(w.bytes().data()),
                  static_cast<std::streamsize>(w.size()));
        total += w.size();
      }
      std::printf("wrote %d snapshot files (%zu bytes)\n", nodes, total);
      return 0;
    }
    if (cmd == "checkpoint") {
      if (bed->wal() == nullptr) return error("checkpoint needs --wal-dir");
      Status st = bed->wal()->Checkpoint();
      if (!st.ok()) return error(st.ToString());
      std::printf("checkpoint cut (%llu total, %llu records journaled)\n",
                  static_cast<unsigned long long>(bed->wal()->checkpoints_cut()),
                  static_cast<unsigned long long>(bed->wal()->records_logged()));
      return 0;
    }
    if (cmd == "crash-at") {
      double when = 0;
      if (!(ss >> when)) return error("crash-at needs a time");
      // _Exit skips destructors and stdio flushing — the closest a process
      // can get to kill -9 from inside. The WAL survives because every
      // append was already flushed (WalWriter::Append).
      bed->ScheduleGlobal(when, [when]() {
        std::fprintf(stderr, "dpc_cli: crash-at t=%g: simulating kill -9\n",
                     when);
        std::_Exit(137);
      });
      return 0;
    }
    if (cmd == "query") {
      if (querier == nullptr) querier = bed->MakeQuerier();
      if (querier == nullptr) {
        return error("the reference scheme is not queryable; use its trees");
      }
      auto tuple = ParseTuple(rest());
      if (!tuple.ok()) return error(tuple.status().ToString());
      auto res = querier->Query(*tuple);
      if (!res.ok()) return error(res.status().ToString());
      std::printf("%zu derivation(s), latency %.3f ms, %zu entries, "
                  "%d hops:\n",
                  res->trees.size(), res->latency_s * 1e3,
                  res->entries_touched, res->hops);
      for (const ProvTree& tree : res->trees) {
        std::printf("%s", tree.ToString().c_str());
      }
      return 0;
    }
    return error("unknown command " + cmd);
  }
};

int RunLint(int argc, char** argv) {
  LintOptions options;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "-f" || arg == "--format") {
      const char* v = next();
      if (!v) return Fail("-f needs a format (text|json)");
      if (std::strcmp(v, "text") == 0) {
        options.format = LintFormat::kText;
      } else if (std::strcmp(v, "json") == 0) {
        options.format = LintFormat::kJson;
      } else {
        return Fail("unknown format " + std::string(v) + " (text|json)");
      }
    } else if (arg == "--keys") {
      options.print_keys = true;
      options.analyzer.key_notes = true;
    } else if (arg == "--plan") {
      options.print_plan = true;
      options.analyzer.plan_notes = true;
    } else if (arg == "--shard") {
      options.print_shard = true;
      options.analyzer.shard = true;
    } else if (arg == "--growth") {
      options.print_growth = true;
      options.analyzer.growth_notes = true;
    } else if (arg == "--storage") {
      options.print_storage = true;
      options.analyzer.storage = true;
    } else if (arg == "--storage-events") {
      const char* v = next();
      if (!v) return Fail("--storage-events needs a count");
      options.analyzer.storage_params.events = std::atof(v);
    } else if (arg == "--storage-depth") {
      const char* v = next();
      if (!v) return Fail("--storage-depth needs a recursion depth");
      options.analyzer.storage_params.recursion_depth = std::atof(v);
    } else if (arg == "--storage-margin") {
      const char* v = next();
      if (!v) return Fail("--storage-margin needs a fraction");
      options.analyzer.storage_params.advanced_margin = std::atof(v);
    } else if (arg == "--interest") {
      const char* v = next();
      if (!v) return Fail("--interest needs a relation");
      options.analyzer.program.relations_of_interest.push_back(v);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: dpc_cli lint [--werror] [-f text|json] [--keys] "
                  "[--plan] [--shard] [--growth] [--storage] "
                  "[--storage-events N] [--storage-depth D] "
                  "[--storage-margin F] [--interest REL]... FILE...\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown lint flag " + arg + " (try dpc_cli lint --help)");
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Fail("lint needs at least one NDlog file");

  std::vector<FileLint> results;
  for (const std::string& path : files) {
    auto source = ReadFile(path);
    if (!source.ok()) return Fail(source.status().ToString());
    options.analyzer.program.name = path;
    results.push_back(LintSource(path, *source, options));
  }

  std::string rendered = options.format == LintFormat::kJson
                             ? RenderJson(results) + "\n"
                             : RenderText(results, options);
  std::fputs(rendered.c_str(), stdout);
  return LintExitCode(results, options);
}

// Flags shared by the plain run mode and the trace subcommand.
struct RunConfig {
  std::string program_path;
  std::string script_path;  // the command script (run mode's --trace)
  std::string scheme_name = "advanced";
  std::vector<std::string> interests;
  std::string trace_out;  // Chrome-trace JSON path ("" = no tracing)
  bool stats = false;     // print the metrics registry at the end
  int shards = 1;         // runtime shard count (TestbedOptions::shards)
  std::string wal_dir;    // journal recorder mutations here (must exist)
  bool recover = false;   // rebuild from wal_dir before running the script
};

int RunScript(const RunConfig& config) {
  auto scheme = ParseScheme(config.scheme_name);
  if (!scheme.ok()) return Fail(scheme.status().ToString());
  auto source = ReadFile(config.program_path);
  if (!source.ok()) return Fail(source.status().ToString());
  auto script_text = ReadFile(config.script_path);
  if (!script_text.ok()) return Fail(script_text.status().ToString());

  // First pass over the script: topology declarations and relations of
  // interest, which the program must know before it is parsed.
  Topology topo;
  std::vector<std::string> interests = config.interests;
  std::vector<std::string> lines;
  {
    std::istringstream ss(*script_text);
    std::string line;
    int lineno = 0;
    while (std::getline(ss, line)) {
      ++lineno;
      std::istringstream ls(line);
      std::string cmd;
      ls >> cmd;
      if (cmd == "nodes") {
        int n = 0;
        ls >> n;
        if (n <= 0) return Fail("bad node count on line " +
                                std::to_string(lineno));
        topo.AddNodes(n);
      } else if (cmd == "link") {
        NodeId a, b;
        LinkProps props;
        ls >> a >> b >> props.latency_s >> props.bandwidth_bps;
        Status st = topo.AddLink(a, b, props);
        if (!st.ok()) return Fail("line " + std::to_string(lineno) + ": " +
                                  st.ToString());
      } else if (cmd == "interest") {
        std::string rel;
        ls >> rel;
        if (rel.empty()) return Fail("interest needs a relation on line " +
                                     std::to_string(lineno));
        if (std::find(interests.begin(), interests.end(), rel) ==
            interests.end()) {
          interests.push_back(rel);
        }
      } else {
        lines.push_back(line);
      }
    }
  }
  if (topo.num_nodes() == 0) return Fail("script declares no nodes");
  topo.ComputeRoutes();

  ProgramOptions options;
  options.name = config.program_path;
  options.relations_of_interest = std::move(interests);
  auto program = Program::Parse(*source, options);
  if (!program.ok()) return Fail(program.status().ToString());

  apps::TestbedOptions bed_options;
  bed_options.trace_path = config.trace_out;
  bed_options.shards = config.shards;
  bed_options.wal_dir = config.wal_dir;
  auto bed = Testbed::Create(std::move(program).value(), &topo, *scheme,
                             std::move(bed_options));
  if (!bed.ok()) return Fail(bed.status().ToString());

  TraceRunner runner;
  runner.bed = std::move(bed).value();
  if (config.recover) {
    if (runner.bed->wal() == nullptr) {
      return Fail("--recover needs --wal-dir");
    }
    auto stats = runner.bed->wal()->Recover();
    if (!stats.ok()) return Fail(stats.status().ToString());
    std::printf("recovered: %d node checkpoint(s), %llu record(s) replayed, "
                "%llu skipped, %llu corrupt frame(s)\n",
                stats->nodes_with_checkpoint,
                static_cast<unsigned long long>(stats->records_replayed),
                static_cast<unsigned long long>(stats->records_skipped),
                static_cast<unsigned long long>(stats->corrupt_frames));
  }
  std::printf("# %s on %d nodes under %s\n", config.program_path.c_str(),
              topo.num_nodes(), apps::SchemeName(*scheme));
  int lineno = 0;
  for (const std::string& line : lines) {
    ++lineno;
    int rc = runner.Execute(line, lineno);
    if (rc != 0) return rc;
  }
  if (config.stats) {
    std::fputs(runner.bed->MetricsDelta().ToText().c_str(), stdout);
  }
  if (!config.trace_out.empty()) {
    Status st = runner.bed->FlushTrace();
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %zu trace events to %s (%llu dropped)\n",
                Trace().event_count(), config.trace_out.c_str(),
                static_cast<unsigned long long>(Trace().dropped_events()));
  }
  return 0;
}

// dpc_cli trace: the run machinery with the observability layer on. The
// command script stays under --script here because --trace historically
// names the script in run mode; --out is the Chrome-trace JSON.
int RunTraceExport(int argc, char** argv) {
  RunConfig config;
  config.trace_out = "trace.json";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--program") {
      const char* v = next();
      if (!v) return Fail("--program needs a file");
      config.program_path = v;
    } else if (arg == "--script" || arg == "--trace") {
      const char* v = next();
      if (!v) return Fail(arg + " needs a file");
      config.script_path = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return Fail("--out needs a file");
      config.trace_out = v;
    } else if (arg == "--scheme") {
      const char* v = next();
      if (!v) return Fail("--scheme needs a name");
      config.scheme_name = v;
    } else if (arg == "--interest") {
      const char* v = next();
      if (!v) return Fail("--interest needs a relation");
      config.interests.push_back(v);
    } else if (arg == "--stats") {
      config.stats = true;
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return Fail("--shards needs a count");
      config.shards = std::atoi(v);
      if (config.shards < 1) return Fail("--shards must be >= 1");
    } else if (arg == "--wal-dir") {
      const char* v = next();
      if (!v) return Fail("--wal-dir needs a directory");
      config.wal_dir = v;
    } else if (arg == "--recover") {
      config.recover = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: dpc_cli trace --program FILE --script FILE "
                  "[--scheme NAME] [--out trace.json] [--stats] "
                  "[--shards N] [--wal-dir DIR] [--recover] "
                  "[--interest REL]...\n");
      return 0;
    } else {
      return Fail("unknown trace flag " + arg + " (try dpc_cli trace --help)");
    }
  }
  if (config.program_path.empty() || config.script_path.empty()) {
    return Fail("trace needs --program and --script (try dpc_cli trace "
                "--help)");
  }
  return RunScript(config);
}

int Run(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "lint") == 0) {
    return RunLint(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    return RunTraceExport(argc, argv);
  }
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--program") {
      const char* v = next();
      if (!v) return Fail("--program needs a file");
      config.program_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return Fail("--trace needs a file");
      config.script_path = v;
    } else if (arg == "--scheme") {
      const char* v = next();
      if (!v) return Fail("--scheme needs a name");
      config.scheme_name = v;
    } else if (arg == "--interest") {
      const char* v = next();
      if (!v) return Fail("--interest needs a relation");
      config.interests.push_back(v);
    } else if (arg == "--stats") {
      config.stats = true;
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return Fail("--shards needs a count");
      config.shards = std::atoi(v);
      if (config.shards < 1) return Fail("--shards must be >= 1");
    } else if (arg == "--wal-dir") {
      const char* v = next();
      if (!v) return Fail("--wal-dir needs a directory");
      config.wal_dir = v;
    } else if (arg == "--recover") {
      config.recover = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: dpc_cli --program FILE --trace FILE "
                  "[--scheme NAME] [--stats] [--shards N] "
                  "[--wal-dir DIR] [--recover] [--interest REL]...\n"
                  "       dpc_cli lint [--werror] [-f text|json] [--keys] "
                  "[--plan] [--shard] [--growth] [--storage] "
                  "[--interest REL]... FILE...\n"
                  "       dpc_cli trace --program FILE --script FILE "
                  "[--scheme NAME] [--out trace.json] [--stats] "
                  "[--interest REL]...\n");
      return 0;
    } else {
      return Fail("unknown flag " + arg + " (try --help)");
    }
  }
  if (config.program_path.empty() || config.script_path.empty()) {
    return Fail("--program and --trace are required (try --help)");
  }
  return RunScript(config);
}

}  // namespace
}  // namespace dpc

int main(int argc, char** argv) { return dpc::Run(argc, argv); }
