#include "spans.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case kIngest: return "bench.ingest";
    case kSchedule: return "runtime.schedule";
    case kRun: return "runtime.run";
    case kDeliver: return "runtime.deliver";
    case kSend: return "net.send";
    case kInject: return "core.recorder.inject";
    case kRuleFired: return "core.recorder.rule_fired";
    case kArrival: return "core.recorder.arrival";
    case kOutput: return "core.recorder.output";
    case kSlow: return "core.recorder.slow";
    case kMeta: return "core.recorder.meta";
    case kWal: return "core.wal.append";
    case kCheckpoint: return "core.wal.checkpoint";
    case kBuild: return "apps.build";
    case kInstall: return "apps.install";
    case kRecover: return "core.wal.recover";
    case kQueryDist: return "core.query.dist";
    case kQueryLocal: return "core.query.local";
    case kNumLayers: break;
  }
  return "?";
}

SpanLog::SpanLog(int schemes, size_t keep)
    : origin_(std::chrono::steady_clock::now()),
      keep_(keep),
      budgets_(static_cast<size_t>(schemes) * kNumLayers) {
  // A round's roots per scheme: set-up, ingest, recovery and the two
  // query kinds, of which about four fill their budget.
  spans_.reserve(static_cast<size_t>(schemes) * 4 * keep);
}

void SpanLog::TooDeep() {
  std::fprintf(stderr, "perfbench: span nesting exceeds the stack\n");
  std::abort();
}

void SpanLog::ResetTotals() {
  self_ns_.fill(0);
  total_ns_.fill(0);
  count_.fill(0);
}

void SpanLog::ClearKept() {
  spans_.clear();
  for (Budget& b : budgets_) b = Budget{};
}

namespace {

void AppendMicros(std::string& out, int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  out += buf;
}

// The category is the layer name up to its last dot ("core.recorder").
std::string Category(Layer layer) {
  std::string name = LayerName(layer);
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::string SpanLog::ToChromeJson(const std::vector<std::string>& schemes,
                                  const std::string& header_json) const {
  std::string out = "{\"traceEvents\": [\n";
  // pid = scheme index + 1; tid 0 carries every span of that scheme.
  for (size_t s = 0; s < schemes.size(); ++s) {
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(s + 1) + ", \"args\": {\"name\": \"" + schemes[s] +
           "\"}},\n";
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(s + 1) +
           ", \"tid\": 0, \"args\": {\"name\": \"bench\"}},\n";
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    Layer layer = static_cast<Layer>(sp.layer);
    out += "{\"name\": \"";
    out += LayerName(layer);
    out += "\", \"cat\": \"" + Category(layer) + "\", \"ph\": \"X\", \"ts\": ";
    AppendMicros(out, sp.start_ns);
    out += ", \"dur\": ";
    AppendMicros(out, sp.end_ns - sp.start_ns);
    out += ", \"pid\": " + std::to_string(sp.scheme + 1) +
           ", \"tid\": 0, \"args\": {\"span\": " + std::to_string(i + 1) +
           ", \"parent\": " + std::to_string(sp.parent);
    if (sp.query != 0) out += ", \"query\": " + std::to_string(sp.query);
    out += "}},\n";
  }
  // A trailing metadata event keeps every element above comma-terminated
  // and records the run header plus, per scheme and root layer, how many
  // spans the caps kept and left out: [kept, dropped].
  std::string counts;
  for (size_t s = 0; s < schemes.size(); ++s) {
    std::string roots;
    for (int l = 0; l < kNumLayers; ++l) {
      Layer root = static_cast<Layer>(l);
      const Budget& b = budgets_[Slot(static_cast<uint8_t>(s), root)];
      if (b.kept + b.dropped == 0) continue;
      if (!roots.empty()) roots += ", ";
      roots += '"';
      roots += LayerName(root);
      roots += "\": [" + std::to_string(b.kept) + ", " +
               std::to_string(b.dropped) + "]";
    }
    if (!counts.empty()) counts += ", ";
    counts += '"';
    counts += schemes[s];
    counts += "\": {" + roots + "}";
  }
  out += "{\"name\": \"perfbench\", \"ph\": \"M\", \"pid\": 0, \"args\": "
         "{\"spans\": {" +
         counts + "}, \"header\": " + header_json + "}}\n]}\n";
  return out;
}

}  // namespace perfbench
