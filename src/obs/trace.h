// Tracer: a low-overhead in-memory recorder of spans and instants over
// *simulated* time, exported in Chrome-trace / Perfetto JSON.
//
// Tracing is compiled in but off by default. Every instrumentation site
// guards with `if (Trace().enabled())` — the disabled hot path costs one
// predictable branch on a plain bool (verified by bench/hotpath_bench's
// queue_dispatch case). When enabled, events append to a bounded buffer;
// overflow drops further events and counts them, never reallocating the
// simulation into a stall.
//
// Timestamps come from the discrete-event clock through the installed
// clock callback, so a trace lines up with the latencies the paper's
// figures report. Within one simulated instant a handler does not advance
// the sim clock, so synchronous spans (rule firings, recorder
// maintenance) are zero-duration slices positioned at their sim time,
// carrying the measured wall-clock cost in a "wall_us" arg. Operations
// that do span simulated time — a transport frame in flight, a
// distributed query, its per-hop chain steps — are async begin/end pairs
// keyed by id. See docs/observability.md for the span taxonomy and how
// to open exports in Perfetto.
//
// Thread-safety: enabled() is a relaxed atomic load (still the one
// predictable branch at every instrumentation site); the buffer, clock,
// bound and dropped counter are guarded by an internal mutex, so shard
// threads may record concurrently and events interleave whole, never
// torn. Inspection copies the buffer out under the lock — see
// docs/concurrency.md for the full contract.
#ifndef DPC_OBS_TRACE_H_
#define DPC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace dpc {

// Matches src/db/tuple.h (obs deliberately depends only on util).
using NodeId = int32_t;

// One track per category under each node's process row in Perfetto.
enum class TraceCat : uint8_t {
  kQueue = 0,      // event-queue dispatch
  kRule = 1,       // rule evaluation of an event dispatched alone
  kRecorder = 2,   // provenance-maintenance hooks
  kNetwork = 3,    // raw network (drops)
  kTransport = 4,  // reliable-transport frames / retransmits / acks
  kQuery = 5,      // distributed provenance queries
  kShard = 6,      // shard-engine windows / barriers (shard_engine.h)
  kBatch = 7,      // rule evaluation over a drained batch (batch_eval.h)
};

const char* TraceCatName(TraceCat cat);

struct TraceEvent {
  std::string name;
  // Pre-rendered JSON object *interior* (e.g. "\"rows\": 3"), or empty.
  std::string args;
  double ts = 0;   // simulated seconds
  double dur = 0;  // simulated seconds ('X' events)
  uint64_t id = 0; // async pair key ('b'/'e' events)
  NodeId node = -1;  // -1 = the simulator process itself
  TraceCat cat = TraceCat::kQueue;
  char phase = 'i';  // 'X' complete, 'i' instant, 'b'/'e' async begin/end
};

class Tracer {
 public:
  // The one-branch guard every instrumentation site checks first.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Starts recording. `clock` supplies the simulated time for events that
  // do not pass one explicitly (recorders, transport); bind it to the
  // deployment's EventQueue. Clears any previous buffer.
  void Enable(std::function<double()> clock, size_t max_events = 2000000)
      DPC_EXCLUDES(mu_);
  // Stops recording and drops the clock (which may dangle afterwards);
  // the buffered events stay readable/exportable until the next Enable.
  void Disable() DPC_EXCLUDES(mu_);
  void Clear() DPC_EXCLUDES(mu_);

  double now() const DPC_EXCLUDES(mu_);

  // --- recording (call only when enabled()) ---------------------------

  // Zero-duration slice at sim time `ts` (pass now() when at hand).
  void CompleteAt(NodeId node, TraceCat cat, std::string name, double ts,
                  std::string args = {}) DPC_EXCLUDES(mu_);
  // Marker at the current sim time.
  void Instant(NodeId node, TraceCat cat, std::string name,
               std::string args = {}) DPC_EXCLUDES(mu_);
  // Async span over simulated time, keyed by (cat, id).
  void AsyncBegin(NodeId node, TraceCat cat, std::string name, uint64_t id,
                  std::string args = {}) DPC_EXCLUDES(mu_);
  void AsyncEnd(NodeId node, TraceCat cat, std::string name, uint64_t id,
                std::string args = {}) DPC_EXCLUDES(mu_);

  // --- inspection / export --------------------------------------------

  // A copy of the buffer (stable even while recording continues).
  std::vector<TraceEvent> events() const DPC_EXCLUDES(mu_);
  size_t event_count() const DPC_EXCLUDES(mu_);
  uint64_t dropped_events() const DPC_EXCLUDES(mu_);

  // Chrome-trace JSON ({"traceEvents": [...]}; open in ui.perfetto.dev
  // or chrome://tracing). Timestamps are exported in microseconds of
  // simulated time, in recording order (monotonically non-decreasing).
  // Renders from a copy taken under the lock.
  std::string ToChromeJson() const DPC_EXCLUDES(mu_);
  Status WriteChromeJson(const std::string& path) const DPC_EXCLUDES(mu_);

 private:
  void PushLocked(TraceEvent ev) DPC_REQUIRES(mu_);
  double NowLocked() const DPC_REQUIRES(mu_);

  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  std::function<double()> clock_ DPC_GUARDED_BY(mu_);
  size_t max_events_ DPC_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ DPC_GUARDED_BY(mu_) = 0;
  std::vector<TraceEvent> events_ DPC_GUARDED_BY(mu_);
};

// The process-wide tracer (same pattern as GlobalMetrics). Named Trace()
// for brevity at the many guard sites.
Tracer& Trace();

}  // namespace dpc

#endif  // DPC_OBS_TRACE_H_
