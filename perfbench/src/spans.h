// Span recording for the traced benchmark run.
//
// Every timed layer boundary opens a span (layer, start, end, parent and,
// for queries, the query id). Layers are a fixed enum, so recording a span
// is two steady_clock reads and a few stores into pre-sized arrays: no
// name lookup and no allocation on the hot path. Spans nest strictly (the
// benchmark runs single-threaded), so a layer's self time — its span time
// minus the part its child spans cover — is accumulated as each span
// closes. The spans themselves are kept in memory, up to a cap per scheme
// and root layer (so a long ingest cannot crowd out the queries), and
// written out as Chrome-trace JSON when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum Layer : uint8_t {
  kIngest,       // root of one measured ingest (scheduling through drain)
  kSchedule,     // System::ScheduleInject loop
  kRun,          // System::Run
  kDeliver,      // channel delivery handler (System::HandleMessage)
  kSend,         // MessageChannel::Send / Broadcast
  kInject,       // scheme recorder hooks ...
  kRuleFired,
  kArrival,
  kOutput,
  kSlow,         // OnSlowInsert / OnSlowDelete / OnControlSignal
  kMeta,         // SerializeMeta / DeserializeMeta
  kWal,          // WalRecorder hooks (their scheme hooks are children)
  kCheckpoint,   // WalRecorder::Checkpoint
  kBuild,        // constructing one deployment
  kInstall,      // installing slow state and the set-up drain
  kRecover,      // fresh deployment over the WAL + Recover()
  kQueryDist,    // DistributedQuerier::QueryAndWait
  kQueryLocal,   // ProvenanceQuerier::Query
  kNumLayers
};

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;  // since SpanLog construction
  int64_t end_ns = 0;
  uint32_t parent = 0;   // index + 1 into the kept spans; 0 = none
  uint32_t query = 0;    // shared by the spans of one query; 0 = none
  uint8_t layer = 0;
  uint8_t scheme = 0;
};

class SpanLog {
 public:
  // Keeps, for export, at most `keep` spans of each scheme under each
  // root layer; self times cover every span.
  SpanLog(int schemes, size_t keep);

  void Open(Layer layer) {
    if (depth_ == static_cast<int>(stack_.size())) TooDeep();
    Frame& f = stack_[depth_++];
    f.layer = layer;
    f.child_ns = 0;
    f.kept = 0;
    Budget& b = budgets_[Slot(scheme_, stack_[0].layer)];
    if (b.kept < keep_) {
      ++b.kept;
      spans_.push_back(Span{0, 0, depth_ > 1 ? stack_[depth_ - 2].kept : 0,
                            query_, layer, scheme_});
      f.kept = static_cast<uint32_t>(spans_.size());
    } else {
      ++b.dropped;
    }
    f.start_ns = Now();
  }

  void Close() {
    int64_t end = Now();
    Frame& f = stack_[--depth_];
    int64_t dur = end - f.start_ns;
    self_ns_[f.layer] += dur - f.child_ns;
    total_ns_[f.layer] += dur;
    ++count_[f.layer];
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (f.kept != 0) {
      spans_[f.kept - 1].start_ns = f.start_ns;
      spans_[f.kept - 1].end_ns = end;
    }
  }

  // Tags spans opened from now on. `scheme` is below the constructor's
  // `schemes`.
  void set_query(uint32_t id) { query_ = id; }
  void set_scheme(uint8_t scheme) { scheme_ = scheme; }

  int depth() const { return depth_; }
  // Accumulated over every closed span since the last ResetTotals.
  double self_s(Layer l) const { return self_ns_[l] * 1e-9; }
  double total_s(Layer l) const { return total_ns_[l] * 1e-9; }
  int64_t self_ns(Layer l) const { return self_ns_[l]; }
  int64_t total_ns(Layer l) const { return total_ns_[l]; }
  uint64_t count(Layer l) const { return count_[l]; }
  void ResetTotals();

  // Drops the kept spans (the export then holds what follows).
  void ClearKept();
  // Chrome-trace JSON in the shape obs::Tracer writes: one process row
  // per scheme, "X" complete events in wall-clock microseconds.
  std::string ToChromeJson(const std::vector<std::string>& scheme_names,
                           const std::string& header_json) const;

 private:
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
    uint32_t kept;
    Layer layer;
  };
  struct Budget {
    size_t kept = 0;
    uint64_t dropped = 0;
  };
  static size_t Slot(uint8_t scheme, Layer root) {
    return size_t{scheme} * kNumLayers + root;
  }
  [[noreturn]] static void TooDeep();
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  size_t keep_;
  std::vector<Span> spans_;
  std::vector<Budget> budgets_;  // by Slot()
  std::array<Frame, 64> stack_{};
  int depth_ = 0;
  uint32_t query_ = 0;
  uint8_t scheme_ = 0;
  std::array<int64_t, kNumLayers> self_ns_{};
  std::array<int64_t, kNumLayers> total_ns_{};
  std::array<uint64_t, kNumLayers> count_{};
};

// Opens a span for the enclosing scope; a null log records nothing, which
// is how the untraced run shares the traced run's code.
class Scope {
 public:
  Scope(SpanLog* log, Layer layer) : log_(log) {
    if (log_ != nullptr) log_->Open(layer);
  }
  ~Scope() {
    if (log_ != nullptr) log_->Close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
