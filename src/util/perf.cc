#include "src/util/perf.h"

#include <vector>

#include "src/util/thread_annotations.h"

namespace dpc {

namespace {

// Registry of every live thread's cell block plus the totals folded in by
// exited threads. Heap-allocated Meyers singleton (never destroyed) so
// thread-local destructors running at process exit can still deregister.
struct CellRegistry {
  Mutex mu;
  std::vector<const IdentityCells*> live DPC_GUARDED_BY(mu);
  IdentityCounters retired DPC_GUARDED_BY(mu);
};

CellRegistry& Registry() {
  static CellRegistry* registry = new CellRegistry();
  return *registry;
}

void AccumulateInto(IdentityCounters& total, const IdentityCells& cells) {
  total.sha1_invocations += cells.sha1_invocations.load();
  total.tuple_bytes_serialized += cells.tuple_bytes_serialized.load();
  total.vid_cache_hits += cells.vid_cache_hits.load();
  total.vid_cache_misses += cells.vid_cache_misses.load();
}

}  // namespace

IdentityCells::IdentityCells() {
  CellRegistry& reg = Registry();
  MutexLock lock(reg.mu);
  reg.live.push_back(this);
}

IdentityCells::~IdentityCells() {
  // Drop the fast-path alias so it never dangles past this destructor
  // (only if it still points here: a scratch block dying must not clear
  // the alias a pause guard already restored).
  if (perf_internal::TlsCells() == this) perf_internal::TlsCells() = nullptr;
  if (!registered_) return;  // scratch block: counts are discarded
  CellRegistry& reg = Registry();
  MutexLock lock(reg.mu);
  AccumulateInto(reg.retired, *this);
  for (auto it = reg.live.begin(); it != reg.live.end(); ++it) {
    if (*it == this) {
      reg.live.erase(it);
      break;
    }
  }
}

namespace perf_internal {

IdentityCells& InitIdentityCells() {
  thread_local IdentityCells cells;
  TlsCells() = &cells;
  return cells;
}

}  // namespace perf_internal

IdentityCounters identity_counters() {
  CellRegistry& reg = Registry();
  MutexLock lock(reg.mu);
  IdentityCounters total = reg.retired;
  for (const IdentityCells* cells : reg.live) {
    AccumulateInto(total, *cells);
  }
  return total;
}

}  // namespace dpc
