// Process-wide counters for the tuple-identity hot path: SHA-1 digest
// computations, tuple bytes serialized and identity-cache hit rates. The
// counters are monotone and meant to be read as deltas (snapshot before a
// run, subtract after) — see
// ExperimentResult::identity in src/apps/experiments.h.
//
// Concurrency: each thread increments its own thread-local cell block
// (identity_cells()), so the hot path stays a plain load+store — no RMW,
// no lock prefix, no contention. identity_counters() aggregates every
// live thread's cells plus the totals retired by exited threads, so the
// sum is exact at any quiescent point and a consistent-enough estimate
// while increments are in flight. This is the pattern the sharded runtime
// (ROADMAP item 1) will inherit: per-worker cells, one aggregation at
// measurement boundaries.
#ifndef DPC_UTIL_PERF_H_
#define DPC_UTIL_PERF_H_

#include <atomic>
#include <cstdint>

namespace dpc {

// Aggregated snapshot of the identity counters (plain values; copyable,
// subtractable). This is the type measurement windows work with.
struct IdentityCounters {
  // SHA-1 Finish() calls, process-wide: the digests the storage model
  // names rows and tuples by (VIDs, RIDs, equivalence keys, ...). Table
  // rows are deduplicated by comparison, not by a digest of their
  // content, so row inserts add nothing here.
  uint64_t sha1_invocations = 0;
  // Bytes appended by Tuple::Serialize (wire messages, digests, stores).
  uint64_t tuple_bytes_serialized = 0;
  // Tuple::Vid() calls answered from the memoized digest / computed fresh.
  uint64_t vid_cache_hits = 0;
  uint64_t vid_cache_misses = 0;

  IdentityCounters operator-(const IdentityCounters& o) const {
    IdentityCounters d;
    d.sha1_invocations = sha1_invocations - o.sha1_invocations;
    d.tuple_bytes_serialized = tuple_bytes_serialized - o.tuple_bytes_serialized;
    d.vid_cache_hits = vid_cache_hits - o.vid_cache_hits;
    d.vid_cache_misses = vid_cache_misses - o.vid_cache_misses;
    return d;
  }
};

// A counter written only by its owning thread. The owner bumps with a
// plain load+store (no atomic RMW: single-writer, so no update is ever
// lost), while aggregators read the atomic cell concurrently without a
// data race.
class OwnedCounter {
 public:
  void Bump(uint64_t d = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
  }
  uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// One thread's private cell block. Constructed on first use per thread;
// the destructor folds the values into a process-wide retired total so an
// exited thread's work is never forgotten.
struct IdentityCells {
  OwnedCounter sha1_invocations;
  OwnedCounter tuple_bytes_serialized;
  OwnedCounter vid_cache_hits;
  OwnedCounter vid_cache_misses;

  // Tag for scratch cell blocks that never join the registry: their
  // counts are discarded, not retired (see IdentityPauseGuard).
  struct Unregistered {};

  IdentityCells();
  explicit IdentityCells(Unregistered) : registered_(false) {}
  ~IdentityCells();
  IdentityCells(const IdentityCells&) = delete;
  IdentityCells& operator=(const IdentityCells&) = delete;

 private:
  bool registered_ = true;
};

namespace perf_internal {
// Trivially-initialized alias for the calling thread's cells: a plain
// TLS slot the compiler reads without an init guard or wrapper call,
// keeping the cached-identity hot path at a couple of instructions.
// Null until the first identity_cells() call on this thread (and again
// during thread teardown, after the cells were retired). Exposed as a
// function-local slot rather than an extern thread_local: cross-TU
// extern TLS goes through the wrapper call, which GCC's -fsanitize=null
// flags as a possibly-null access.
inline IdentityCells*& TlsCells() {
  static thread_local IdentityCells* cells = nullptr;
  return cells;
}
IdentityCells& InitIdentityCells();  // slow path: construct + register
}  // namespace perf_internal

// The calling thread's cells: the mutation side of the API. Hot paths do
// e.g. identity_cells().vid_cache_hits.Bump().
inline IdentityCells& identity_cells() {
  IdentityCells* cells = perf_internal::TlsCells();
  if (cells == nullptr) [[unlikely]] {
    return perf_internal::InitIdentityCells();
  }
  return *cells;
}

// Exact aggregate over all threads, live and exited: the read side.
IdentityCounters identity_counters();

// Discards this thread's identity-counter increments for the guard's
// lifetime by pointing the TLS fast path at an unregistered scratch block.
// Used by WAL replay (src/core/wal_recorder.*): re-running the recorder
// hooks recomputes every digest, and counting that work again would break
// the accounting identity a recovered run must preserve. Nestable; only
// pauses the constructing thread (recovery is single-threaded).
class IdentityPauseGuard {
 public:
  IdentityPauseGuard() : prev_(perf_internal::TlsCells()) {
    perf_internal::TlsCells() = &scratch_;
  }
  ~IdentityPauseGuard() { perf_internal::TlsCells() = prev_; }
  IdentityPauseGuard(const IdentityPauseGuard&) = delete;
  IdentityPauseGuard& operator=(const IdentityPauseGuard&) = delete;

 private:
  IdentityCells* prev_;
  IdentityCells scratch_{IdentityCells::Unregistered{}};
};

}  // namespace dpc

#endif  // DPC_UTIL_PERF_H_
