// Concurrency stress tests for the objects the future sharded runtime
// will share across worker threads: the tracer, the metrics registry, the
// identity counters, the tuple store, and the lazily memoized
// tuple identities. Each test hammers one object from several threads and
// then asserts *exact* totals — the counters are designed to lose nothing
// under contention, not to be approximately right.
//
// These tests are meaningful on any build, but their real job is under
// -DDPC_SANITIZE=thread (the tsan CI job), where ThreadSanitizer verifies
// the synchronization the thread-safety annotations promise statically.
#include <array>
#include <atomic>
#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/prov_tables.h"
#include "src/db/tuple.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/perf.h"

namespace dpc {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 2000;

// Runs `fn(thread_index)` on kThreads threads, released simultaneously so
// the first operations actually contend.
template <typename Fn>
void RunThreads(Fn fn) {
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      fn(t);
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(ConcurrencyStressTest, TracerConcurrentEmitsKeepEveryEvent) {
  Tracer tracer;
  tracer.Enable([] { return 1.5; },
                static_cast<size_t>(kThreads) * kOpsPerThread);
  RunThreads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      tracer.Instant(static_cast<NodeId>(t), TraceCat::kQueue, "ev",
                     "\"i\": " + std::to_string(i));
    }
  });
  tracer.Disable();
  EXPECT_EQ(tracer.event_count(),
            static_cast<size_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  // Every buffered event is whole: name, phase and timestamp all match
  // what some thread recorded (never a torn interleaving).
  for (const TraceEvent& ev : tracer.events()) {
    EXPECT_EQ(ev.name, "ev");
    EXPECT_EQ(ev.phase, 'i');
    EXPECT_EQ(ev.ts, 1.5);
  }
}

TEST(ConcurrencyStressTest, TracerOverflowCountsEveryDrop) {
  constexpr size_t kCap = 1000;
  Tracer tracer;
  tracer.Enable([] { return 0.0; }, kCap);
  RunThreads([&](int) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      tracer.Instant(0, TraceCat::kRule, "x");
    }
  });
  tracer.Disable();
  EXPECT_EQ(tracer.event_count(), kCap);
  EXPECT_EQ(tracer.dropped_events(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread - kCap);
}

TEST(ConcurrencyStressTest, CounterTotalIsExact) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("stress.total");
  RunThreads([&](int) {
    for (int i = 0; i < kOpsPerThread; ++i) c.Increment();
  });
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ConcurrencyStressTest, CounterPerNodeCellsAreExactAcrossBlocks) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("stress.per_node");
  // Nodes straddling the chained-block boundaries (blocks cover [0,64),
  // [64,192), [192,448), ...), so concurrent first touches force block
  // allocations while other threads are mid-increment.
  const std::vector<int32_t> nodes = {0, 63, 64, 191, 192, 447, 448, 1000};
  RunThreads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      c.IncrementAt(nodes[(t + i) % nodes.size()]);
    }
  });
  std::vector<uint64_t> cells = c.per_node();
  ASSERT_EQ(cells.size(), 1001u);
  uint64_t cell_sum = 0;
  for (uint64_t v : cells) cell_sum += v;
  EXPECT_EQ(cell_sum, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // Every thread walks the same node rotation, so each node gets an equal
  // share.
  for (int32_t n : nodes) {
    EXPECT_EQ(cells[static_cast<size_t>(n)],
              static_cast<uint64_t>(kThreads) * kOpsPerThread /
                  nodes.size())
        << "node " << n;
  }
}

TEST(ConcurrencyStressTest, HistogramCountSumMinMaxAreExact) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("stress.hist");
  RunThreads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      h.Observe(static_cast<double>(t * kOpsPerThread + i));
    }
  });
  const uint64_t total = static_cast<uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(h.count(), total);
  // Exact: every observed value is a small integer, and the CAS-add loop
  // loses no contribution.
  EXPECT_EQ(h.sum(), static_cast<double>(total) * (total - 1) / 2);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), static_cast<double>(total - 1));
  uint64_t bucket_sum = 0;
  for (uint64_t b : h.buckets()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, total);
}

TEST(ConcurrencyStressTest, IdentityCountersAggregateExactlyAcrossThreads) {
  IdentityCounters before = identity_counters();
  RunThreads([&](int) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      identity_cells().sha1_invocations.Bump();
      identity_cells().tuple_bytes_serialized.Bump(3);
    }
  });
  // The worker threads have exited: their cells are retired and folded
  // into the global totals, so the delta is exact.
  IdentityCounters delta = identity_counters() - before;
  EXPECT_EQ(delta.sha1_invocations,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(delta.tuple_bytes_serialized,
            static_cast<uint64_t>(kThreads) * kOpsPerThread * 3);
}

TEST(ConcurrencyStressTest, ConcurrentFirstTouchIdentityIsComputedOnce) {
  // Shared TupleRefs whose identities are all cold; every thread races
  // the first touch of Vid/Hash64/SerializedSize on every tuple.
  constexpr int kTuples = 64;
  std::vector<TupleRef> tuples;
  for (int i = 0; i < kTuples; ++i) {
    tuples.push_back(MakeTupleRef(
        Tuple::Make("stress", i, {Value::Int(i * 7), Value::Str("payload")})));
  }
  IdentityCounters before = identity_counters();

  std::vector<std::array<uint64_t, kTuples>> hashes(kThreads);
  std::vector<std::array<Sha1Digest, kTuples>> vids(kThreads);
  std::vector<std::array<size_t, kTuples>> sizes(kThreads);
  RunThreads([&](int t) {
    // Stagger the starting tuple per thread so different threads race
    // different tuples' first touches.
    for (int i = 0; i < kTuples; ++i) {
      int k = (i + t * kTuples / kThreads) % kTuples;
      vids[t][k] = tuples[k]->Vid();
      hashes[t][k] = tuples[k]->Hash64();
      sizes[t][k] = tuples[k]->SerializedSize();
    }
  });

  // Each tuple's VID was computed exactly once: one miss per tuple, every
  // other Vid() call was answered by the memo. (Measured before the
  // verification below, whose fresh reference tuples bump the same
  // counters.)
  IdentityCounters delta = identity_counters() - before;
  EXPECT_EQ(delta.vid_cache_misses, static_cast<uint64_t>(kTuples));
  EXPECT_EQ(delta.vid_cache_hits,
            static_cast<uint64_t>(kTuples) * (kThreads - 1));

  // All threads observed identical identities, equal to a freshly
  // computed reference.
  for (int k = 0; k < kTuples; ++k) {
    Tuple fresh("stress", tuples[k]->values());
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(vids[t][k].bytes, fresh.Vid().bytes);
      EXPECT_EQ(hashes[t][k], fresh.Hash64());
      EXPECT_EQ(sizes[t][k], fresh.SerializedSize());
    }
  }

}

TEST(ConcurrencyStressTest, TupleStoreConcurrentPutsDeduplicateByVid) {
  TupleStore store;
  constexpr int kDistinct = 48;
  std::vector<TupleRef> tuples;
  for (int i = 0; i < kDistinct; ++i) {
    tuples.push_back(
        MakeTupleRef(Tuple::Make("stored", i % 5, {Value::Int(i)})));
  }
  std::atomic<uint64_t> inserted{0};
  RunThreads([&](int t) {
    for (int i = 0; i < kOpsPerThread / 4; ++i) {
      const TupleRef& ref = tuples[(t + i) % kDistinct];
      if (store.Put(ref)) inserted.fetch_add(1);
    }
  });
  // Every distinct VID was inserted exactly once, no matter how many
  // threads raced the same Put.
  EXPECT_EQ(inserted.load(), static_cast<uint64_t>(kDistinct));
  EXPECT_EQ(store.size(), static_cast<size_t>(kDistinct));
  size_t want_bytes = 0;
  for (const TupleRef& ref : tuples) {
    want_bytes += ref->Vid().bytes.size() + ref->SerializedSize();
    const Tuple* found = store.Find(ref->Vid());
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(*found == *ref);
  }
  EXPECT_EQ(store.SerializedBytes(), want_bytes);
}

// AtomicTransportStats: concurrent bumps are never lost, and Reset is
// race-safe — the old plain-struct `*this = TransportStats()` reset could
// tear (a reader observing some fields zeroed and others not, a racing
// increment resurrected into the "cleared" struct). With per-field
// atomics, totals after a quiet reset are exact.
TEST(ConcurrencyStressTest, TransportStatsConcurrentBumpsAreExact) {
  AtomicTransportStats stats;
  RunThreads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      stats.data_frames_sent.fetch_add(1, std::memory_order_relaxed);
      if (t % 2 == 0) {
        stats.retransmissions.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 4 == 0) {
        stats.acks_sent.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  TransportStats snap = stats.Snapshot();
  EXPECT_EQ(snap.data_frames_sent,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(snap.retransmissions,
            static_cast<uint64_t>(kThreads / 2) * kOpsPerThread);
  EXPECT_EQ(snap.acks_sent,
            static_cast<uint64_t>(kThreads) * (kOpsPerThread / 4));
  EXPECT_EQ(snap.duplicates_suppressed, 0u);
  stats.Reset();
  snap = stats.Snapshot();
  EXPECT_EQ(snap.data_frames_sent, 0u);
  EXPECT_EQ(snap.retransmissions, 0u);
  EXPECT_EQ(snap.acks_sent, 0u);
}

// Reset racing concurrent writers must never corrupt a counter: every
// field is always either a sum of post-reset increments or a pre-reset
// value — never garbage from a torn word. TSan checks the data-race-free
// claim; this checks the arithmetic stays sane (<= total increments).
TEST(ConcurrencyStressTest, TransportStatsResetRacesWritersSafely) {
  AtomicTransportStats stats;
  RunThreads([&](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      if (t == 0 && i % 64 == 0) {
        stats.Reset();
      } else {
        stats.delivery_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  uint64_t v = stats.Snapshot().delivery_failures;
  EXPECT_LE(v, static_cast<uint64_t>(kThreads - 1) * kOpsPerThread +
                   kOpsPerThread);
}

}  // namespace
}  // namespace dpc
