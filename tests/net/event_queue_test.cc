// Discrete-event queue: ordering, tie-breaking, time advancement.
#include "src/net/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace dpc {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PastSchedulesClampToNowAndAreCounted) {
  // Regression: scheduling at t < now() used to be a debug-check abort
  // (and in release builds silently created an event in the past, which
  // the priority queue would run with time flowing backwards). It must
  // clamp to now() and count the occurrence.
  EventQueue q;
  std::vector<double> fired_at;
  q.ScheduleAt(5.0, [&] {
    q.ScheduleAt(2.0, [&] { fired_at.push_back(q.now()); });  // the past
    q.ScheduleAt(5.0, [&] { fired_at.push_back(q.now()); });  // now: fine
  });
  q.RunAll();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_DOUBLE_EQ(fired_at[0], 5.0);  // clamped, not 2.0
  EXPECT_DOUBLE_EQ(fired_at[1], 5.0);
  EXPECT_EQ(q.past_schedules(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);  // time never ran backwards
}

TEST(EventQueueTest, PeekTimeAndRunWindow) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(q.PeekTime(), 1.0);
  // Window end is exclusive: the event at exactly 3.0 stays pending.
  EXPECT_EQ(q.RunWindow(3.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 3.0);
  EXPECT_EQ(q.RunWindow(10.0), 1u);
  EXPECT_TRUE(std::isinf(q.PeekTime()));  // drained
}

TEST(EventQueueTest, CallbacksCanScheduleMore) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] {
    ++fired;
    q.ScheduleAfter(1.0, [&] { ++fired; });
  });
  q.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] { ++fired; });
  q.ScheduleAt(5.0, [&] { ++fired; });
  q.RunUntil(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  q.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueueTest, RunNextOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.RunNext());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double fired_at = -1;
  q.ScheduleAt(2.0, [&] {
    q.ScheduleAfter(0.5, [&] { fired_at = q.now(); });
  });
  q.RunAll();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.ScheduleAt(1.0, [&] { ++fired; });
  q.ScheduleAt(2.0, [&] { ++fired; });
  q.Cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelingAllEventsEmptiesQueue) {
  EventQueue q;
  TimerId a = q.ScheduleAt(1.0, [] {});
  TimerId b = q.ScheduleAt(2.0, [] {});
  q.Cancel(a);
  q.Cancel(b);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.RunNext());
}

TEST(EventQueueTest, CancelAfterFiringIsANoOp) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.ScheduleAt(1.0, [&] { ++fired; });
  q.RunAll();
  EXPECT_EQ(fired, 1);
  q.Cancel(id);  // already fired: must not disturb later scheduling
  q.ScheduleAt(2.0, [&] { ++fired; });
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelFromInsideCallback) {
  EventQueue q;
  int fired = 0;
  TimerId victim = q.ScheduleAt(2.0, [&] { ++fired; });
  q.ScheduleAt(1.0, [&] { q.Cancel(victim); });
  q.RunAll();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDrainTest, DrainsContiguousSameTagSameTimeRun) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAtTagged(1.0, 7, [&] {
    order.push_back(0);
    // Inside the dispatch of the first tag-7 event: the next three
    // entries fire at this instant with this tag, so the drain runs
    // exactly them, in schedule order, and stops at the tag-9 entry.
    EXPECT_EQ(q.HeadTagAtNow(), 7u);
    EXPECT_EQ(q.DrainAtTime(7), 3u);
    EXPECT_EQ(q.HeadTagAtNow(), 9u);
  });
  for (int i = 1; i <= 3; ++i) {
    q.ScheduleAtTagged(1.0, 7, [&order, i] { order.push_back(i); });
  }
  q.ScheduleAtTagged(1.0, 9, [&] { order.push_back(4); });
  q.ScheduleAtTagged(1.0, 7, [&] { order.push_back(5); });  // after 9: kept
  q.RunAll();
  // The drain never reorders: the post-drain events still run in the
  // exact sequence RunAll alone would have used.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueDrainTest, DrainStopsAtLaterTimeAndUntaggedEvents) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAtTagged(1.0, 5, [&] {
    order.push_back(0);
    EXPECT_EQ(q.DrainAtTime(5), 1u);  // only the same-instant peer
  });
  q.ScheduleAtTagged(1.0, 5, [&order] { order.push_back(1); });
  q.ScheduleAt(1.0, [&order] { order.push_back(2); });  // untagged barrier
  q.ScheduleAtTagged(1.0, 5, [&order] { order.push_back(3); });
  q.ScheduleAtTagged(2.0, 5, [&] {
    order.push_back(4);
    // Same tag, but the next entry is at a later time: nothing drains.
    EXPECT_EQ(q.HeadTagAtNow(), 0u);
    EXPECT_EQ(q.DrainAtTime(5), 0u);
  });
  q.ScheduleAtTagged(3.0, 5, [&order] { order.push_back(5); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueDrainTest, DrainCountsDispatchesAndSkipsCanceled) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAtTagged(1.0, 3, [&] {
    ++fired;
    EXPECT_EQ(q.DrainAtTime(3), 1u);  // the canceled peer is not run
  });
  TimerId victim = q.ScheduleAtTagged(1.0, 3, [&] { ++fired; });
  q.ScheduleAtTagged(1.0, 3, [&] { ++fired; });
  q.Cancel(victim);
  q.RunAll();
  EXPECT_EQ(fired, 2);
  // Drained entries count as dispatches exactly as RunNext would count
  // them (replay and trace accounting key off this).
  EXPECT_EQ(q.dispatched(), 2u);
}

TEST(EventQueueDrainTest, DrainNeverCrossesRunWindowBoundary) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAtTagged(1.0, 4, [&] {
    order.push_back(0);
    // Drained peers fire at now(), which is strictly inside the window
    // that admitted this event — entries at the window edge have a later
    // time and are left alone.
    EXPECT_EQ(q.DrainAtTime(4), 1u);
  });
  q.ScheduleAtTagged(1.0, 4, [&order] { order.push_back(1); });
  q.ScheduleAtTagged(2.0, 4, [&order] { order.push_back(2); });
  // RunWindow pops one entry itself; the drain dispatched the peer from
  // inside that entry's callback (both count in dispatched()).
  EXPECT_EQ(q.RunWindow(/*end_exclusive=*/2.0), 1u);
  EXPECT_EQ(q.dispatched(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.pending(), 1u);  // the t=2.0 event stayed for the next window
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueDrainTest, CurrentIsSetOnlyDuringDispatch) {
  EXPECT_EQ(EventQueue::Current(), nullptr);
  EventQueue q;
  q.ScheduleAt(1.0, [&] { EXPECT_EQ(EventQueue::Current(), &q); });
  q.RunAll();
  EXPECT_EQ(EventQueue::Current(), nullptr);
}

TEST(EventQueueTest, MaxEventsGuardStops) {
  EventQueue q;
  int fired = 0;
  // A self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++fired;
    q.ScheduleAfter(1.0, tick);
  };
  q.ScheduleAt(0.0, tick);
  q.RunAll(/*max_events=*/100);
  EXPECT_EQ(fired, 100);
}

// --- reference model -------------------------------------------------------

// Drives an EventQueue and a reference model — a map ordered by (time,
// seq) — with one seeded random operation sequence, checking in lockstep
// that every dispatch is the model's earliest live event and that
// pending(), dispatched(), PeekTime(), HeadTagAtNow() and the RunWindow /
// DrainAtTime counts agree. Callbacks schedule, cancel, peek and drain
// from inside dispatch too.
class QueueModel {
 public:
  explicit QueueModel(uint64_t seed) : rng_(seed) {}

  void Run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      uint64_t op = rng_.NextBelow(100);
      if (op < 34) {
        Schedule();
      } else if (op < 42) {
        CancelLive();
      } else if (op < 52) {
        CancelStale();
      } else if (op < 70) {
        RunNext();
      } else if (op < 80) {
        RunWindow();
      } else if (op < 85) {
        RunUntil();
      } else if (op < 92) {
        CheckHeadTag();
      } else {
        Drain(rng_.NextBelow(4));  // tag 0 drains nothing
      }
      CheckCounters();
    }
    // Finish: everything left fires in model order.
    q_.RunAll();
    CheckCounters();
    EXPECT_TRUE(model_.empty());
  }

  int aliased_stale_cancels() const { return aliased_stale_cancels_; }
  uint64_t fired() const { return fired_; }

 private:
  struct Event {
    uint64_t tag;
    TimerId id;
  };
  using Key = std::pair<SimTime, uint64_t>;  // (time, seq)

  static uint32_t SlotOf(TimerId id) { return static_cast<uint32_t>(id); }

  void Schedule() {
    static constexpr SimTime kDeltas[] = {0, 0, 0.5, 1, 1, 1.5, 2.5};
    SimTime t = now_ + kDeltas[rng_.NextBelow(std::size(kDeltas))];
    if (rng_.NextBelow(20) == 0) t = now_ - 1;  // the past: clamped
    uint64_t tag = rng_.NextBelow(3);
    uint64_t seq = next_seq_++;
    TimerId id = q_.ScheduleAtTagged(t, tag, [this, seq] { OnFire(seq); });
    if (t < now_) {
      ++past_;
      t = now_;
    }
    EXPECT_TRUE(issued_.insert(id).second) << "TimerId reissued: " << id;
    EXPECT_TRUE(live_slots_.insert(SlotOf(id)).second)
        << "two live events share slot " << SlotOf(id);
    model_.emplace(Key{t, seq}, Event{tag, id});
  }

  void CancelLive() {
    if (model_.empty()) return;
    auto it = std::next(model_.begin(),
                        static_cast<long>(rng_.NextBelow(model_.size())));
    q_.Cancel(it->second.id);
    Retire(it);
  }

  // Cancels a fired or canceled id: a no-op, including when its slot now
  // holds a live event (the lockstep order check would catch that event
  // going missing).
  void CancelStale() {
    if (stale_.empty()) return;
    TimerId id = stale_[rng_.NextBelow(stale_.size())];
    if (live_slots_.count(SlotOf(id)) > 0) ++aliased_stale_cancels_;
    q_.Cancel(id);
  }

  void RunNext() {
    bool had = !model_.empty();
    top_fires_ = 0;
    EXPECT_EQ(q_.RunNext(), had);
    EXPECT_EQ(top_fires_, had ? 1u : 0u);
  }

  void RunWindow() {
    SimTime end = now_ + static_cast<SimTime>(rng_.NextBelow(5)) * 0.5;
    size_t cap = rng_.NextBelow(2) == 0 ? 0 : 1 + rng_.NextBelow(4);
    top_fires_ = 0;
    size_t n = q_.RunWindow(end, cap);
    EXPECT_EQ(n, top_fires_);
    if (cap == 0 || n < cap) {
      EXPECT_TRUE(model_.empty() || model_.begin()->first.first >= end);
    }
  }

  void RunUntil() {
    SimTime t = now_ + static_cast<SimTime>(rng_.NextBelow(4)) * 0.5;
    q_.RunUntil(t);
    EXPECT_TRUE(model_.empty() || model_.begin()->first.first > t);
    if (now_ < t) now_ = t;
  }

  void CheckHeadTag() {
    uint64_t want = 0;
    if (!model_.empty() && model_.begin()->first.first == now_) {
      want = model_.begin()->second.tag;
    }
    EXPECT_EQ(q_.HeadTagAtNow(), want);
  }

  void Drain(uint64_t tag) {
    ++drain_depth_;
    uint64_t outer_tag = drain_tag_;
    uint64_t outer_fires = drain_fires_;
    drain_tag_ = tag;
    drain_fires_ = 0;
    size_t n = q_.DrainAtTime(tag);
    EXPECT_EQ(n, drain_fires_);
    // The drain stops at the first entry that is not (now, tag).
    if (tag != 0 && !model_.empty()) {
      const auto& [key, ev] = *model_.begin();
      EXPECT_FALSE(key.first == now_ && ev.tag == tag);
    }
    drain_tag_ = outer_tag;
    drain_fires_ = outer_fires;
    --drain_depth_;
  }

  void OnFire(uint64_t seq) {
    ASSERT_FALSE(model_.empty()) << "fired with nothing live";
    auto head = model_.begin();
    ASSERT_EQ(head->first.second, seq) << "out of (time, seq) order";
    EXPECT_EQ(q_.now(), head->first.first);
    EXPECT_EQ(EventQueue::Current(), &q_);
    if (drain_depth_ > 0) {
      EXPECT_EQ(head->second.tag, drain_tag_);
      EXPECT_EQ(head->first.first, now_);
      ++drain_fires_;
    } else {
      ++top_fires_;
    }
    now_ = head->first.first;
    TimerId self = head->second.id;
    uint64_t self_tag = head->second.tag;
    Retire(head);
    ++fired_;
    EXPECT_EQ(q_.dispatched(), fired_);
    EXPECT_EQ(q_.pending(), model_.size());
    // Operations from inside dispatch.
    switch (rng_.NextBelow(8)) {
      case 0:
      case 1:
        Schedule();
        break;
      case 2:
        CancelLive();
        break;
      case 3:
        q_.Cancel(self);  // the running event's own id: a no-op
        break;
      case 4:
        CheckHeadTag();
        break;
      case 5:
        // Drain same-instant peers the way the runtime does: with the
        // dispatched event's own tag.
        if (drain_depth_ == 0) Drain(self_tag);
        break;
      default:
        break;
    }
  }

  void Retire(std::map<Key, Event>::iterator it) {
    live_slots_.erase(SlotOf(it->second.id));
    stale_.push_back(it->second.id);
    model_.erase(it);
  }

  void CheckCounters() {
    EXPECT_EQ(q_.pending(), model_.size());
    EXPECT_EQ(q_.empty(), model_.empty());
    EXPECT_EQ(q_.dispatched(), fired_);
    EXPECT_EQ(q_.past_schedules(), past_);
    if (model_.empty()) {
      EXPECT_TRUE(std::isinf(q_.PeekTime()));
    } else {
      EXPECT_EQ(q_.PeekTime(), model_.begin()->first.first);
    }
  }

  Rng rng_;
  EventQueue q_;
  std::map<Key, Event> model_;  // live events
  std::vector<TimerId> stale_;  // fired or canceled
  std::set<TimerId> issued_;
  std::set<uint32_t> live_slots_;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  uint64_t fired_ = 0;
  uint64_t past_ = 0;
  size_t top_fires_ = 0;
  int drain_depth_ = 0;
  uint64_t drain_tag_ = 0;
  uint64_t drain_fires_ = 0;
  int aliased_stale_cancels_ = 0;
};

TEST(EventQueueModelTest, RandomOperationsMatchTheReferenceModel) {
  int aliased = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueModel model(seed);
    model.Run(10000);
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(model.fired(), 1000u);
    aliased += model.aliased_stale_cancels();
  }
  // Stale ids whose slot had been reused by a live event were canceled.
  EXPECT_GT(aliased, 0);
}

// --- QueueCallback -----------------------------------------------------------

// Counts destructor runs of the instance that was not moved from.
struct DtorProbe {
  explicit DtorProbe(int* count) : count(count) {}
  DtorProbe(DtorProbe&& other) noexcept : count(other.count) {
    other.count = nullptr;
  }
  DtorProbe& operator=(DtorProbe&&) = delete;
  ~DtorProbe() {
    if (count != nullptr) ++*count;
  }
  int* count;
};

TEST(QueueCallbackTest, CaptureDestroyedOnceWhenFired) {
  int dtors = 0;
  int calls = 0;
  EventQueue q;
  q.ScheduleAt(1.0, [p = DtorProbe(&dtors), &calls] { ++calls; });
  EXPECT_EQ(dtors, 0);
  q.RunAll();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(dtors, 1);
}

TEST(QueueCallbackTest, CaptureDestroyedOnceWhenCanceled) {
  int dtors = 0;
  int calls = 0;
  EventQueue q;
  q.ScheduleAt(0.5, [] {});
  TimerId id = q.ScheduleAt(1.0, [p = DtorProbe(&dtors), &calls] { ++calls; });
  q.Cancel(id);
  EXPECT_EQ(dtors, 1);  // Cancel destroys the callback at once
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(dtors, 1);
}

TEST(QueueCallbackTest, CaptureDestroyedOnceWithTheQueue) {
  int dtors = 0;
  {
    EventQueue q;
    q.ScheduleAt(1.0, [p = DtorProbe(&dtors)] {});
    EXPECT_EQ(dtors, 0);
  }
  EXPECT_EQ(dtors, 1);
}

TEST(QueueCallbackTest, LargeCaptureFallsBackToTheHeap) {
  std::array<uint8_t, 2 * QueueCallback::kInlineBytes> big{};
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  int fired_dtors = 0;
  int canceled_dtors = 0;
  int pending_dtors = 0;
  uint64_t sum = 0;
  auto make = [&](int* dtors) {
    return [big, p = DtorProbe(dtors), &sum] {
      for (uint8_t b : big) sum += b;
    };
  };
  static_assert(!QueueCallback::kFitsInline<decltype(make(nullptr))>);
  {
    EventQueue q;
    q.ScheduleAt(1.0, make(&fired_dtors));
    TimerId id = q.ScheduleAt(2.0, make(&canceled_dtors));
    q.RunUntil(1.5);
    q.Cancel(id);
    q.ScheduleAt(3.0, make(&pending_dtors));
    EXPECT_EQ(pending_dtors, 0);
  }
  uint64_t want = 0;
  for (uint8_t b : big) want += b;
  EXPECT_EQ(sum, want);
  EXPECT_EQ(fired_dtors, 1);
  EXPECT_EQ(canceled_dtors, 1);
  EXPECT_EQ(pending_dtors, 1);
}

TEST(QueueCallbackTest, MoveOnlyCaptureWorks) {
  EventQueue q;
  int got = 0;
  auto owned = std::make_unique<int>(42);
  q.ScheduleAt(1.0, [p = std::move(owned), &got] { got = *p; });
  // Cross chunk boundaries so slots are recycled under the capture.
  for (int i = 0; i < 3000; ++i) q.ScheduleAt(0.5, [] {});
  q.RunAll();
  EXPECT_EQ(got, 42);
}

TEST(QueueCallbackTest, MovesRelocateTheClosure) {
  int dtors = 0;
  int calls = 0;
  {
    QueueCallback a([p = DtorProbe(&dtors), &calls] { ++calls; });
    QueueCallback b(std::move(a));
    QueueCallback c;
    c = std::move(b);
    c();
    c();
    EXPECT_EQ(dtors, 0);
    c.reset();
    EXPECT_EQ(dtors, 1);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(dtors, 1);
}

}  // namespace
}  // namespace dpc
