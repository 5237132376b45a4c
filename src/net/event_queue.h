// Discrete-event simulation core (the repo's ns-3 substitute).
// Events are (time, sequence) ordered callbacks; sequence numbers break
// ties deterministically in schedule order.
//
// Scheduling, dispatching and canceling allocate nothing per event:
//
//  - Callbacks are QueueCallbacks: a move-only callable whose closure is
//    built in place in an 80-byte inline buffer. 80 bytes holds the
//    network's per-hop closure (`this`, a whole Message and the next
//    node); larger or over-aligned closures fall back to one heap
//    allocation.
//  - Each scheduled event owns a slot in an arena of fixed 1,024-slot
//    chunks. A slot holds the callback, the batch tag, a generation and a
//    live flag; freed slots are recycled through an intrusive free list.
//    Chunks are never moved or freed while the queue lives, so a slot's
//    address is stable and a peak of pending events costs one chunk per
//    1,024 of them rather than a reallocated (and doubled) array.
//  - The heap orders 24-byte {time, seq, slot} entries.
//  - A TimerId is `generation << 32 | slot`. A slot's generation advances
//    each time the slot is released, so an id whose event fired, was
//    canceled, or whose slot has since been reused no longer matches and
//    Cancel ignores it.
#ifndef DPC_NET_EVENT_QUEUE_H_
#define DPC_NET_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace dpc {

// Simulated time in seconds.
using SimTime = double;

// Handle for a scheduled event, usable with EventQueue::Cancel:
// `generation << 32 | slot` (see the file comment).
using TimerId = uint64_t;

// A move-only `void()` callable with inline storage. Closures that fit
// kInlineBytes, are no more aligned than a pointer and move without
// throwing are placement-new'd into the buffer and reached through
// std::launder; anything else is heap-allocated and the buffer holds the
// pointer. Invoking an empty QueueCallback is undefined.
class QueueCallback {
 public:
  static constexpr size_t kInlineBytes = 80;

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  QueueCallback() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, QueueCallback> &&
                std::is_invocable_r_v<void, D&>>>
  QueueCallback(F&& f) {  // implicit: call sites pass lambdas
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  QueueCallback(QueueCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  QueueCallback& operator=(QueueCallback&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(other.buf_, buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  QueueCallback(const QueueCallback&) = delete;
  QueueCallback& operator=(const QueueCallback&) = delete;

  ~QueueCallback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  // Destroys the held closure, if any.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    // Move-constructs the closure at `to` and destroys the one at `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* buf);
  };

  template <typename T>
  static T* At(void* buf) {
    return std::launder(static_cast<T*>(buf));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*At<D>(buf))(); },
      [](void* from, void* to) {
        D* src = At<D>(from);
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* buf) { At<D>(buf)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (**At<D*>(buf))(); },
      [](void* from, void* to) { ::new (to) D*(*At<D*>(from)); },
      [](void* buf) { delete *At<D*>(buf); },
  };

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  using Callback = QueueCallback;

  EventQueue();

  // Schedules `fn` at absolute time `t` (>= now). A stale `t < now()` is
  // clamped to now() and counted in the "queue.past_schedules" metric —
  // time never runs backwards, and under sharding a stale cross-shard
  // timestamp must not time-travel. The returned TimerId may be passed to
  // Cancel before the event fires.
  TimerId ScheduleAt(SimTime t, Callback fn) {
    return ScheduleAtTagged(t, 0, std::move(fn));
  }

  // As ScheduleAt, carrying a batch tag: a nonzero tag marks the event as
  // drainable into a same-(tag, time) batch by DrainAtTime. The runtime
  // tags event deliveries with their (destination node, relation) so all
  // same-predicate events landing at one node at one instant can be
  // evaluated set-at-a-time (src/runtime/batch_eval.h).
  TimerId ScheduleAtTagged(SimTime t, uint64_t tag, Callback fn);

  // Schedules `fn` `delay` seconds from now.
  TimerId ScheduleAfter(SimTime delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a scheduled event and destroys its callback. A stale id — the
  // event already fired or was canceled, or its slot has since been
  // reused — is a no-op. Cancellation is lazy: the heap entry stays until
  // it reaches the top, where it is skipped and its slot released.
  void Cancel(TimerId id);

  SimTime now() const { return now_; }
  bool empty() const { return pending_ == 0; }
  // Number of live (non-canceled) events still scheduled.
  size_t pending() const { return pending_; }
  // Events dispatched over this queue's lifetime.
  uint64_t dispatched() const { return dispatched_; }

  // Runs the earliest live event; returns false when no live events remain.
  bool RunNext();

  // Runs events until the queue empties or simulated time would exceed
  // `t`; `now()` advances to `t` afterwards.
  void RunUntil(SimTime t);

  // Drains the queue. `max_events` guards against runaway loops
  // (0 = unlimited).
  void RunAll(size_t max_events = 0);

  // --- shard-engine primitives (src/net/shard_engine.h) ----------------

  // Time of the earliest live event, or +infinity when none are pending.
  SimTime PeekTime();

  // Runs every live event with time < `end_exclusive` (the conservative
  // PDES window [now, end)), bounded by `max_events` (0 = unlimited).
  // Unlike RunUntil, now() is left at the last executed event — the
  // engine advances it explicitly at barriers. Returns events executed.
  size_t RunWindow(SimTime end_exclusive, size_t max_events = 0);

  // Advances now() to `t` without running anything (t < now() is a no-op).
  void AdvanceTo(SimTime t) {
    if (now_ < t) now_ = t;
  }

  // Stale schedules clamped to now() over this queue's lifetime.
  uint64_t past_schedules() const { return past_schedules_; }

  // --- batch-draining primitives (src/runtime/batch_eval.h) -------------

  // The queue a callback on this thread is currently being dispatched
  // from, or nullptr outside dispatch. Lets the runtime tell "I am the
  // event the queue just popped" (safe to drain peers) from a direct call
  // (e.g. a test feeding HandleMessage by hand — nothing to drain).
  static EventQueue* Current();

  // Tag of the earliest live entry if its time equals now(), else 0.
  // Inside a dispatch this asks: does the very next event fire at this
  // same instant, with this same tag?
  uint64_t HeadTagAtNow();

  // Runs — exactly as RunNext would, dispatch counter and trace span
  // included — every contiguous head entry whose time equals now() and
  // whose tag equals `tag` (nonzero), in sequence order. Stops at the
  // first entry with a different time or tag, so the drain never crosses
  // a same-instant untagged event (e.g. a slow-table update), never
  // reorders relative to RunWindow/RunNext, and — since every drained
  // entry fires at now(), inside the window that admitted the current
  // event — never crosses a shard window boundary. Returns the number
  // drained.
  size_t DrainAtTime(uint64_t tag);

 private:
  static constexpr uint32_t kChunkShift = 10;
  static constexpr uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr uint32_t kNoSlot = ~0u;

  struct Slot {
    Callback fn;
    uint64_t tag = 0;
    uint32_t generation = 0;
    uint32_t next_free = kNoSlot;
    // Scheduled and neither fired nor canceled.
    bool live = false;
  };
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(Entry) == 24);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Slot& SlotAt(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  uint32_t AcquireSlot();
  // Returns a slot to the free list; its generation advances, so every
  // TimerId naming it goes stale.
  void ReleaseSlot(uint32_t slot);
  void PopTop();
  // Pops canceled entries off the top of the heap, releasing their slots.
  void SkipCanceled();
  // Pops the top entry and dispatches it: counters, Current() scope,
  // traced-or-not run, then the slot's release.
  void DispatchTop();
  // Out-of-line traced dispatch, so the disabled-tracing path stays a
  // single predicted branch.
  void RunTraced(const Entry& entry, Callback& fn);

  std::vector<Entry> heap_;  // binary min-heap under Later
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  // Slots below this index have been handed out at least once; each is
  // live, running, dead in the heap, or on the free list.
  uint32_t slots_used_ = 0;
  uint32_t free_head_ = kNoSlot;
  size_t pending_ = 0;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
  uint64_t past_schedules_ = 0;
  // Cached at construction so the per-dispatch cost is one pointer bump
  // plus one branch on the tracer flag.
  Counter* dispatch_counter_;
  Counter* past_schedule_counter_;
  Tracer* tracer_;
};

}  // namespace dpc

#endif  // DPC_NET_EVENT_QUEUE_H_
