#include "src/net/event_queue.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/util/logging.h"

namespace dpc {

namespace {
// The queue whose callback this thread is currently executing. Shard
// workers each dispatch from their own queue, so thread_local is exact.
thread_local EventQueue* tls_dispatching_queue = nullptr;
}  // namespace

EventQueue* EventQueue::Current() { return tls_dispatching_queue; }

EventQueue::EventQueue()
    : dispatch_counter_(&GlobalMetrics().GetCounter("queue.events_dispatched")),
      past_schedule_counter_(
          &GlobalMetrics().GetCounter("queue.past_schedules")),
      tracer_(&Trace()) {}

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = SlotAt(slot).next_free;
    return slot;
  }
  if (slots_used_ == chunks_.size() * kChunkSlots) {
    DPC_CHECK(slots_used_ < kNoSlot - kChunkSlots) << "event arena full";
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slots_used_++;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = SlotAt(slot);
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

TimerId EventQueue::ScheduleAtTagged(SimTime t, uint64_t tag, Callback fn) {
  if (t < now_) {
    // Clamp rather than rewind: time never runs backwards. Counted so a
    // shard engine misconfigured with too little lookahead is visible.
    ++past_schedules_;
    past_schedule_counter_->Increment();
    t = now_;
  }
  uint32_t slot = AcquireSlot();
  Slot& s = SlotAt(slot);
  s.fn = std::move(fn);
  s.tag = tag;
  s.live = true;
  ++pending_;
  heap_.push_back(Entry{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later());
  return (static_cast<TimerId>(s.generation) << 32) | slot;
}

void EventQueue::Cancel(TimerId id) {
  uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_used_) return;
  Slot& s = SlotAt(slot);
  // A fired, canceled or reused slot: the id is stale.
  if (!s.live || s.generation != static_cast<uint32_t>(id >> 32)) return;
  s.live = false;
  s.fn.reset();
  --pending_;
  SkipCanceled();
}

void EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  heap_.pop_back();
}

void EventQueue::SkipCanceled() {
  // Every heap entry is live (counted in pending_) or canceled, so with
  // no canceled entries outstanding there is nothing to look at.
  while (heap_.size() > pending_ && !SlotAt(heap_.front().slot).live) {
    uint32_t slot = heap_.front().slot;
    PopTop();
    ReleaseSlot(slot);
  }
}

bool EventQueue::RunNext() {
  SkipCanceled();
  if (heap_.empty()) return false;
  DispatchTop();
  return true;
}

void EventQueue::DispatchTop() {
  Entry entry = heap_.front();
  PopTop();
  now_ = entry.time;
  // The callback runs in place: its slot stays off the free list until it
  // returns, so events it schedules take other slots. Clearing `live`
  // first makes a Cancel of this event's own id a no-op.
  Slot& slot = SlotAt(entry.slot);
  slot.live = false;
  --pending_;
  ++dispatched_;
  dispatch_counter_->Increment();
  EventQueue* prev = tls_dispatching_queue;
  tls_dispatching_queue = this;
  if (tracer_->enabled()) {
    RunTraced(entry, slot.fn);
  } else {
    slot.fn();
  }
  tls_dispatching_queue = prev;
  slot.fn.reset();
  ReleaseSlot(entry.slot);
}

uint64_t EventQueue::HeadTagAtNow() {
  SkipCanceled();
  if (heap_.empty() || heap_.front().time != now_) return 0;
  return SlotAt(heap_.front().slot).tag;
}

size_t EventQueue::DrainAtTime(uint64_t tag) {
  if (tag == 0) return 0;
  size_t n = 0;
  for (;;) {
    SkipCanceled();
    if (heap_.empty()) break;
    const Entry& head = heap_.front();
    // Bitwise time equality is deliberately conservative: two float
    // timestamps that differ at all are different instants, and a batch
    // must never pull an event forward in simulated time.
    if (head.time != now_ || SlotAt(head.slot).tag != tag) break;
    DispatchTop();
    ++n;
  }
  return n;
}

void EventQueue::RunTraced(const Entry& entry, Callback& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  tracer_->CompleteAt(
      -1, TraceCat::kQueue, "dispatch", entry.time,
      "\"seq\": " + std::to_string(entry.seq) +
          ", \"wall_us\": " + std::to_string(wall / 1000.0));
}

void EventQueue::RunUntil(SimTime t) {
  SkipCanceled();
  while (!heap_.empty() && heap_.front().time <= t) {
    RunNext();
    SkipCanceled();
  }
  if (now_ < t) now_ = t;
}

SimTime EventQueue::PeekTime() {
  SkipCanceled();
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                       : heap_.front().time;
}

size_t EventQueue::RunWindow(SimTime end_exclusive, size_t max_events) {
  size_t n = 0;
  SkipCanceled();
  while (!heap_.empty() && heap_.front().time < end_exclusive) {
    RunNext();
    ++n;
    if (max_events != 0 && n >= max_events) break;
    SkipCanceled();
  }
  return n;
}

void EventQueue::RunAll(size_t max_events) {
  size_t n = 0;
  while (RunNext()) {
    if (max_events != 0 && ++n >= max_events) {
      DPC_LOG(Warning) << "EventQueue::RunAll stopped after " << n
                       << " events with " << pending() << " pending";
      return;
    }
  }
}

}  // namespace dpc
