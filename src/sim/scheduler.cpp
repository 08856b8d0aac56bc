#include "sim/scheduler.hpp"

#include "common/audit.hpp"
#include "common/error.hpp"

namespace daosim::sim {

void Scheduler::schedule_later(Time at, std::coroutine_handle<> h) {
  DAOSIM_REQUIRE(at >= now_, "scheduling into the past (at=%llu now=%llu)",
                 static_cast<unsigned long long>(at), static_cast<unsigned long long>(now_));
  heap_push(HeapItem{at, seq_++, h, kNone});
}

Timer Scheduler::schedule_callback(Time at, std::function<void()> fn) {
  DAOSIM_REQUIRE(at >= now_, "scheduling into the past (at=%llu now=%llu)",
                 static_cast<unsigned long long>(at), static_cast<unsigned long long>(now_));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    DAOSIM_REQUIRE(slots_.size() < kNone, "timer slot table full");
    slot = std::uint32_t(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_push(HeapItem{at, seq_++, {}, slot});
  return Timer(this, slot, slots_[slot].gen);
}

void Scheduler::rearm(const Timer& t, Time at) {
  DAOSIM_REQUIRE(t.sched_ == this && timer_armed(t.slot_, t.gen_), "rearm of a timer that is not armed");
  DAOSIM_REQUIRE(at >= now_, "scheduling into the past (at=%llu now=%llu)",
                 static_cast<unsigned long long>(at), static_cast<unsigned long long>(now_));
  const std::size_t pos = slots_[t.slot_].pos;
  HeapItem it = heap_[pos];
  const bool earlier = at < it.at;  // else the fresh sequence number orders it later
  it.at = at;
  it.seq = seq_++;
  if (earlier) {
    sift_up(pos, it);
  } else {
    sift_down(pos, it);
  }
}

void Scheduler::cancel_timer(std::uint32_t slot, std::uint64_t gen) {
  if (!timer_armed(slot, gen)) return;
  heap_erase(slots_[slot].pos);
  // Destroy the callback only once the slot is back on the free list: its
  // captures' destructors may schedule.
  std::function<void()> fn = std::move(slots_[slot].fn);
  free_slot(slot);
}

void Scheduler::free_slot(std::uint32_t slot) {
  TimerSlot& sl = slots_[slot];
  sl.fn = nullptr;
  ++sl.gen;
  sl.pos = kNone;
  free_slots_.push_back(slot);
}

void Scheduler::heap_push(const HeapItem& it) {
  heap_.push_back(it);
  sift_up(heap_.size() - 1, it);
}

void Scheduler::heap_erase(std::size_t pos) {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && last.before(heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Scheduler::sift_up(std::size_t pos, HeapItem it) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!it.before(heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, it);
  audit_heap_at(pos);
}

void Scheduler::sift_down(std::size_t pos, HeapItem it) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
    if (!heap_[child].before(it)) break;
    heap_place(pos, heap_[child]);
    pos = child;
  }
  heap_place(pos, it);
  audit_heap_at(pos);
}

void Scheduler::audit_heap_at(std::size_t pos) const {
  // Audit (DAOSIM_AUDIT): the entry a mutation just placed sits in heap order
  // against its parent and children, and every timer among them (the sift
  // moved one neighbour) has its slot pointing back at its heap index.
  if constexpr (kAuditEnabled) {
    auto back_indexed = [this](std::size_t i) {
      const std::uint32_t slot = heap_[i].slot;
      return slot == kNone || (slot < slots_.size() && slots_[slot].pos == i);
    };
    const HeapItem& it = heap_[pos];
    DAOSIM_REQUIRE(back_indexed(pos), "audit: timer slot %u does not point back at heap entry %zu",
                   it.slot, pos);
    if (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      DAOSIM_REQUIRE(!it.before(heap_[parent]), "audit: heap entry %zu precedes its parent", pos);
      DAOSIM_REQUIRE(back_indexed(parent), "audit: heap entry %zu's timer slot is stale", parent);
    }
    for (std::size_t c = 2 * pos + 1; c <= 2 * pos + 2 && c < heap_.size(); ++c) {
      DAOSIM_REQUIRE(!heap_[c].before(it), "audit: heap entry %zu follows its child %zu", pos, c);
      DAOSIM_REQUIRE(back_indexed(c), "audit: heap entry %zu's timer slot is stale", c);
    }
  }
}

Scheduler::Detached Scheduler::run_detached(CoTask<void> t) {
  try {
    co_await std::move(t);
  } catch (...) {
    errors_.push_back(std::current_exception());
  }
  --live_;
}

void Scheduler::spawn(CoTask<void> t) {
  ++live_;
  Detached d = run_detached(std::move(t));
  d.h.promise().sched = this;
  d.h.promise().slot = detached_.size();
  detached_.push_back(d.h);
  schedule(now_, d.h);
}

void Scheduler::unregister_detached(std::size_t slot) noexcept {
  detached_[slot] = detached_.back();
  detached_[slot].promise().slot = slot;
  detached_.pop_back();
}

Scheduler::~Scheduler() {
  // Processes still suspended here would otherwise leak their frames. destroy()
  // runs the frame's local destructors (unwinding the owned CoTask chain) but
  // not final_suspend, so null the back-pointer and tear down back-to-front.
  while (!detached_.empty()) {
    auto h = detached_.back();
    detached_.pop_back();
    h.promise().sched = nullptr;
    h.destroy();
  }
}

bool Scheduler::dispatch_next(Time limit) {
  // Heap entries due now were scheduled before the clock reached now(), so
  // they precede the ring; a callback timer armed at now() sits in the heap
  // too, which is why the sequence numbers decide.
  const bool ready = !ready_empty();
  if (!heap_.empty() && (!ready || (heap_[0].at == now_ && heap_[0].seq < ready_[ready_head_].seq))) {
    const HeapItem top = heap_[0];
    if (top.at > limit) return false;
    heap_erase(0);
    now_ = top.at;
    if (top.h) {
      count_event(top.at, top.seq, EventKind::resume);
      top.h.resume();
      return true;
    }
    count_event(top.at, top.seq, EventKind::callback);
    // Move the callback out first: it may arm timers, growing slots_.
    std::function<void()> fn = std::move(slots_[top.slot].fn);
    free_slot(top.slot);
    fn();
    return true;
  }
  if (!ready || now_ > limit) return false;
  const ReadyItem it = ready_[ready_head_++];
  if (ready_empty()) {
    ready_.clear();
    ready_head_ = 0;
  }
  count_event(now_, it.seq, EventKind::resume);
  it.h.resume();
  return true;
}

void Scheduler::finish_run() {
  if (!errors_.empty()) {
    auto e = errors_.front();
    errors_.clear();
    std::rethrow_exception(e);
  }
}

void Scheduler::run() {
  while (dispatch_next(~Time(0))) {
    if (!errors_.empty()) finish_run();
  }
  finish_run();
  if (live_ > 0) {
    raise(strfmt("deadlock: %zu process(es) blocked with no pending events", live_));
  }
}

bool Scheduler::run_until(Time t) {
  while (dispatch_next(t)) {
    if (!errors_.empty()) finish_run();
  }
  finish_run();
  if (now_ < t) now_ = t;
  return !ready_empty() || !heap_.empty();
}

}  // namespace daosim::sim
