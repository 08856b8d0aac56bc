// The discrete-event scheduler: events ordered by (time, sequence) drive
// coroutine resumptions and plain callbacks under a virtual clock.
// Single-threaded and fully deterministic. Resumptions due at the current
// time wait in a FIFO ready ring; everything later, and every callback timer,
// waits in a binary heap indexed by timer slot, so cancelling a timer removes
// it outright (see DESIGN.md, "Event queue").
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "sim/co_task.hpp"
#include "sim/time.hpp"

namespace daosim::sim {

class Scheduler;

/// Causal trace context: identifies one span inside one trace tree. A context
/// is allocated at a trace root (a sampled client op, a DTX commit, a rebuild
/// assignment, a SWIM probe round) and handed down the call chain; each hop
/// derives a child with `child()`. All-zero means "not traced" — span ids are
/// never 0, so `active()` distinguishes sampled from unsampled work, and a
/// child of an inactive context stays inactive (sampling decisions propagate
/// for free). Plain value type: copying or dropping one never schedules.
/// The fields are readable, but the only way to build an active context is
/// root() or child(): the triple constructor is private, so a hand-written
/// `TraceContext{trace, span, parent}` does not compile.
struct TraceContext {
  std::uint64_t trace_id = 0;   ///< root span id of the whole tree
  std::uint64_t span_id = 0;    ///< this span
  std::uint64_t parent_id = 0;  ///< enclosing span (0 for the root)

  /// The inactive context.
  TraceContext() = default;

  bool active() const { return trace_id != 0; }
  /// Derives the context of a child span with the given freshly-allocated id
  /// (see Scheduler::alloc_span_id). Inactive contexts stay inactive.
  TraceContext child(std::uint64_t id) const {
    return active() ? TraceContext{trace_id, id, span_id} : TraceContext{};
  }
  /// Starts a new trace tree rooted at span `id`. Everything below a root
  /// derives via child(), so every span id has a reachable parent.
  static TraceContext root(std::uint64_t id) { return TraceContext{id, id, 0}; }

 private:
  TraceContext(std::uint64_t trace, std::uint64_t span, std::uint64_t parent)
      : trace_id(trace), span_id(span), parent_id(parent) {}
};

/// Passive receiver for structured trace spans (RPCs, media transfers,
/// rebuild tasks). Implementations record the span; they must not touch the
/// scheduler — a sink never schedules events, so attaching one cannot change
/// `trace_hash()` or any simulated timing.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  /// One completed span: `category` is a static label ("rpc", "xfer",
  /// "media", "rebuild", "op", "svc", "queue", "vos", ...), `name` a
  /// human-readable description, `pid`/`tid` a process/track grouping
  /// (typically node id / opcode or stream), [begin, end] the simulated-time
  /// interval and `ctx` the causal linkage (inactive when the work was not
  /// sampled into a trace tree).
  virtual void span(const char* category, std::string name, std::uint32_t pid,
                    std::uint64_t tid, Time begin, Time end, TraceContext ctx = {}) = 0;
};

/// Handle to a cancellable callback timer (see Scheduler::schedule_callback).
/// A plain value naming a scheduler-owned timer slot and the generation it
/// was armed in: copies refer to the same timer, and dropping a handle does
/// not cancel it. A handle must not be used after its Scheduler is gone.
class Timer {
 public:
  Timer() = default;
  /// Cancels the timer; a cancelled timer's callback never fires.
  void cancel();
  bool armed() const;

 private:
  friend class Scheduler;
  Timer(Scheduler* s, std::uint32_t slot, std::uint64_t gen) : sched_(s), slot_(slot), gen_(gen) {}
  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Destroys the frames of detached processes still suspended at teardown
  /// (e.g. blocked forever after a deadlock, or parked beyond the horizon of
  /// the last run_until). Each root frame owns its CoTask chain, so this
  /// unwinds whole processes.
  ~Scheduler();

  Time now() const { return now_; }

  /// Resumes `h` at virtual time `at` (>= now). Events with equal time fire
  /// in scheduling order.
  void schedule(Time at, std::coroutine_handle<> h) {
    if (at == now_) {
      ready_.push_back(ReadyItem{seq_++, h});
    } else {
      schedule_later(at, h);
    }
  }

  /// Runs `fn` at virtual time `at` unless the returned Timer is cancelled.
  Timer schedule_callback(Time at, std::function<void()> fn);

  /// Moves the armed timer `t` to fire at `at` (>= now) with its callback
  /// kept. Takes a fresh sequence number, so the timer orders exactly as if
  /// it had been cancelled and scheduled again.
  void rearm(const Timer& t, Time at);

  /// Launches `t` as a detached top-level process starting at the current
  /// time. Exceptions escaping the process abort run().
  void spawn(CoTask<void> t);

  /// Spawns a callable returning CoTask<void>. The callable is moved into a
  /// wrapper coroutine frame so lambda captures stay alive for the process's
  /// lifetime — always prefer this over spawning `lambda()` directly, which
  /// dangles the closure (CppCoreGuidelines CP.51).
  template <typename F>
    requires requires(F f) {
      { f() } -> std::same_as<CoTask<void>>;
    }
  void spawn(F f) {
    spawn(invoke_holding(std::move(f)));
  }

  /// Awaitable that suspends the current coroutine for `dt` virtual time.
  auto delay(Time dt) {
    struct Awaiter {
      Scheduler& s;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { s.schedule(s.now_ + dt, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Awaitable that reschedules the current coroutine behind all events
  /// already pending at the current time.
  auto yield() { return delay(0); }

  /// Drains the event queue. Throws the first exception that escaped a
  /// spawned process, or DaosimError if processes remain blocked (deadlock).
  /// Leaves now() at the last dispatched event; a cancelled timer never
  /// moves the clock.
  void run();

  /// Runs until the virtual clock would pass `t`; returns true if events
  /// remain. Processes blocked on future events keep their state.
  bool run_until(Time t);

  std::size_t live_processes() const { return live_; }
  /// Resumptions and timer callbacks dispatched so far. A cancelled timer is
  /// never dispatched, so it is not counted.
  std::uint64_t events_processed() const { return events_; }

  /// Determinism-audit digest: an FNV-1a hash folding every dispatched event
  /// as the tuple (virtual time, sequence number, kind); cancelled timers are
  /// never dispatched and never folded. Two runs of the same scenario must
  /// produce bit-identical digests; any divergence means hidden
  /// nondeterminism (wall-clock input, hash-order iteration, an unseeded RNG)
  /// leaked into event scheduling.
  std::uint64_t trace_hash() const { return trace_hash_; }

  /// Folds an externally-observed simulation fact into the trace digest —
  /// fault injections, recovery actions, pool-map transitions. Anything that
  /// changes the course of a run but is not itself a queue event must be
  /// noted here so fault runs stay bit-reproducible end to end.
  void trace_note(std::uint64_t v) { fold_trace(v); }

  /// Opt-in structured tracing: when a sink is attached, instrumented
  /// components emit spans to it. Null (the default) disables emission; the
  /// sink is observed-only, never owned, and never scheduled, so toggling it
  /// leaves `trace_hash()` and all timings bit-identical.
  void set_span_sink(SpanSink* sink) { span_sink_ = sink; }
  SpanSink* span_sink() const { return span_sink_; }

  /// Allocates a fresh nonzero span id for trace contexts. A bare counter
  /// increment: it never schedules and never feeds the trace digest, and it
  /// is bumped unconditionally at instrumentation sites (whether or not a
  /// sink is attached or the op was sampled), so span ids — and therefore
  /// trace JSON — are bit-identical across same-seed runs and unchanged by
  /// toggling the sink.
  std::uint64_t alloc_span_id() { return ++next_span_id_; }

 private:
  struct Detached {
    struct promise_type {
      Detached get_return_object() {
        return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept {
        // The frame self-destroys after this; drop it from the live registry.
        if (sched) sched->unregister_detached(slot);
        return {};
      }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }  // body catches
      Scheduler* sched = nullptr;
      std::size_t slot = 0;
    };
    std::coroutine_handle<promise_type> h;
  };
  Detached run_detached(CoTask<void> t);
  void unregister_detached(std::size_t slot) noexcept;

  template <typename F>
  static CoTask<void> invoke_holding(F f) {
    co_await f();
  }

  friend class Timer;

  static constexpr std::uint32_t kNone = ~0u;  // no timer slot / not in the heap

  /// A resumption due at now(): the ready ring keeps these in FIFO order.
  struct ReadyItem {
    std::uint64_t seq;
    std::coroutine_handle<> h;
  };
  /// A heap entry: a future resumption (`h` set) or a timer (`slot` set).
  struct HeapItem {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    std::uint32_t slot;
    bool before(const HeapItem& o) const { return at != o.at ? at < o.at : seq < o.seq; }
  };
  /// A callback timer. `gen` advances whenever the timer fires or is
  /// cancelled, which invalidates every outstanding handle; `pos` is the
  /// timer's heap index while it is armed.
  struct TimerSlot {
    std::function<void()> fn;
    std::uint64_t gen = 0;
    std::uint32_t pos = kNone;
  };

  /// What a dispatched event did, folded into the trace digest.
  enum class EventKind : std::uint8_t { resume = 0, callback = 1 };

  void schedule_later(Time at, std::coroutine_handle<> h);
  bool timer_armed(std::uint32_t slot, std::uint64_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  void cancel_timer(std::uint32_t slot, std::uint64_t gen);
  void free_slot(std::uint32_t slot);

  /// Dispatches the next event if it is due at or before `limit`.
  bool dispatch_next(Time limit);
  void count_event(Time at, std::uint64_t seq, EventKind kind) {
    ++events_;
    fold_trace(at);
    fold_trace(seq);
    fold_trace(std::uint64_t(kind));
  }
  bool ready_empty() const { return ready_head_ == ready_.size(); }

  // Indexed binary heap over heap_: every placement of a timer entry updates
  // its slot's back-index.
  void heap_push(const HeapItem& it);
  void heap_erase(std::size_t pos);
  void heap_place(std::size_t pos, const HeapItem& it) {
    heap_[pos] = it;
    if (it.slot != kNone) slots_[it.slot].pos = std::uint32_t(pos);
  }
  void sift_up(std::size_t pos, HeapItem it);
  void sift_down(std::size_t pos, HeapItem it);
  void audit_heap_at(std::size_t pos) const;

  void finish_run();
  void fold_trace(std::uint64_t v) {
    // FNV-1a over the value's 8 little-endian bytes.
    for (int i = 0; i < 8; ++i) {
      trace_hash_ ^= (v >> (8 * i)) & 0xFF;
      trace_hash_ *= 0x100000001B3ULL;
    }
  }

  std::vector<ReadyItem> ready_;
  std::size_t ready_head_ = 0;
  std::vector<HeapItem> heap_;
  std::vector<TimerSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::size_t live_ = 0;
  std::uint64_t trace_hash_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  std::uint64_t next_span_id_ = 0;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::coroutine_handle<Detached::promise_type>> detached_;
  SpanSink* span_sink_ = nullptr;
};

inline void Timer::cancel() {
  if (sched_) sched_->cancel_timer(slot_, gen_);
  sched_ = nullptr;
}

inline bool Timer::armed() const { return sched_ && sched_->timer_armed(slot_, gen_); }

}  // namespace daosim::sim
