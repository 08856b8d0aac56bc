// Unit and property tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <exception>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/bandwidth.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace daosim::sim {
namespace {

CoTask<void> record_at(Scheduler& s, Time dt, std::vector<Time>& out) {
  co_await s.delay(dt);
  out.push_back(s.now());
}

TEST(Scheduler, DelayAdvancesVirtualTime) {
  Scheduler s;
  std::vector<Time> seen;
  s.spawn(record_at(s, 500, seen));
  s.spawn(record_at(s, 100, seen));
  s.spawn(record_at(s, 300, seen));
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{100, 300, 500}));
  EXPECT_EQ(s.now(), 500u);
}

TEST(Scheduler, FifoOrderAtEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  auto proc = [&](int id) -> CoTask<void> {
    co_await s.delay(42);
    order.push_back(id);
  };
  for (int i = 0; i < 8; ++i) s.spawn(proc(i));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Scheduler, NestedCoTasksReturnValues) {
  Scheduler s;
  auto leaf = [&](int x) -> CoTask<int> {
    co_await s.delay(10);
    co_return x * 2;
  };
  auto mid = [&](int x) -> CoTask<int> {
    int a = co_await leaf(x);
    int b = co_await leaf(a);
    co_return a + b;
  };
  int result = 0;
  auto top = [&]() -> CoTask<void> {
    result = co_await mid(5);
  };
  s.spawn(top());
  s.run();
  EXPECT_EQ(result, 10 + 20);
  EXPECT_EQ(s.now(), 20u);  // two sequential 10ns leaf delays
}

TEST(Scheduler, ExceptionPropagatesThroughAwaitChain) {
  Scheduler s;
  auto thrower = [&]() -> CoTask<void> {
    co_await s.delay(5);
    throw DaosimError("boom");
  };
  bool caught = false;
  auto top = [&]() -> CoTask<void> {
    try {
      co_await thrower();
    } catch (const DaosimError&) {
      caught = true;
    }
  };
  s.spawn(top());
  s.run();
  EXPECT_TRUE(caught);
}

TEST(Scheduler, UncaughtExceptionAbortsRun) {
  Scheduler s;
  auto thrower = [&]() -> CoTask<void> {
    co_await s.delay(5);
    throw DaosimError("boom");
  };
  s.spawn(thrower());
  EXPECT_THROW(s.run(), DaosimError);
}

TEST(Scheduler, DeadlockDetected) {
  Scheduler s;
  auto ev = std::make_shared<Event>(s);
  auto waiter = [&, ev]() -> CoTask<void> {
    co_await ev->wait();  // never set
  };
  s.spawn(waiter());
  EXPECT_THROW(s.run(), DaosimError);
}

TEST(Scheduler, CancelledTimerDoesNotFire) {
  Scheduler s;
  bool fired = false;
  Timer t = s.schedule_callback(100, [&] { fired = true; });
  t.cancel();
  s.schedule_callback(200, [] {});
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.now(), 200u);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  std::vector<Time> seen;
  s.spawn(record_at(s, 100, seen));
  s.spawn(record_at(s, 900, seen));
  const bool more = s.run_until(500);
  EXPECT_TRUE(more);
  EXPECT_EQ(seen, (std::vector<Time>{100}));
  EXPECT_EQ(s.now(), 500u);
  s.run();
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Event, WakesAllWaiters) {
  Scheduler s;
  Event ev(s);
  int woke = 0;
  auto waiter = [&]() -> CoTask<void> {
    co_await ev.wait();
    ++woke;
  };
  for (int i = 0; i < 5; ++i) s.spawn(waiter());
  s.spawn([&]() -> CoTask<void> {
    co_await s.delay(50);
    ev.set();
  });
  s.run();
  EXPECT_EQ(woke, 5);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Scheduler s;
  Event ev(s);
  ev.set();
  Time when = ~0ULL;
  s.spawn([&]() -> CoTask<void> {
    co_await ev.wait();
    when = s.now();
  });
  s.run();
  EXPECT_EQ(when, 0u);
}

TEST(Semaphore, LimitsConcurrency) {
  Scheduler s;
  Semaphore sem(s, 2);
  int active = 0, peak = 0;
  auto worker = [&]() -> CoTask<void> {
    co_await sem.acquire();
    peak = std::max(peak, ++active);
    co_await s.delay(100);
    --active;
    sem.release();
  };
  for (int i = 0; i < 10; ++i) s.spawn(worker());
  s.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(s.now(), 500u);  // 10 workers / 2 wide * 100ns
}

TEST(Semaphore, FifoHandoff) {
  Scheduler s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  auto worker = [&](int id) -> CoTask<void> {
    co_await sem.acquire();
    order.push_back(id);
    co_await s.delay(10);
    sem.release();
  };
  for (int i = 0; i < 6; ++i) s.spawn(worker(i));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Mutex, ScopedLockReleasesOnScopeExit) {
  Scheduler s;
  Mutex m(s);
  int inside = 0;
  bool overlapped = false;
  auto worker = [&]() -> CoTask<void> {
    auto guard = co_await ScopedLock::acquire(m);
    if (++inside > 1) overlapped = true;
    co_await s.delay(10);
    --inside;
  };
  for (int i = 0; i < 4; ++i) s.spawn(worker());
  s.run();
  EXPECT_FALSE(overlapped);
}

TEST(Channel, DeliversInOrder) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<int> got;
  s.spawn([&]() -> CoTask<void> {
    for (int i = 0; i < 5; ++i) {
      int v = co_await ch.pop();
      got.push_back(v);
    }
  });
  s.spawn([&]() -> CoTask<void> {
    for (int i = 0; i < 5; ++i) {
      co_await s.delay(10);
      ch.push(i);
    }
  });
  s.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, PopBeforePushSuspends) {
  Scheduler s;
  Channel<std::string> ch(s);
  std::string got;
  Time when = 0;
  s.spawn([&]() -> CoTask<void> {
    got = co_await ch.pop();
    when = s.now();
  });
  s.spawn([&]() -> CoTask<void> {
    co_await s.delay(77);
    ch.push("hello");
  });
  s.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(when, 77u);
}

TEST(WaitGroup, JoinsAllChildren) {
  Scheduler s;
  WaitGroup wg(s);
  int done = 0;
  Time joined = 0;
  auto child = [&](Time dt) -> CoTask<void> {
    co_await s.delay(dt);
    ++done;
  };
  s.spawn([&]() -> CoTask<void> {
    wg.spawn(child(100));
    wg.spawn(child(300));
    wg.spawn(child(200));
    co_await wg.wait();
    joined = s.now();
  });
  s.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(joined, 300u);
}

TEST(WaitGroup, WaitWithNoChildrenIsImmediate) {
  Scheduler s;
  WaitGroup wg(s);
  bool reached = false;
  s.spawn([&]() -> CoTask<void> {
    co_await wg.wait();
    reached = true;
  });
  s.run();
  EXPECT_TRUE(reached);
}

TEST(WhenAll, CompletesAtSlowestTask) {
  Scheduler s;
  Time done_at = 0;
  auto sleeper = [&](Time dt) -> CoTask<void> { co_await s.delay(dt); };
  s.spawn([&]() -> CoTask<void> {
    std::vector<CoTask<void>> v;
    v.push_back(sleeper(10));
    v.push_back(sleeper(500));
    v.push_back(sleeper(100));
    co_await when_all(s, std::move(v));
    done_at = s.now();
  });
  s.run();
  EXPECT_EQ(done_at, 500u);
}

// ---------------------------------------------------------------------------
// Kernel contract: dispatch order against a reference model, FIFO wake-up
// order of the waiter lists, and frames destroyed while suspended.

// Drives the scheduler with a seeded mix of resumptions, callback timers,
// cancels, re-arms and yields, recording every scheduling action with the
// sequence number the scheduler assigns to it (each schedule, callback, spawn
// and re-arm takes the next one; a cancel takes none). The reference order is
// then simply every entry sorted by (time, seq) with cancelled ones dropped.
class KernelModel {
 public:
  explicit KernelModel(std::uint64_t seed) : rng_(seed) {}

  void run(bool stepwise) {
    for (int i = 0; i < 6; ++i) {
      arm_timer();
      spawn_process();
    }
    if (stepwise) {
      while (s_.run_until(s_.now() + 37)) {
      }
    } else {
      s_.run();
    }
  }

  Scheduler& sched() { return s_; }
  const std::vector<std::size_t>& dispatched() const { return dispatched_; }
  std::vector<std::size_t> reference_order() const {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].cancelled) live.push_back(i);
    }
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      const Entry& x = entries_[a];
      const Entry& y = entries_[b];
      return x.at != y.at ? x.at < y.at : x.seq < y.seq;
    });
    return live;
  }
  /// The digest Scheduler::trace_hash() must reach: FNV-1a over each live
  /// event's (time, seq, kind) in dispatch order.
  std::uint64_t reference_hash() const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto fold = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
      }
    };
    for (std::size_t i : reference_order()) {
      fold(entries_[i].at);
      fold(entries_[i].seq);
      fold(entries_[i].callback ? 1 : 0);
    }
    return h;
  }
  std::size_t cancelled() const {
    return std::size_t(std::count_if(entries_.begin(), entries_.end(),
                                     [](const Entry& e) { return e.cancelled; }));
  }
  bool any_timer_armed() const {
    return std::any_of(timers_.begin(), timers_.end(),
                       [](const Tracked& t) { return t.timer.armed(); });
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    bool callback;
    bool cancelled = false;
  };
  struct Tracked {
    Timer timer;
    std::size_t entry;  // the timer's current (latest armed) entry
    bool live;
  };

  std::size_t record(Time at, bool callback) {
    entries_.push_back(Entry{at, next_seq_++, callback});
    return entries_.size() - 1;
  }

  /// Mostly collisions: now() itself, a few ns ahead, or further out.
  Time pick_time() {
    switch (rng_.uniform(3)) {
      case 0: return s_.now();
      case 1: return s_.now() + rng_.uniform(4);
      default: return s_.now() + rng_.uniform(200);
    }
  }

  void arm_timer() {
    const std::size_t k = timers_.size();
    const Time at = pick_time();
    const std::size_t e = record(at, true);
    Timer t = s_.schedule_callback(at, [this, k] { on_timer(k); });
    timers_.push_back(Tracked{t, e, true});
  }

  void on_timer(std::size_t k) {
    EXPECT_TRUE(timers_[k].live) << "a cancelled or fired timer ran";
    EXPECT_FALSE(timers_[k].timer.armed()) << "a running timer is no longer armed";
    dispatched_.push_back(timers_[k].entry);
    timers_[k].live = false;
    act();
  }

  Tracked* pick_timer() {
    return timers_.empty() ? nullptr : &timers_[rng_.uniform(timers_.size())];
  }

  void cancel_timer() {
    Tracked* t = pick_timer();
    if (!t) return;
    EXPECT_EQ(t->timer.armed(), t->live);
    if (t->live) entries_[t->entry].cancelled = true;
    t->live = false;
    t->timer.cancel();
  }

  void rearm_timer() {
    Tracked* t = pick_timer();
    if (!t || !t->live) return;
    entries_[t->entry].cancelled = true;  // superseded, never dispatched
    const Time at = pick_time();
    t->entry = record(at, true);
    s_.rearm(t->timer, at);
  }

  void spawn_process() {
    const std::size_t e = record(s_.now(), false);
    s_.spawn(process(e));
  }

  CoTask<void> process(std::size_t first) {
    dispatched_.push_back(first);
    const std::uint64_t steps = 1 + rng_.uniform(4);
    for (std::uint64_t i = 0; i < steps; ++i) {
      act();
      std::size_t e;
      if (rng_.uniform(2) == 0) {
        e = record(s_.now(), false);
        co_await s_.yield();
      } else {
        const Time at = pick_time();
        e = record(at, false);
        co_await s_.delay(at - s_.now());
      }
      dispatched_.push_back(e);
    }
  }

  void act() {
    for (std::uint64_t n = rng_.uniform(3); n > 0 && budget_ > 0; --n, --budget_) {
      switch (rng_.uniform(5)) {
        case 0: arm_timer(); break;
        case 1: cancel_timer(); break;
        case 2: rearm_timer(); break;
        case 3: spawn_process(); break;
        default: arm_timer(); break;
      }
    }
  }

  Scheduler s_;
  Xoshiro256 rng_;
  std::vector<Entry> entries_;
  std::vector<Tracked> timers_;
  std::vector<std::size_t> dispatched_;
  std::uint64_t next_seq_ = 0;
  int budget_ = 600;
};

class KernelOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelOrderProperty, DispatchOrderMatchesReferenceModel) {
  for (const bool stepwise : {false, true}) {
    KernelModel m(GetParam());
    m.run(stepwise);
    const std::vector<std::size_t> want = m.reference_order();
    EXPECT_GT(m.cancelled(), 0u) << "the seed should exercise cancel / re-arm";
    EXPECT_EQ(m.dispatched(), want) << "stepwise=" << stepwise;
    EXPECT_EQ(m.sched().events_processed(), want.size()) << "cancelled entries are not counted";
    EXPECT_EQ(m.sched().trace_hash(), m.reference_hash()) << "cancelled entries are not folded";
    EXPECT_FALSE(m.any_timer_armed());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelOrderProperty, ::testing::Range<std::uint64_t>(1, 13));

TEST(Event, WakesPlainWaitersThenTimedInArrivalOrder) {
  Scheduler s;
  Event ev(s);
  std::vector<int> order;
  auto plain = [&](int id) -> CoTask<void> {
    co_await ev.wait();
    order.push_back(id);
  };
  auto timed = [&](int id, Time timeout) -> CoTask<void> {
    const bool set = co_await ev.wait_for(timeout);
    order.push_back(set ? id : -id);
  };
  // Interleaved arrivals; waiter 11 times out first and leaves from the
  // middle of the timed list.
  s.spawn(timed(10, 1000));
  s.spawn(plain(0));
  s.spawn(timed(11, 1));
  s.spawn(plain(1));
  s.spawn(timed(12, 1000));
  s.spawn(plain(2));
  s.spawn([&]() -> CoTask<void> {
    co_await s.delay(5);
    EXPECT_EQ(ev.waiter_count(), 5u);
    ev.set();
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{-11, 0, 1, 2, 10, 12}));
  EXPECT_EQ(ev.waiter_count(), 0u);
  EXPECT_EQ(s.now(), 5u) << "cancelled timeouts leave the clock at the last live event";
}

TEST(Semaphore, ReleaseWakesWaitersInArrivalOrder) {
  Scheduler s;
  Semaphore sem(s, 0);
  std::vector<int> order;
  auto waiter = [&](int id) -> CoTask<void> {
    co_await sem.acquire();
    order.push_back(id);
  };
  for (int i = 0; i < 5; ++i) s.spawn(waiter(i));
  s.spawn([&]() -> CoTask<void> {
    co_await s.delay(10);
    EXPECT_EQ(sem.waiting(), 5u);
    for (int i = 0; i < 5; ++i) sem.release();
    EXPECT_EQ(sem.waiting(), 0u);
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sem.available(), 0u) << "every permit was handed to a waiter";
}

TEST(Channel, PushHandsValuesToPoppersInArrivalOrder) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<std::pair<int, int>> got;  // (popper, value)
  auto popper = [&](int id) -> CoTask<void> {
    const int v = co_await ch.pop();
    got.emplace_back(id, v);
  };
  for (int i = 0; i < 4; ++i) s.spawn(popper(i));
  s.spawn([&]() -> CoTask<void> {
    co_await s.delay(10);
    for (int v = 100; v < 104; ++v) ch.push(v);
  });
  s.run();
  EXPECT_EQ(got, (std::vector<std::pair<int, int>>{{0, 100}, {1, 101}, {2, 102}, {3, 103}}));
  EXPECT_TRUE(ch.empty());
}

// An eagerly started coroutine whose frame the test owns, so it can be
// destroyed while suspended, as Scheduler teardown does to blocked processes.
class OwnedFrame {
 public:
  struct promise_type {
    OwnedFrame get_return_object() {
      return OwnedFrame(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
  explicit OwnedFrame(std::coroutine_handle<promise_type> h) : h_(h) {}
  OwnedFrame(OwnedFrame&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  OwnedFrame& operator=(OwnedFrame&&) = delete;
  ~OwnedFrame() { destroy(); }
  void destroy() {
    if (h_) h_.destroy();
    h_ = {};
  }

 private:
  std::coroutine_handle<promise_type> h_;
};

OwnedFrame wait_for_event(Event& ev, Time timeout, int& woke) {
  // Not `if (co_await ...)`: GCC 12 miscompiles a co_await in a condition.
  const bool set = co_await ev.wait_for(timeout);
  if (set) ++woke;
}

OwnedFrame acquire_permit(Semaphore& sem, int& acquired) {
  co_await sem.acquire();
  ++acquired;
}

OwnedFrame pop_value(Channel<int>& ch, int& got) { got = co_await ch.pop(); }

TEST(Event, FrameDestroyedInWaitForUnlinksAndDisarms) {
  Scheduler s;
  Event ev(s);
  int woke = 0;
  OwnedFrame doomed = wait_for_event(ev, 100, woke);
  OwnedFrame kept = wait_for_event(ev, 100, woke);
  EXPECT_EQ(ev.waiter_count(), 2u);
  doomed.destroy();
  EXPECT_EQ(ev.waiter_count(), 1u);
  ev.set();
  s.run();
  EXPECT_EQ(woke, 1);
  EXPECT_EQ(s.events_processed(), 1u) << "only the surviving waiter resumes";
  EXPECT_EQ(s.now(), 0u) << "no timeout is left armed";

  // Destroyed with nobody ever setting the event: its timeout must not fire.
  Event never(s);
  OwnedFrame abandoned = wait_for_event(never, 50, woke);
  abandoned.destroy();
  EXPECT_FALSE(s.run_until(1000)) << "the destroyed waiter's timeout is gone";
  EXPECT_EQ(never.waiter_count(), 0u);
}

TEST(Semaphore, FrameDestroyedInAcquireGivesUpItsPlace) {
  Scheduler s;
  Semaphore sem(s, 0);
  int acquired = 0;
  OwnedFrame doomed = acquire_permit(sem, acquired);
  OwnedFrame kept = acquire_permit(sem, acquired);
  EXPECT_EQ(sem.waiting(), 2u);
  doomed.destroy();
  EXPECT_EQ(sem.waiting(), 1u);
  sem.release();
  s.run();
  EXPECT_EQ(acquired, 1);
  EXPECT_EQ(sem.available(), 0u) << "the permit went to the surviving waiter";
  sem.release();
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Channel, DestroyedBeforeItsSuspendedPopper) {
  // Testbed teardown order: components (and their channels) die before the
  // Scheduler destroys the service loops still blocked on them.
  Scheduler s;
  int got = -1;
  auto ch = std::make_unique<Channel<int>>(s);
  OwnedFrame popper = pop_value(*ch, got);
  ch.reset();
  popper.destroy();  // must not touch the dead channel
  EXPECT_EQ(got, -1);
}

// ---------------------------------------------------------------------------
// SharedBandwidth (processor sharing)

TEST(SharedBandwidth, SingleFlowExactTime) {
  Scheduler s;
  SharedBandwidth bw(s, 1e9);  // 1 GB/s = 1 byte/ns
  Time done = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await bw.transfer(1'000'000);
    done = s.now();
  });
  s.run();
  EXPECT_EQ(done, 1'000'000u);
}

TEST(SharedBandwidth, TwoEqualFlowsShareFairly) {
  Scheduler s;
  SharedBandwidth bw(s, 1e9);
  std::vector<Time> done;
  auto flow = [&]() -> CoTask<void> {
    co_await bw.transfer(1'000'000);
    done.push_back(s.now());
  };
  s.spawn(flow());
  s.spawn(flow());
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Both finish together at 2x the solo time.
  EXPECT_NEAR(double(done[0]), 2'000'000.0, 2.0);
  EXPECT_NEAR(double(done[1]), 2'000'000.0, 2.0);
}

TEST(SharedBandwidth, LateArrivalGetsRemainingShare) {
  Scheduler s;
  SharedBandwidth bw(s, 1e9);
  Time first = 0, second = 0;
  s.spawn([&]() -> CoTask<void> {
    co_await bw.transfer(1'000'000);
    first = s.now();
  });
  s.spawn([&]() -> CoTask<void> {
    co_await s.delay(500'000);  // arrives when flow 1 is half done
    co_await bw.transfer(1'000'000);
    second = s.now();
  });
  s.run();
  // Flow1: 500k solo + 500k shared (takes 1000k) -> done at 1.5e6.
  EXPECT_NEAR(double(first), 1'500'000.0, 5.0);
  // Flow2: 500k shared (takes 1000k) + 500k solo -> done at 2.0e6.
  EXPECT_NEAR(double(second), 2'000'000.0, 5.0);
}

TEST(SharedBandwidth, AggregateRateConserved) {
  Scheduler s;
  SharedBandwidth bw(s, 2e9);
  const int n = 7;
  const std::uint64_t bytes = 3'000'000;
  Time done = 0;
  auto flow = [&]() -> CoTask<void> {
    co_await bw.transfer(bytes);
    done = std::max(done, s.now());
  };
  for (int i = 0; i < n; ++i) s.spawn(flow());
  s.run();
  const double expect_ns = double(n) * double(bytes) / 2.0;  // 2 bytes/ns
  EXPECT_NEAR(double(done), expect_ns, expect_ns * 1e-6 + 10);
  EXPECT_EQ(bw.bytes_served(), std::uint64_t(n) * bytes);
}

TEST(SharedBandwidth, EfficiencyCurveDegradesThroughput) {
  Scheduler s;
  EfficiencyCurve eff{2, 1.0, 0.25};  // halves per doubling beyond 2 flows
  SharedBandwidth bw(s, 1e9, eff);
  Time done = 0;
  for (int i = 0; i < 4; ++i) {
    s.spawn([&]() -> CoTask<void> {
      co_await bw.transfer(1'000'000);
      done = s.now();
    });
  }
  s.run();
  // 4 flows, eff(4) = (2/4)^1 = 0.5 -> total rate 0.5 byte/ns.
  EXPECT_NEAR(double(done), 8'000'000.0, 20.0);
}

TEST(SharedBandwidth, BusyTimeTracksActivity) {
  Scheduler s;
  SharedBandwidth bw(s, 1e9);
  s.spawn([&]() -> CoTask<void> {
    co_await bw.transfer(1000);
    co_await s.delay(5000);  // idle gap
    co_await bw.transfer(1000);
  });
  s.run();
  EXPECT_NEAR(double(bw.busy_time()), 2000.0, 4.0);
}

TEST(SharedBandwidth, ZeroByteTransferIsFree) {
  Scheduler s;
  SharedBandwidth bw(s, 1e9);
  Time done = 1;
  s.spawn([&]() -> CoTask<void> {
    co_await bw.transfer(0);
    done = s.now();
  });
  s.run();
  EXPECT_EQ(done, 0u);
}

// Property: for any mix of flow sizes and arrival times, total service time
// conservation holds: sum(bytes) == bytes_served and the last completion is
// at least sum(bytes)/rate.
class BandwidthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthProperty, ConservationAndWorkBound) {
  Scheduler s;
  Xoshiro256 rng(GetParam());
  SharedBandwidth bw(s, 1e9);
  const int n = 20;
  std::uint64_t total = 0;
  Time last_done = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t bytes = 1000 + rng.uniform(500'000);
    const Time start = rng.uniform(1'000'000);
    total += bytes;
    s.spawn([&, bytes, start]() -> CoTask<void> {
      co_await s.delay(start);
      co_await bw.transfer(bytes);
      last_done = std::max(last_done, s.now());
    });
  }
  s.run();
  EXPECT_NEAR(double(bw.bytes_served()), double(total), 1.0);
  // Work conservation: cannot finish faster than total/rate.
  EXPECT_GE(double(last_done) + 2.0, double(total) / 1.0);
  // And cannot be slower than serial arrival-adjusted upper bound.
  EXPECT_LE(last_done, Time(2'000'000 + total));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthProperty, ::testing::Values(1, 2, 3, 7, 13, 42, 99));

// ---------------------------------------------------------------------------
// RNG and stats

TEST(Random, DeterministicFromSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a(), vb = b(), vc = c();
    all_equal &= (va == vb);
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Random, UniformBoundsRespected) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Random, UniformIsRoughlyUniform) {
  Xoshiro256 rng(11);
  std::map<std::uint64_t, int> counts;
  const int n = 100'000, buckets = 10;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform(buckets)];
  for (auto& [bucket, count] : counts) {
    EXPECT_NEAR(count, n / buckets, n / buckets * 0.1) << "bucket " << bucket;
  }
}

TEST(Random, ForkGivesIndependentStream) {
  Xoshiro256 rng(5);
  auto f1 = rng.fork(1);
  auto f2 = rng.fork(2);
  EXPECT_NE(f1(), f2());
}

TEST(Random, Uniform01InRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stats, SummaryMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_EQ(s.count(), 5u);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(double(i));
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, PercentileOfEmptyThrows) {
  Samples s;
  EXPECT_THROW(s.percentile(50), DaosimError);
}

}  // namespace
}  // namespace daosim::sim
