// Cooperative synchronisation primitives for simulated processes: Event,
// Semaphore, Mutex, Channel and WaitGroup. All are single-threaded (the
// simulation is cooperative); "blocking" means suspending the coroutine until
// another process signals it through the scheduler.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/scheduler.hpp"

namespace daosim::sim {

namespace detail {

class WaitList;

/// A suspended waiter threaded into a WaitList. Awaiters derive from it, so
/// the links live in the suspended coroutine frame and waiting allocates
/// nothing. Destroying a linked node (its frame was destroyed while
/// suspended) unlinks it; destroying the list first unlinks every node.
class WaitNode {
 public:
  WaitNode() = default;
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;
  inline ~WaitNode();

  std::coroutine_handle<> handle{};

 private:
  friend class WaitList;
  WaitNode* prev_ = nullptr;
  WaitNode* next_ = nullptr;
  WaitList* list_ = nullptr;
};

/// Intrusive FIFO of WaitNodes.
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;
  ~WaitList() {
    while (pop_front() != nullptr) {
    }
  }

  std::size_t size() const { return size_; }

  void push_back(WaitNode* n) {
    n->list_ = this;
    n->prev_ = tail_;
    n->next_ = nullptr;
    (tail_ ? tail_->next_ : head_) = n;
    tail_ = n;
    ++size_;
  }

  /// Unlinks and returns the oldest node, or nullptr when empty.
  WaitNode* pop_front() {
    WaitNode* n = head_;
    if (n) erase(n);
    return n;
  }

  void erase(WaitNode* n) {
    (n->prev_ ? n->prev_->next_ : head_) = n->next_;
    (n->next_ ? n->next_->prev_ : tail_) = n->prev_;
    n->prev_ = n->next_ = nullptr;
    n->list_ = nullptr;
    --size_;
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

inline WaitNode::~WaitNode() {
  if (list_) list_->erase(this);
}

}  // namespace detail

/// One-to-many level-triggered event. wait() completes immediately if the
/// event is set; otherwise the waiter suspends until set() fires.
class Event {
 public:
  explicit Event(Scheduler& s) : sched_(s) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  auto wait() {
    struct Awaiter : detail::WaitNode {
      explicit Awaiter(Event& ev) : e(ev) {}
      Event& e;
      bool await_ready() const noexcept { return e.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        handle = h;
        e.waiters_.push_back(this);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter(*this);
  }

  /// Timed wait: resumes with true when the event fires, false on timeout.
  auto wait_for(Time timeout) { return TimedAwaiter(*this, timeout); }

  /// Wakes every waiter in arrival order: plain waiters first, then timed.
  void set() {
    set_ = true;
    while (detail::WaitNode* w = waiters_.pop_front()) sched_.schedule(sched_.now(), w->handle);
    while (detail::WaitNode* n = timed_waiters_.pop_front()) {
      auto* w = static_cast<TimedAwaiter*>(n);
      w->timer.cancel();
      w->fired = true;
      sched_.schedule(sched_.now(), w->handle);
    }
  }

  void reset() { set_ = false; }
  bool is_set() const { return set_; }
  std::size_t waiter_count() const { return waiters_.size() + timed_waiters_.size(); }

 private:
  struct TimedAwaiter : detail::WaitNode {
    TimedAwaiter(Event& ev, Time t) : e(ev), timeout(t) {}
    // A frame destroyed mid-wait must not leave its timeout armed.
    ~TimedAwaiter() { timer.cancel(); }
    Event& e;
    Time timeout;
    bool fired = false;
    Timer timer{};

    bool await_ready() const noexcept { return e.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      e.timed_waiters_.push_back(this);
      timer = e.sched_.schedule_callback(e.sched_.now() + timeout, [this] {
        e.timed_waiters_.erase(this);
        fired = false;
        e.sched_.schedule(e.sched_.now(), handle);
      });
    }
    bool await_resume() const noexcept { return fired || e.set_; }
  };

  Scheduler& sched_;
  bool set_ = false;
  detail::WaitList waiters_;
  detail::WaitList timed_waiters_;
};

/// FIFO counting semaphore. release() hands the permit directly to the oldest
/// waiter, preserving arrival order.
class Semaphore {
 public:
  Semaphore(Scheduler& s, std::size_t permits) : sched_(s), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter : detail::WaitNode {
      explicit Awaiter(Semaphore& s) : sem(s) {}
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.permits_ > 0) {
          --sem.permits_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        handle = h;
        sem.waiters_.push_back(this);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter(*this);
  }

  void release() {
    if (detail::WaitNode* w = waiters_.pop_front()) {
      sched_.schedule(sched_.now(), w->handle);  // permit handed to waiter
    } else {
      ++permits_;
    }
  }

  std::size_t available() const { return permits_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Scheduler& sched_;
  std::size_t permits_;
  detail::WaitList waiters_;
};

/// Scoped-release mutex built on Semaphore.
class Mutex {
 public:
  explicit Mutex(Scheduler& s) : sem_(s, 1) {}
  auto lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }

 private:
  Semaphore sem_;
};

/// RAII guard: `auto g = co_await ScopedLock::acquire(mutex);`
class ScopedLock {
 public:
  static CoTask<ScopedLock> acquire(Mutex& m) {
    co_await m.lock();
    co_return ScopedLock(&m);
  }
  ScopedLock(ScopedLock&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
  ScopedLock& operator=(ScopedLock&& o) noexcept {
    if (this != &o) {
      release();
      m_ = std::exchange(o.m_, nullptr);
    }
    return *this;
  }
  ~ScopedLock() { release(); }

 private:
  explicit ScopedLock(Mutex* m) : m_(m) {}
  void release() {
    if (m_) {
      m_->unlock();
      m_ = nullptr;
    }
  }
  Mutex* m_;
};

/// Unbounded FIFO channel. pop() suspends while the channel is empty.
template <typename T>
class Channel {
 public:
  explicit Channel(Scheduler& s) : sched_(s) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T v) {
    if (detail::WaitNode* n = poppers_.pop_front()) {
      auto* p = static_cast<PopAwaiter*>(n);
      p->value.emplace(std::move(v));
      sched_.schedule(sched_.now(), p->handle);
    } else {
      buf_.push_back(std::move(v));
    }
  }

  auto pop() { return PopAwaiter(*this); }

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }

 private:
  struct PopAwaiter : detail::WaitNode {
    explicit PopAwaiter(Channel& c) : ch(c) {}
    Channel& ch;
    std::optional<T> value{};
    bool await_ready() noexcept {
      if (!ch.buf_.empty()) {
        value.emplace(std::move(ch.buf_.front()));
        ch.buf_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch.poppers_.push_back(this);
    }
    T await_resume() { return std::move(*value); }
  };

  Scheduler& sched_;
  std::deque<T> buf_;
  detail::WaitList poppers_;
};

/// Fork/join helper: spawn N child tasks, then `co_await wg.wait()`.
/// wait() completes immediately when nothing is pending.
class WaitGroup {
 public:
  explicit WaitGroup(Scheduler& s) : sched_(s), done_(s) { done_.set(); }

  void spawn(CoTask<void> t) {
    ++pending_;
    done_.reset();
    sched_.spawn(wrap(std::move(t)));
  }

  /// Callable overload keeping the closure alive (see Scheduler::spawn).
  template <typename F>
    requires requires(F f) {
      { f() } -> std::same_as<CoTask<void>>;
    }
  void spawn(F f) {
    spawn(invoke_holding(std::move(f)));
  }

  auto wait() { return done_.wait(); }
  std::size_t pending() const { return pending_; }

 private:
  template <typename F>
  static CoTask<void> invoke_holding(F f) {
    co_await f();
  }

  CoTask<void> wrap(CoTask<void> t) {
    co_await std::move(t);
    DAOSIM_REQUIRE(pending_ > 0, "WaitGroup underflow");
    if (--pending_ == 0) done_.set();
  }

  Scheduler& sched_;
  Event done_;
  std::size_t pending_ = 0;
};

/// Runs all tasks concurrently and completes when every one has finished.
inline CoTask<void> when_all(Scheduler& s, std::vector<CoTask<void>> tasks) {
  WaitGroup wg(s);
  for (auto& t : tasks) wg.spawn(std::move(t));
  co_await wg.wait();
}

/// Two-task convenience overload.
inline CoTask<void> when_all(Scheduler& s, CoTask<void> a, CoTask<void> b) {
  std::vector<CoTask<void>> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return when_all(s, std::move(v));
}

}  // namespace daosim::sim
