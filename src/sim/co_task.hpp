// CoTask<T>: the lazily-started coroutine task used throughout the simulator.
//
// A CoTask owns its coroutine frame. Awaiting it (only valid on an rvalue,
// and at most once) starts the coroutine; when the coroutine finishes, control
// transfers symmetrically back to the awaiter. Exceptions propagate to the
// awaiter at the co_await expression.
//
// TOOLCHAIN NOTE (GCC 12 workaround): do not build non-trivially-destructible
// prvalues (lambda closures, request structs, nested CoTask chains) inside a
// co_await operand expression — GCC 12 destroys such temporaries twice
// (fixed in GCC 13). Hoist them into named locals and pass with std::move:
//   auto op = [...](){...};            // NOT: co_await eq.launch([...]{...})
//   co_await eq.launch(std::move(op));
// Likewise keep a co_await on an awaiter with a destructor (Event::wait_for)
// out of an if condition; bind the result to a local first.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace daosim::sim {

template <typename T>
class [[nodiscard]] CoTask;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value{};
    CoTask get_return_object() {
      return CoTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
    T take() {
      if (exception) std::rethrow_exception(exception);
      return std::move(*value);
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  CoTask() noexcept = default;
  explicit CoTask(Handle h) noexcept : h_(h) {}
  CoTask(CoTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  CoTask& operator=(CoTask&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  ~CoTask() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start the child coroutine
      }
      T await_resume() { return h.promise().take(); }
    };
    DAOSIM_REQUIRE(h_, "co_await on an empty CoTask");
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_{};
};

template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : detail::PromiseBase {
    CoTask get_return_object() {
      return CoTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
    void take() {
      if (exception) std::rethrow_exception(exception);
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  CoTask() noexcept = default;
  explicit CoTask(Handle h) noexcept : h_(h) {}
  CoTask(CoTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  CoTask& operator=(CoTask&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  ~CoTask() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() { h.promise().take(); }
    };
    DAOSIM_REQUIRE(h_, "co_await on an empty CoTask");
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_{};
};

}  // namespace daosim::sim
