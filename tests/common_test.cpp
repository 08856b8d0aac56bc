// Coverage for the common error vocabulary (Result<T>, Errno, errno_name),
// the sim::Timer cancel/armed/fired state machine, and the empty-set
// behavior of the statistics helpers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace daosim {
namespace {

// ---------------------------------------------------------------- Result<T>

TEST(ResultTest, ValueStateAccessors) {
  Result<int> r(7);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), Errno::ok);
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, ErrorStateAccessors) {
  Result<int> r(Errno::no_entry);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), Errno::no_entry);
}

TEST(ResultTest, ValueOnErrorThrowsDaosimError) {
  Result<int> r(Errno::io);
  EXPECT_THROW((void)r.value(), DaosimError);
  try {
    (void)r.value();
    FAIL() << "value() on error state must throw";
  } catch (const DaosimError& e) {
    EXPECT_NE(std::string(e.what()).find("EIO"), std::string::npos)
        << "message should name the errno: " << e.what();
  }
}

TEST(ResultTest, DereferenceOnErrorThrows) {
  Result<std::string> r(Errno::perm);
  EXPECT_THROW(r->size(), DaosimError);
  const Result<std::string> cr(Errno::perm);
  EXPECT_THROW((void)*cr, DaosimError);
}

TEST(ResultTest, MutableAndRvalueAccess) {
  Result<std::string> r(std::string("abc"));
  r.value() += "d";
  EXPECT_EQ(*r, "abcd");
  // Rvalue access moves the payload out.
  Result<std::unique_ptr<int>> pr(std::make_unique<int>(5));
  std::unique_ptr<int> p = std::move(pr).value();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 5);
}

TEST(ResultTest, MemberAccessThroughArrow) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
}

TEST(ResultVoidTest, DefaultIsOk) {
  Result<void> r;
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), Errno::ok);
}

TEST(ResultVoidTest, CarriesErrno) {
  Result<void> r(Errno::busy);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.error(), Errno::busy);
}

TEST(ResultVoidTest, OkErrnoMeansOk) {
  Result<void> r(Errno::ok);
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------- errno_name

TEST(ErrnoTest, EveryEnumeratorHasADistinctName) {
  const std::pair<Errno, const char*> expected[] = {
      {Errno::ok, "OK"},
      {Errno::no_entry, "ENOENT"},
      {Errno::exists, "EEXIST"},
      {Errno::not_dir, "ENOTDIR"},
      {Errno::is_dir, "EISDIR"},
      {Errno::not_empty, "ENOTEMPTY"},
      {Errno::invalid, "EINVAL"},
      {Errno::no_space, "ENOSPC"},
      {Errno::busy, "EBUSY"},
      {Errno::io, "EIO"},
      {Errno::bad_fd, "EBADF"},
      {Errno::perm, "EPERM"},
      {Errno::again, "EAGAIN"},
      {Errno::name_too_long, "ENAMETOOLONG"},
      {Errno::not_supported, "ENOTSUP"},
      {Errno::stale, "ESTALE"},
      {Errno::timed_out, "ETIMEDOUT"},
  };
  for (const auto& [e, name] : expected) {
    EXPECT_STREQ(errno_name(e), name);
  }
  // Out-of-range values degrade to the placeholder rather than crashing.
  EXPECT_STREQ(errno_name(static_cast<Errno>(9999)), "E?");
}

// ---------------------------------------------------------------- sim::Timer

TEST(TimerTest, DefaultConstructedIsNotArmed) {
  sim::Timer t;
  EXPECT_FALSE(t.armed());
  t.cancel();  // cancel on an empty timer is a no-op
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, ArmedUntilFired) {
  sim::Scheduler s;
  bool fired = false;
  sim::Timer t = s.schedule_callback(10, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(t.armed()) << "a fired timer is no longer armed";
}

TEST(TimerTest, CancelledTimerNeverFires) {
  sim::Scheduler s;
  bool fired = false;
  sim::Timer t = s.schedule_callback(10, [&] { fired = true; });
  t.cancel();
  EXPECT_FALSE(t.armed());
  EXPECT_FALSE(s.run_until(100)) << "a cancelled timer leaves nothing pending";
  s.run();
  EXPECT_FALSE(fired) << "a cancelled timer's callback must never run";
  EXPECT_EQ(s.events_processed(), 0u) << "a cancelled timer is never dispatched";
}

TEST(TimerTest, CancelAfterFireIsANoOp) {
  sim::Scheduler s;
  int hits = 0;
  sim::Timer t = s.schedule_callback(5, [&] { ++hits; });
  s.run();
  EXPECT_EQ(hits, 1);
  t.cancel();
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(hits, 1);
}

TEST(TimerTest, CancelMidRunBeforeExpiry) {
  sim::Scheduler s;
  bool late_fired = false;
  sim::Timer late = s.schedule_callback(100, [&] { late_fired = true; });
  s.schedule_callback(10, [&] { late.cancel(); });
  s.run();
  EXPECT_FALSE(late_fired);
  EXPECT_FALSE(late.armed());
}

// ------------------------------------------------- empty-set statistics

// Empty extrema used to silently return the +/-infinity seeds; they are now
// rejected outright, mirroring Samples::percentile().
TEST(StatsEmptyTest, SummaryMinMaxThrowOnEmpty) {
  sim::Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);  // moments keep their defined-empty values
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_THROW((void)s.min(), DaosimError);
  EXPECT_THROW((void)s.max(), DaosimError);
  s.add(3.5);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(StatsEmptyTest, SamplesSummarizeThrowsOnEmpty) {
  sim::Samples s;
  EXPECT_THROW((void)s.summarize(), DaosimError);
  EXPECT_THROW((void)s.percentile(50.0), DaosimError);
  s.add(1.0);
  s.add(2.0);
  const sim::Summary sum = s.summarize();
  EXPECT_EQ(sum.count(), 2u);
  EXPECT_EQ(sum.min(), 1.0);
  EXPECT_EQ(sum.max(), 2.0);
}

TEST(TimerTest, RearmingReplacesState) {
  sim::Scheduler s;
  int first = 0, second = 0;
  sim::Timer t = s.schedule_callback(10, [&] { ++first; });
  // Overwriting the handle drops control of the first callback (it still
  // fires — only cancel() suppresses) and arms the second.
  t = s.schedule_callback(20, [&] { ++second; });
  EXPECT_TRUE(t.armed());
  s.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(t.armed());
}

}  // namespace
}  // namespace daosim
