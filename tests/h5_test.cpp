// H5Lite tests on MemVfs: format round-trips (real parse of written bytes),
// dataset I/O, attributes, metadata-cache flush accounting, and the
// conversion-buffer request-splitting behaviour the benchmarks rely on.
#include <gtest/gtest.h>

#include "co_assert.hpp"
#include "discard_stack.hpp"
#include "h5/h5lite.hpp"
#include "ior/ior.hpp"
#include "posix/vfs.hpp"

namespace daosim::h5 {
namespace {

using sim::CoTask;

struct Env {
  sim::Scheduler sched;
  posix::MemVfs vfs;
  template <typename F>
  void run(F f) {
    sched.spawn(std::move(f));
    sched.run();
  }
};

TEST(H5Lite, CreateWriteReadRoundTrip) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto shadow = std::make_shared<H5Meta>();
    auto f = co_await H5File::create(env.vfs, "/data.h5", shadow);
    CO_ASSERT_OK(f);
    auto d = co_await (*f)->create_dataset("temperature", 64 * 1024);
    CO_ASSERT_OK(d);
    std::vector<std::byte> data(10'000);
    ior::fill_pattern(data, 0, 5);
    CO_ASSERT_ERRNO(co_await d->write(0, data.size(), data), Errno::ok);
    std::vector<std::byte> out(data.size());
    auto n = co_await d->read(0, out);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(ior::check_pattern(out, 0, 5), 0u);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
  });
}

TEST(H5Lite, ReopenParsesRealMetadata) {
  Env env;
  env.run([&]() -> CoTask<void> {
    {
      auto shadow = std::make_shared<H5Meta>();
      auto f = co_await H5File::create(env.vfs, "/p.h5", shadow);
      CO_ASSERT_OK(f);
      auto d = co_await (*f)->create_dataset("x", 4096);
      CO_ASSERT_OK(d);
      std::vector<std::byte> data(4096);
      ior::fill_pattern(data, 0, 11);
      CO_ASSERT_ERRNO(co_await d->write(0, data.size(), data), Errno::ok);
      CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
    }
    // Fresh shadow: open() must parse the symbol table from the file bytes.
    auto shadow2 = std::make_shared<H5Meta>();
    auto f2 = co_await H5File::open(env.vfs, "/p.h5", shadow2);
    CO_ASSERT_OK(f2);
    auto d2 = co_await (*f2)->open_dataset("x");
    CO_ASSERT_OK(d2);
    CO_ASSERT_EQ(d2->size(), 4096u);
    std::vector<std::byte> out(4096);
    auto n = co_await d2->read(0, out);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(ior::check_pattern(out, 0, 11), 0u);
    CO_ASSERT_ERRNO(co_await (*f2)->close(), Errno::ok);
  });
}

TEST(H5Lite, OpenNonH5FileFails) {
  Env env;
  env.run([&]() -> CoTask<void> {
    posix::VfsOpenFlags flags;
    flags.create = true;
    auto fd = co_await env.vfs.open("/junk", flags);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> noise(4096, std::byte{0x42});
    auto wrote = co_await env.vfs.pwrite(*fd, 0, noise.size(), noise);
    CO_ASSERT_OK(wrote);
    (void)co_await env.vfs.close(*fd);
    auto shadow = std::make_shared<H5Meta>();
    auto f = co_await H5File::open(env.vfs, "/junk", shadow);
    CO_ASSERT_EQ(f.error(), Errno::invalid);
  });
}

TEST(H5Lite, MultipleDatasetsAndAttributes) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto shadow = std::make_shared<H5Meta>();
    auto f = co_await H5File::create(env.vfs, "/multi.h5", shadow);
    CO_ASSERT_OK(f);
    for (int i = 0; i < 10; ++i) {
      const std::string name = strfmt("dset%02d", i);
      auto d = co_await (*f)->create_dataset(name, 1024 * std::uint64_t(i + 1));
      CO_ASSERT_OK(d);
    }
    auto dup = co_await (*f)->create_dataset("dset03", 1);
    CO_ASSERT_EQ(dup.error(), Errno::exists);
    CO_ASSERT_ERRNO(co_await (*f)->write_attribute("units", 16), Errno::ok);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
    // Reopen and check everything is there.
    auto shadow2 = std::make_shared<H5Meta>();
    auto f2 = co_await H5File::open(env.vfs, "/multi.h5", shadow2);
    CO_ASSERT_OK(f2);
    CO_ASSERT_EQ(shadow2->datasets.size(), 10u);
    CO_ASSERT_EQ(shadow2->attributes.size(), 1u);
    auto d7 = co_await (*f2)->open_dataset("dset07");
    CO_ASSERT_OK(d7);
    CO_ASSERT_EQ(d7->size(), 8u * 1024u);
    CO_ASSERT_ERRNO(co_await (*f2)->close(), Errno::ok);
  });
}

TEST(H5Lite, WriteBeyondDataspaceRejected) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto shadow = std::make_shared<H5Meta>();
    auto f = co_await H5File::create(env.vfs, "/b.h5", shadow);
    CO_ASSERT_OK(f);
    auto d = co_await (*f)->create_dataset("x", 1000);
    CO_ASSERT_OK(d);
    CO_ASSERT_ERRNO(co_await d->write(900, 200, {}), Errno::invalid);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
  });
}

TEST(H5Lite, ConversionBufferSplitsRawIo) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto shadow = std::make_shared<H5Meta>();
    H5Config cfg;
    cfg.conversion_buffer = 64 * 1024;
    auto f = co_await H5File::create(env.vfs, "/split.h5", shadow, cfg);
    CO_ASSERT_OK(f);
    auto d = co_await (*f)->create_dataset("x", 1 * kMiB);
    CO_ASSERT_OK(d);
    const std::uint64_t before = (*f)->raw_ops();
    CO_ASSERT_ERRNO(co_await d->write(0, 1 * kMiB, {}), Errno::ok);
    // One logical write; file-format level issues 16 serial 64 KiB pieces.
    CO_ASSERT_EQ((*f)->raw_ops() - before, 1u);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
  });
}

TEST(H5Lite, MetadataCacheFlushesPeriodically) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto shadow = std::make_shared<H5Meta>();
    H5Config cfg;
    cfg.mdc_flush_every = 4;
    auto f = co_await H5File::create(env.vfs, "/mdc.h5", shadow, cfg);
    CO_ASSERT_OK(f);
    auto d = co_await (*f)->create_dataset("x", 1 * kMiB);
    CO_ASSERT_OK(d);
    const std::uint64_t before = (*f)->metadata_writes();
    for (int i = 0; i < 16; ++i) {
      CO_ASSERT_ERRNO(co_await d->write(std::uint64_t(i) * 1024, 1024, {}), Errno::ok);
    }
    // 16 raw ops / flush_every 4 = 4 header evictions.
    CO_ASSERT_EQ((*f)->metadata_writes() - before, 4u);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
  });
}

TEST(H5Lite, SharedShadowAllowsZeroedPayloadOpen) {
  Env env;
  env.run([&]() -> CoTask<void> {
    // Simulate discard mode: the file exists but open()'s metadata reads
    // leave its zeroed buffers unparsable. A shared shadow lets a second
    // opener proceed (the cross-rank shared-file case).
    auto shadow = std::make_shared<H5Meta>();
    auto f = co_await H5File::create(env.vfs, "/shadow.h5", shadow);
    CO_ASSERT_OK(f);
    auto d = co_await (*f)->create_dataset("x", 2048);
    CO_ASSERT_OK(d);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
    // Wipe the metadata bytes to zeros: what open()'s buffers hold after a
    // discard-mode store returns no bytes.
    posix::VfsOpenFlags wf;
    auto fd = co_await env.vfs.open("/shadow.h5", wf);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> zeros(4096, std::byte{0});
    CO_ASSERT_OK(co_await env.vfs.pwrite(*fd, 0, zeros.size(), zeros));
    CO_ASSERT_ERRNO(co_await env.vfs.close(*fd), Errno::ok);
    auto f2 = co_await H5File::open(env.vfs, "/shadow.h5", shadow);
    CO_ASSERT_OK(f2);  // proceeds via the shared shadow
    auto d2 = co_await (*f2)->open_dataset("x");
    CO_ASSERT_OK(d2);
    CO_ASSERT_ERRNO(co_await (*f2)->close(), Errno::ok);
  });
}

TEST(H5Lite, DirectLargeIoBypassesBuffer) {
  Env env;
  env.run([&]() -> CoTask<void> {
    auto shadow = std::make_shared<H5Meta>();
    H5Config cfg;
    cfg.direct_large_io = true;
    auto f = co_await H5File::create(env.vfs, "/direct.h5", shadow, cfg);
    CO_ASSERT_OK(f);
    auto d = co_await (*f)->create_dataset("x", 4 * kMiB);
    CO_ASSERT_OK(d);
    std::vector<std::byte> data(2 * kMiB);
    ior::fill_pattern(data, 0, 2);
    CO_ASSERT_ERRNO(co_await d->write(0, data.size(), data), Errno::ok);
    std::vector<std::byte> out(data.size());
    auto n = co_await d->read(0, out);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(ior::check_pattern(out, 0, 2), 0u);
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
  });
}

// Discard-mode sink contract over DFuse, for both raw-data drivers: sec2
// moves the read in conversion_buffer pieces, direct_large_io in one request.
void expect_discard_read_leaves_sink_untouched(bool direct_large_io,
                                               std::uint64_t expected_requests) {
  testkit::DiscardStack stack;
  stack.tb.run([&]() -> CoTask<void> {
    H5Config cfg;
    cfg.direct_large_io = direct_large_io;
    auto f = co_await H5File::create(*stack.dfuse, "/sink.h5", std::make_shared<H5Meta>(), cfg);
    CO_ASSERT_OK(f);
    const std::uint64_t len = kMiB;
    auto d = co_await (*f)->create_dataset("x", 2 * len);
    CO_ASSERT_OK(d);
    CO_ASSERT_ERRNO(co_await d->write(0, len, {}), Errno::ok);
    auto sink = testkit::sentinel_sink(len);
    const std::uint64_t before = stack.dfuse->requests_served();
    auto n = co_await d->read(0, sink);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(*n, len);
    CO_ASSERT_EQ(stack.dfuse->requests_served() - before, expected_requests);
    CO_ASSERT_TRUE(testkit::sink_untouched(sink));
    CO_ASSERT_ERRNO(co_await (*f)->close(), Errno::ok);
  });
}

TEST(H5Discard, Sec2ReadLeavesSinkUntouched) {
  expect_discard_read_leaves_sink_untouched(/*direct_large_io=*/false, /*requests=*/4);
}

TEST(H5Discard, DirectLargeIoReadLeavesSinkUntouched) {
  expect_discard_read_leaves_sink_untouched(/*direct_large_io=*/true, /*requests=*/1);
}

}  // namespace
}  // namespace daosim::h5
