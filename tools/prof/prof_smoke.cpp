// A small CPU-bound daosim program for the sampler's smoke test
// (prof_smoke_test.py): it stamps and checks IOR patterns and copies buffers
// through memcpy until it has used argv[1] seconds of CPU time (default 0.5).
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "ior/ior.hpp"

namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

__attribute__((noinline)) std::uint64_t pattern_pass(std::vector<std::byte>& buf,
                                                     std::uint64_t pass) {
  daosim::ior::fill_pattern(buf, pass * buf.size(), 42);
  return daosim::ior::check_pattern(buf, pass * buf.size(), 42) + buf.size() % 2;
}

// Reads a byte after each copy, so no copy is a tail call or folded away.
__attribute__((noinline)) std::uint64_t copy_pass(std::vector<std::byte>& dst,
                                                  const std::vector<std::byte>& src,
                                                  std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    std::memcpy(dst.data(), src.data() + i, n - i);
    sum += std::to_integer<std::uint64_t>(dst[i]);
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 0.5;
  std::vector<std::byte> a(std::size_t(1) << 20), b(a.size());
  std::uint64_t bad = 0;
  std::uint64_t sum = 0;
  for (std::uint64_t pass = 0; cpu_seconds() < seconds; ++pass) {
    bad += pattern_pass(a, pass);
    sum += copy_pass(b, a, a.size() - pass % 2);  // a size the compiler cannot inline
  }
  std::printf("bad=%llu sum=%llu\n", static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(sum));
  return bad == 0 ? 0 : 1;
}
