// SIGPROF frame-pointer sampler, loaded with LD_PRELOAD into any daosim
// program (see README.md):
//
//   LD_PRELOAD=build/tools/prof/libprof_sampler.so ./build/examples/ior_cli ...
//   python3 tools/prof/resolve.py prof.<pid>.txt
//
// Every millisecond of process CPU time (ITIMER_PROF) the handler records the
// interrupted program counter and the return addresses found by walking the
// frame-pointer chain. It allocates nothing: samples go to an anonymous
// mapping reserved at load time. At exit the samples and the executable
// mappings are written to prof.<pid>.txt in the working directory:
//
//   # prof_sampler hz=1000 samples=N dropped=D
//   s <pc> <return address> ...          one line per sample, leaf first
//   m <start>-<end> <file offset> <path>  one line per executable mapping
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr int kHz = 1000;
constexpr std::size_t kMaxDepth = 64;
constexpr std::size_t kSlots = std::size_t(32) << 20;  // 256 MiB of words, touched lazily

std::uintptr_t* g_slots = nullptr;
std::size_t g_used = 0;  // words written; each sample is [depth, pcs...]
std::size_t g_samples = 0;
std::size_t g_dropped = 0;
// The main thread's stack, the only one the frame walk trusts: any frame
// pointer outside [interrupted sp, g_stack_hi) ends the walk, so a register
// that holds something other than a frame pointer is never dereferenced
// outside mapped stack memory.
std::uintptr_t g_stack_lo = 0;
std::uintptr_t g_stack_hi = 0;

void on_sigprof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  if (g_used + 1 + kMaxDepth > kSlots) {
    ++g_dropped;
    return;
  }
  std::uintptr_t* out = g_slots + g_used;
  std::size_t depth = 0;
  out[1 + depth++] = pc;
  const bool main_stack = sp >= g_stack_lo && sp < g_stack_hi;
  while (main_stack && depth < kMaxDepth && fp >= sp && fp + 16 <= g_stack_hi &&
         fp % sizeof(std::uintptr_t) == 0) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = frame[1];
    if (ret == 0) break;
    out[1 + depth++] = ret;
    if (frame[0] <= fp) break;  // the chain must climb the stack
    fp = frame[0];
  }
  out[0] = depth;
  g_used += 1 + depth;
  ++g_samples;
}

void write_profile() {
  char path[64];
  std::snprintf(path, sizeof(path), "prof.%d.txt", static_cast<int>(getpid()));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "# prof_sampler hz=%d samples=%zu dropped=%zu\n", kHz, g_samples, g_dropped);
  for (std::size_t i = 0; i < g_used;) {
    const std::size_t depth = g_slots[i];
    std::fputc('s', f);
    for (std::size_t d = 0; d < depth; ++d) {
      std::fprintf(f, " %llx", static_cast<unsigned long long>(g_slots[i + 1 + d]));
    }
    std::fputc('\n', f);
    i += 1 + depth;
  }
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      unsigned long long lo = 0, hi = 0, off = 0;
      char perms[8] = {};
      int name_at = 0;
      if (std::sscanf(line, "%llx-%llx %7s %llx %*s %*s %n", &lo, &hi, perms, &off, &name_at) < 4)
        continue;
      if (perms[2] != 'x' || line[name_at] != '/') continue;
      line[std::strcspn(line, "\n")] = '\0';
      std::fprintf(f, "m %llx-%llx %llx %s\n", lo, hi, off, line + name_at);
    }
    std::fclose(maps);
  }
  std::fclose(f);
}

__attribute__((constructor)) void prof_start() {
  void* mem = mmap(nullptr, kSlots * sizeof(std::uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_slots = static_cast<std::uintptr_t*>(mem);
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* base = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &base, &size) == 0) {
      g_stack_lo = reinterpret_cast<std::uintptr_t>(base);
      g_stack_hi = g_stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval every{};
  every.it_interval.tv_usec = 1000000 / kHz;
  every.it_value = every.it_interval;
  setitimer(ITIMER_PROF, &every, nullptr);
}

__attribute__((destructor)) void prof_stop() {
  if (g_slots == nullptr) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  write_profile();
}

}  // namespace
