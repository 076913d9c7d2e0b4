// SIGPROF sampler, loaded into any binary with LD_PRELOAD.
//
//   cmake --build build --target myri_sampler   # build/libmyri_sampler.so
//   SAMPLER_OUT=prof LD_PRELOAD=$PWD/build/libmyri_sampler.so ./perfbench ...
//   python3 tools/sampler/resolve.py prof.<pid>
//
// ITIMER_PROF asks for a signal every millisecond of CPU time; the kernel
// delivers at most one per scheduler tick, so a 250 Hz kernel gives about
// 250 samples per CPU second. The handler stores the interrupted
// instruction's address and the return addresses of up to kCallers of its
// callers, read with glibc's backtrace() through the signal frame. At exit
// the sampler writes every executable segment of every loaded object
// ("obj <lo> <hi> <load bias> <path>") and then one sample per line to
// $SAMPLER_OUT.<pid>: the sampled address, then its callers, innermost
// first. Sampling costs nothing per call, unlike -pg's mcount hook, so
// small hot functions are not inflated.
//
// backtrace() loads the unwinder (and allocates) on its first call, which
// a signal handler must not do: the constructor calls it once before the
// timer starts. A chain stops early where the unwinder finds no frame
// information (code built without unwind tables).
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 18;
constexpr int kCallers = 8;           // callers kept per sample
constexpr int kSkipMax = 4;           // handler and signal frames to skip
constexpr int kStride = 1 + kCallers;  // sampled pc, then its callers
constexpr long kIntervalUs = 1000;
std::uintptr_t g_samples[kMaxSamples * kStride];
volatile std::size_t g_count = 0;

void on_prof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const std::size_t n = g_count;
  if (n >= kMaxSamples) return;
  std::uintptr_t* out = g_samples + n * kStride;
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  out[0] = pc;
  // The chain starts in this handler and crosses the kernel's signal
  // frame; the interrupted function's frame is the one at `pc`.
  void* frames[kSkipMax + 1 + kCallers];
  const int got = backtrace(frames, kSkipMax + 1 + kCallers);
  int at = 0;
  while (at < got && at <= kSkipMax &&
         reinterpret_cast<std::uintptr_t>(frames[at]) != pc) {
    ++at;
  }
  for (int i = 0; i < kCallers; ++i) {
    const int f = at + 1 + i;
    out[1 + i] = at <= kSkipMax && f < got
                     ? reinterpret_cast<std::uintptr_t>(frames[f])
                     : 0;
  }
  g_count = n + 1;
}

int write_object(dl_phdr_info* info, std::size_t, void* out) {
  char exe[4096] = {};
  const char* path = info->dlpi_name;
  if (path == nullptr || path[0] == '\0') {
    if (readlink("/proc/self/exe", exe, sizeof(exe) - 1) < 0) return 0;
    path = exe;
  }
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    std::fprintf(static_cast<std::FILE*>(out), "obj %lx %lx %lx %s\n",
                 static_cast<unsigned long>(lo),
                 static_cast<unsigned long>(lo + ph.p_memsz),
                 static_cast<unsigned long>(info->dlpi_addr), path);
  }
  return 0;
}

__attribute__((constructor)) void start() {
  void* warm[kStride];
  backtrace(warm, kStride);  // load the unwinder outside the handler
  struct sigaction sa = {};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, nullptr);
  itimerval it = {};
  it.it_interval.tv_usec = kIntervalUs;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, nullptr);
}

__attribute__((destructor)) void stop() {
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  const char* base = std::getenv("SAMPLER_OUT");
  char name[4096];
  std::snprintf(name, sizeof(name), "%s.%d", base != nullptr ? base : "sampler",
                static_cast<int>(getpid()));
  std::FILE* out = std::fopen(name, "w");
  if (out == nullptr) return;
  dl_iterate_phdr(write_object, out);
  for (std::size_t i = 0; i < g_count; ++i) {
    const std::uintptr_t* s = g_samples + i * kStride;
    std::fprintf(out, "%lx", static_cast<unsigned long>(s[0]));
    for (int k = 1; k < kStride && s[k] != 0; ++k) {
      std::fprintf(out, " %lx", static_cast<unsigned long>(s[k]));
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
