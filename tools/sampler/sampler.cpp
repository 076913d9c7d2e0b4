// SIGPROF program-counter sampler, loaded into any binary with LD_PRELOAD.
//
//   cmake --build build --target myri_sampler   # build/libmyri_sampler.so
//   SAMPLER_OUT=prof LD_PRELOAD=$PWD/build/libmyri_sampler.so ./perfbench ...
//   python3 tools/sampler/resolve.py prof.<pid>
//
// ITIMER_PROF asks for a signal every millisecond of CPU time; the kernel
// delivers at most one per scheduler tick, so a 250 Hz kernel gives about
// 250 samples per CPU second. The handler stores the interrupted
// instruction's address. At exit the sampler writes every executable
// segment of every loaded object ("obj <lo> <hi> <load bias> <path>") and
// then one sampled address per line to $SAMPLER_OUT.<pid>. Sampling costs
// nothing per call, unlike -pg's mcount hook, so small hot functions are
// not inflated.
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 21;
constexpr long kIntervalUs = 1000;
std::uintptr_t g_pcs[kMaxSamples];
volatile std::size_t g_count = 0;

void on_prof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  if (g_count < kMaxSamples) {
    g_pcs[g_count] =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    g_count = g_count + 1;
  }
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
    std::fprintf(out, "%lx\n", static_cast<unsigned long>(g_pcs[i]));
  }
  std::fclose(out);
}

}  // namespace
