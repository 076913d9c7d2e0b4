// A small CPU-bound program for the sampler's smoke test
// (tools/sampler/smoke_test.py): main calls sampler_smoke_caller, which
// calls sampler_smoke_leaf, where nearly all the CPU time goes. Runs for
// about half a second of CPU time.
#include <chrono>
#include <cstdint>
#include <cstdio>

__attribute__((noinline)) std::uint64_t sampler_smoke_leaf(std::uint64_t x,
                                                           int rounds) {
  for (int i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));
  }
  return x;
}

__attribute__((noinline)) std::uint64_t sampler_smoke_caller(
    std::uint64_t x) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (std::chrono::steady_clock::now() < until) {
    x = sampler_smoke_leaf(x, 1 << 16);
  }
  asm volatile("" : "+r"(x));
  return x;
}

int main() {
  std::printf("%llx\n", static_cast<unsigned long long>(
                            sampler_smoke_caller(0x9E3779B97F4A7C15ull)));
  return 0;
}
