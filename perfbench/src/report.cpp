// Report helpers shared by the workloads: latency percentiles and the
// pinned-digest determinism guard.
#include <cstdio>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Pinned {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Delivery-log digests (soak64: the RunReport digest) of the pinned seed
// 2026 and the held-out seed 7. A change to the simulated program moves
// them; a pure speed-up must not. Re-pin only with the per-event diff
// that explains the change.
constexpr Pinned kPinned[] = {
    {"ring512", 2026, 0x29911dc82e6fcb1full},
    {"ring512", 7, 0x89906cbb148d66afull},
    {"pingpong2", 2026, 0xe892ece56ddf675full},
    {"pingpong2", 7, 0x5b615e76fe34708full},
    {"soak64", 2026, 0xd6ea9e2b8dd34998ull},
    {"soak64", 7, 0x235ec228d435cca1ull},
};

}  // namespace

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void add_latency(Outcome& out, std::vector<myri::sim::Time>& samples) {
  const std::size_t n = samples.size();
  if (n == 0 || samples_beyond(99.0, n) < 10) {
    out.fail("only " + std::to_string(n) + " latency samples, too few for a p99");
    out.add("latency_p50_us", 0, "virtual_us");
    out.add("latency_p99_us", 0, "virtual_us");
    return;
  }
  const double p50 = myri::sim::to_usec(nearest_rank(samples, 50.0));
  const double p99 = myri::sim::to_usec(nearest_rank(samples, 99.0));
  out.add("latency_p50_us", p50, "virtual_us");
  out.add("latency_p99_us", p99, "virtual_us");
  out.add("latency_samples", static_cast<double>(n), "count");
  const auto tail = tail_percentile(n);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "latency: p50 %.3f us, p99 %.3f us over %zu samples; tail p%g "
                "%.3f us (%zu samples beyond)",
                p50, p99, n, *tail,
                myri::sim::to_usec(nearest_rank(samples, *tail)),
                samples_beyond(*tail, n));
  out.note(buf);
}

void check_pinned(Outcome& out, const std::string& workload,
                  std::uint64_t seed, std::uint64_t digest) {
  for (const Pinned& p : kPinned) {
    if (workload != p.workload || seed != p.seed) continue;
    if (p.digest != digest) {
      out.fail(workload + " seed " + std::to_string(seed) + ": digest " +
               hex(digest) + " differs from the pinned " + hex(p.digest) +
               " (the simulated program changed)");
    } else {
      out.note(workload + ": digest matches the pinned value");
    }
    return;
  }
  out.note(workload + ": no pinned digest for seed " + std::to_string(seed));
}

}  // namespace perfbench
