// The three workloads and the helpers their reports share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// Each runs one workload end to end and appends its metrics, notes and
/// correctness verdict to `out`. `process_start` is wall_ns() at main().
void run_ring512(const Options& opt, std::int64_t process_start, Outcome& out);
void run_pingpong2(const Options& opt, std::int64_t process_start, Outcome& out);
void run_soak64(const Options& opt, std::int64_t process_start, Outcome& out);

/// latency_p50_us / latency_p99_us (nearest rank, virtual us) plus a note
/// with the sample count and the highest percentile that still has ten
/// samples beyond it. Fails the run when there are too few samples for a
/// p99. Reorders `samples`.
void add_latency(Outcome& out, std::vector<myri::sim::Time>& samples);

/// Determinism guard: when (workload, seed) has a pinned digest, `digest`
/// must equal it; a mismatch means the simulated program changed.
void check_pinned(Outcome& out, const std::string& workload,
                  std::uint64_t seed, std::uint64_t digest);

std::string hex(std::uint64_t v);

}  // namespace perfbench
