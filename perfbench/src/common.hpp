// Shared pieces of the three workloads: run options, the metric report,
// seed derivation, the delivery-log digest, and readers for the
// simulator's registry counters and the process's memory use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gm/cluster.hpp"
#include "metrics/registry.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // traced run only; empty = do not write
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds every end-to-end and
/// per-layer figure the run computed; the front end picks the set the
/// trace mode asks for.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed above the metric table

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed check: counts toward `failed` and explains why.
  void fail(const std::string& why, std::uint64_t n = 1) {
    correct = false;
    failed += n;
    notes.push_back("FAIL: " + why);
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
};

/// splitmix64: derives independent, reproducible sub-seeds from the
/// workload seed (cluster seed, partner shift, hang schedule, payloads).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a over 64-bit words: the delivery-log digest.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Reads a "<Key>: <n> kB" line of /proc/self/status (VmHWM, VmRSS); 0 if
/// absent.
std::uint64_t proc_status_kb(const char* key);

/// The layers' own counters, summed over the cluster at one instant.
struct LayerCounts {
  std::uint64_t l_timer_runs = 0;
  std::uint64_t busy_ns = 0;  // MCP busy time, virtual
  std::uint64_t fragments = 0;  // data fragments sent, retransmissions too
  std::uint64_t acks = 0;
  std::uint64_t nacks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t send_cpu_ns = 0;  // host CPU on the send path, virtual
  std::uint64_t recv_cpu_ns = 0;
  std::uint64_t sends_posted = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t forwarded = 0;  // switch hops taken
  std::uint64_t dropped = 0;    // packets lost on links
  std::uint64_t stalls = 0;     // switch backpressure stalls
};

/// Read LayerCounts from the registry; port counters are summed over the
/// port ids in `ports` on every node.
LayerCounts read_counts(myri::gm::Cluster& c, int nodes,
                        const std::vector<int>& ports);

/// The mcp.*, host.*_cpu_* and net.* per-layer metrics from counts taken
/// over `msgs` deliveries and `virtual_s` of simulated time.
void add_counts(Outcome& out, const LayerCounts& k, double msgs,
                double virtual_s);

/// setup_s samples: wall seconds of `n` calls of `setup`, each a fresh
/// cluster build plus warm-up (or scenario generation). `teardown`
/// (untimed) releases the previous one first. The first call is timed
/// from `first_start` (process start, for the first batch).
std::vector<double> timed_setups(int n, std::int64_t first_start,
                                 const std::function<void()>& teardown,
                                 const std::function<void()>& setup);

/// Wall-clock record of the measured region, slice by slice.
struct Slices {
  std::vector<double> untraced_rate;  // virtual s per wall s, per slice
  std::vector<double> traced_rate;
  double untraced_wall_s = 0;
  double traced_wall_s = 0;
  std::uint64_t untraced_events = 0;
  double core_wall_s = 0;  // wall time of the first `core` slices
};

/// The measured region: runs `c` in slices of `len` virtual time until
/// `core` slices are done and `seconds` of wall time have gone.
/// `before_slice(i, rec)` runs ahead of slice i with the recorder to use
/// (null = untraced): in a traced run odd slices are traced and even ones
/// are not, so tracing overhead is measured against interleaved untraced
/// slices. `at_core_end` runs right after slice `core - 1`.
Slices run_slices(myri::gm::Cluster& c, myri::sim::Time len, int core,
                  double seconds, SpanRecorder* rec,
                  const std::function<void(int, SpanRecorder*)>& before_slice,
                  const std::function<void()>& at_core_end);

/// A note of the untraced rates (virtual s per wall s, one per `unit`,
/// "slice" or "run"): their quartiles, spread and fast_rate.
void note_rates(Outcome& out, const char* unit,
                const std::vector<double>& rates);

/// virtual_per_wall (fast_rate) and sim.wall_ns_per_event from the
/// untraced slices, with note_rates;
/// in a traced run also bench.trace_overhead, gm.post_wall_ns (self time
/// of the "gm.post" spans) and gm.handler_wall_share (the benchmark's
/// receive/send handlers, posts included, over traced wall time).
void add_slice_metrics(Outcome& out, const Slices& s, const SpanRecorder* rec);

/// Mean, in microseconds, of every registry histogram whose name ends in
/// `suffix` (pooled across nodes/ports); 0 when none has samples.
double pooled_hist_mean_us(const myri::metrics::Registry& reg,
                           const std::string& suffix);

/// Wall nanoseconds per Packet::seal() on a data packet carrying
/// `payload` bytes: median of several timed batches.
double crc_ns_per_packet(std::uint32_t payload);

}  // namespace perfbench
