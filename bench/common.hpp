// Shared measurement drivers for the benchmark binaries.
//
// Mirrors the paper's methodology (Section 5.1): latency is a repetitive
// ping-pong with one-way latency = half the mean round-trip time; bandwidth
// is the sustained bidirectional rate with both hosts sending at maximum
// speed (gm_allsize-style); host utilization is the CPU time charged per
// API call; LANai utilization is NIC-processor busy time per message.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "metrics/metrics.hpp"
#include "metrics/registry.hpp"

namespace myri::bench {

/// If MYRI_METRICS_JSON is set, write the registry snapshot there ("-"
/// for stdout) so a perf run leaves a machine-readable baseline behind.
inline void export_registry_json(const metrics::Registry& reg) {
  const char* path = std::getenv("MYRI_METRICS_JSON");
  if (path == nullptr) return;
  const std::string json = reg.to_json();
  if (std::string(path) == "-") {
    std::printf("%s\n", json.c_str());
    return;
  }
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("(metrics snapshot written to %s)\n", path);
  }
}

/// Environment override for run sizes: MYRI_BENCH_SCALE=0.1 shrinks
/// campaigns for quick smoke runs; default 1.0 reproduces the paper.
inline double scale() {
  const char* s = std::getenv("MYRI_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline int scaled(int n) {
  const int v = static_cast<int>(n * scale());
  return v < 1 ? 1 : v;
}

struct PingPongResult {
  metrics::LatencyRecorder half_rtt;  // one-way latency samples
  sim::Time lanai_busy_per_msg = 0;   // both NICs, per one-way message
};

/// Half-round-trip latency for `iters` ping-pong exchanges of `len` bytes.
/// Numbers are sourced from the cluster's metrics registry; pass `agg` to
/// accumulate the raw registry across invocations.
inline PingPongResult run_ping_pong(mcp::McpMode mode, std::uint32_t len,
                                    int iters,
                                    const gm::ClusterConfig& base = {},
                                    metrics::Registry* agg = nullptr) {
  gm::ClusterConfig cc = base;
  cc.nodes = 2;
  cc.mode = mode;
  gm::Cluster cluster(cc);
  auto& a = cluster.node(0).open_port(2);
  auto& b = cluster.node(1).open_port(2);
  cluster.run_for(sim::usec(900));

  const std::uint32_t buf_len = len == 0 ? 4 : len;
  gm::Buffer abuf = a.alloc_dma_buffer(buf_len);
  gm::Buffer bbuf = b.alloc_dma_buffer(buf_len);
  for (int i = 0; i < 4; ++i) {
    a.provide_receive_buffer(a.alloc_dma_buffer(buf_len));
    b.provide_receive_buffer(b.alloc_dma_buffer(buf_len));
  }

  PingPongResult res;
  int remaining = iters;
  sim::Time t0 = 0;

  // Pong side: echo every message straight back.
  b.set_receive_handler([&](const gm::RecvInfo& info) {
    b.provide_receive_buffer(info.buffer);
    (void)b.post(bbuf, len, {.dst = 0, .dst_port = 2});
  });
  // Ping side: timestamp, record, fire the next iteration. Samples land
  // both in the exact recorder (fig8 percentiles) and in the registry
  // histogram, which is what aggregated reports read.
  metrics::Histogram& rtt_hist =
      cluster.metrics().histogram("bench.half_rtt_ns");
  a.set_receive_handler([&](const gm::RecvInfo& info) {
    a.provide_receive_buffer(info.buffer);
    const sim::Time half = (cluster.eq().now() - t0) / 2;
    res.half_rtt.add(half);
    rtt_hist.add(half);
    if (--remaining > 0) {
      t0 = cluster.eq().now();
      (void)a.post(abuf, len, {.dst = 1, .dst_port = 2});
    }
  });

  // Read through metrics() each time: it brings the cards' L_timer
  // accounting up to the read instant.
  const auto lanai_busy = [&] {
    metrics::Registry& reg = cluster.metrics();
    return reg.counter("node0.mcp.busy_ns").value() +
           reg.counter("node1.mcp.busy_ns").value();
  };
  const std::uint64_t busy_before = lanai_busy();
  t0 = cluster.eq().now();
  (void)a.post(abuf, len, {.dst = 1, .dst_port = 2});
  cluster.run_for(sim::msec(10) + sim::Time(iters) * sim::usec(200));

  const std::uint64_t busy_after = lanai_busy();
  const std::uint64_t msgs = 2ull * static_cast<std::uint64_t>(
                                 res.half_rtt.count());
  if (msgs > 0) res.lanai_busy_per_msg = (busy_after - busy_before) / msgs;
  if (agg != nullptr) agg->merge(cluster.metrics());
  return res;
}

struct BandwidthResult {
  double mb_per_s = 0;        // per-direction sustained rate
  double lanai_busy_frac = 0; // NIC occupancy during the run
};

/// Sustained bidirectional data rate for message length `len`
/// (both hosts send `msgs` messages as fast as tokens allow). Byte counts
/// come from the receiver port's registry counter, which (being fed by
/// delivered messages only) never includes dropped traffic.
inline BandwidthResult run_bandwidth_bidir(mcp::McpMode mode,
                                           std::uint32_t len, int msgs,
                                           const gm::ClusterConfig& base = {},
                                           metrics::Registry* agg = nullptr) {
  if (msgs < 6) msgs = 6;  // rate needs a window past pipeline fill
  gm::ClusterConfig cc = base;
  cc.nodes = 2;
  cc.mode = mode;
  cc.host_mem_bytes = 48u << 20;
  gm::Cluster cluster(cc);
  auto& a = cluster.node(0).open_port(2);
  auto& b = cluster.node(1).open_port(2);

  fi::StreamWorkload::Config wc;
  wc.total_msgs = msgs;
  wc.msg_len = len;
  wc.recv_buffers = 12;
  wc.max_in_flight = 12;
  fi::StreamWorkload ab(a, b, wc);
  fi::StreamWorkload ba(b, a, wc);
  cluster.run_for(sim::usec(900));

  // Timestamps of deliveries in the a->b direction; bytes are read from
  // the receiving port's registry counter.
  sim::Time first = 0, last = 0;
  b.set_receive_handler([&](const gm::RecvInfo& info) {
    if (first == 0) first = cluster.eq().now();
    last = cluster.eq().now();
    b.provide_receive_buffer(info.buffer);
  });
  // NOTE: StreamWorkload::start() installs its own handler; install ours
  // after start() so measurement wins but re-providing still happens here.
  ab.start();
  ba.start();
  b.set_receive_handler([&](const gm::RecvInfo& info) {
    if (first == 0) first = cluster.eq().now();
    last = cluster.eq().now();
    b.provide_receive_buffer(info.buffer);
  });

  const metrics::Counter& rx_bytes =
      cluster.metrics().counter("node1.port2.bytes_received");
  const auto busy_ns = [&] {
    return cluster.metrics().counter("node0.mcp.busy_ns").value();
  };
  const std::uint64_t bytes_before = rx_bytes.value();
  const std::uint64_t busy0 = busy_ns();
  const sim::Time t_start = cluster.eq().now();
  // Enough time for the slowest size; loop in chunks with early exit.
  for (int i = 0; i < 400; ++i) {
    cluster.run_for(sim::msec(5));
    if (ab.received() >= msgs && ba.received() >= msgs) break;
  }
  BandwidthResult res;
  const std::uint64_t bytes = rx_bytes.value() - bytes_before;
  if (last > first && bytes > 0) {
    // Skip the first delivery (pipeline fill) when computing the rate.
    res.mb_per_s = metrics::bandwidth_mb_per_s(bytes, first, last);
  }
  const sim::Time elapsed = cluster.eq().now() - t_start;
  if (elapsed > 0) {
    res.lanai_busy_frac = static_cast<double>(busy_ns() - busy0) /
                          static_cast<double>(elapsed);
  }
  if (agg != nullptr) agg->merge(cluster.metrics());
  return res;
}

/// Unidirectional run capturing host utilization per message.
struct HostUtilResult {
  double send_us_per_msg = 0;
  double recv_us_per_msg = 0;
  double lanai_us_per_msg = 0;
};

inline HostUtilResult run_host_util(mcp::McpMode mode, std::uint32_t len,
                                    int msgs,
                                    metrics::Registry* agg = nullptr) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mode;
  gm::Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = msgs;
  wc.msg_len = len;
  fi::StreamWorkload wl(tx, rx, wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  for (int i = 0; i < 100 && !wl.complete(); ++i) {
    cluster.run_for(sim::msec(2));
  }
  HostUtilResult r;
  if (wl.complete()) {
    metrics::Registry& reg = cluster.metrics();
    r.send_us_per_msg =
        sim::to_usec(reg.counter("node0.port2.send_cpu_ns").value()) / msgs;
    r.recv_us_per_msg =
        sim::to_usec(reg.counter("node1.port3.recv_cpu_ns").value()) / msgs;
    r.lanai_us_per_msg =
        sim::to_usec(reg.counter("node0.mcp.busy_ns").value() +
                     reg.counter("node1.mcp.busy_ns").value()) /
        msgs;
  }
  if (agg != nullptr) agg->merge(cluster.metrics());
  return r;
}

inline void print_header(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace myri::bench
