#include "common.hpp"

#include <cstdio>
#include <cstring>

#include "net/packet.hpp"

namespace perfbench {

std::uint64_t proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::strtoull(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

namespace {

// Sum of the registry counter "node<i>.<suffix>" over `nodes` nodes.
std::uint64_t sum_node_counter(const myri::metrics::Registry& reg, int nodes,
                               const std::string& suffix) {
  std::uint64_t sum = 0;
  for (int i = 0; i < nodes; ++i) {
    const auto* c = reg.find_counter("node" + std::to_string(i) + "." + suffix);
    if (c != nullptr) sum += c->value();
  }
  return sum;
}

// Sum of a counter over every switch ("switch.<name>.<what>") or link
// ("link.<name>.<what>") of the cluster's topology.
std::uint64_t sum_switch_counter(myri::gm::Cluster& c,
                                 const std::string& what) {
  std::uint64_t sum = 0;
  auto& topo = c.topo();
  for (std::size_t s = 0; s < topo.num_switches(); ++s) {
    const auto& name = topo.get_switch(static_cast<std::uint16_t>(s)).name();
    const auto* k = c.metrics().find_counter("switch." + name + "." + what);
    if (k != nullptr) sum += k->value();
  }
  return sum;
}

std::uint64_t sum_link_counter(myri::gm::Cluster& c, const std::string& what) {
  std::uint64_t sum = 0;
  for (const auto* link : c.topo().links()) {
    const auto* k = c.metrics().find_counter("link." + link->name() + "." + what);
    if (k != nullptr) sum += k->value();
  }
  return sum;
}

}  // namespace

LayerCounts read_counts(myri::gm::Cluster& c, int nodes,
                        const std::vector<int>& ports) {
  const auto& reg = c.metrics();
  LayerCounts k;
  k.l_timer_runs = sum_node_counter(reg, nodes, "mcp.l_timer_runs");
  k.busy_ns = sum_node_counter(reg, nodes, "mcp.busy_ns");
  k.fragments = sum_node_counter(reg, nodes, "mcp.fragments_tx");
  k.acks = sum_node_counter(reg, nodes, "mcp.acks_tx");
  k.nacks = sum_node_counter(reg, nodes, "mcp.nacks_tx");
  k.retransmissions = sum_node_counter(reg, nodes, "mcp.retransmissions");
  for (const int p : ports) {
    const std::string port = "port" + std::to_string(p) + ".";
    k.send_cpu_ns += sum_node_counter(reg, nodes, port + "send_cpu_ns");
    k.recv_cpu_ns += sum_node_counter(reg, nodes, port + "recv_cpu_ns");
    k.sends_posted += sum_node_counter(reg, nodes, port + "sends_posted");
    k.msgs_received += sum_node_counter(reg, nodes, port + "msgs_received");
  }
  k.forwarded = sum_switch_counter(c, "forwarded");
  k.stalls = sum_switch_counter(c, "backpressure_stalls");
  k.dropped = sum_link_counter(c, "dropped");
  return k;
}

void add_counts(Outcome& out, const LayerCounts& k, double msgs,
                double virtual_s) {
  auto per = [](std::uint64_t n, double d) {
    return d > 0 ? static_cast<double>(n) / d : 0.0;
  };
  // Data-path packets put on the wire: fragments (with retransmissions)
  // and the acknowledgements they drew.
  const double packets = static_cast<double>(k.fragments + k.acks + k.nacks);
  out.add("mcp.l_timer_runs_per_vs", per(k.l_timer_runs, virtual_s), "1/s");
  out.add("mcp.busy_us_per_msg", per(k.busy_ns, msgs) / 1000.0, "virtual_us");
  out.add("mcp.fragments_per_msg", per(k.fragments, msgs), "count");
  out.add("mcp.acks_per_msg", per(k.acks, msgs), "count");
  out.add("mcp.retransmissions", static_cast<double>(k.retransmissions),
          "count");
  out.add("host.send_cpu_us_per_msg",
          per(k.send_cpu_ns, static_cast<double>(k.sends_posted)) / 1000.0,
          "virtual_us");
  out.add("host.recv_cpu_us_per_msg",
          per(k.recv_cpu_ns, static_cast<double>(k.msgs_received)) / 1000.0,
          "virtual_us");
  out.add("net.switch_hops_per_packet", per(k.forwarded, packets), "count");
  out.add("net.dropped", static_cast<double>(k.dropped), "count");
  out.add("net.backpressure_stalls_per_packet", per(k.stalls, packets),
          "count");
}

std::vector<double> timed_setups(int n, std::int64_t first_start,
                                 const std::function<void()>& teardown,
                                 const std::function<void()>& setup) {
  std::vector<double> s;
  for (int k = 0; k < n; ++k) {
    teardown();
    const std::int64_t t0 = k == 0 ? first_start : wall_ns();
    setup();
    s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  return s;
}

Slices run_slices(myri::gm::Cluster& c, myri::sim::Time len, int core,
                  double seconds, SpanRecorder* rec,
                  const std::function<void(int, SpanRecorder*)>& before_slice,
                  const std::function<void()>& at_core_end) {
  Slices s;
  const std::int64_t m0 = wall_ns();
  for (int i = 0;; ++i) {
    SpanRecorder* r = (rec != nullptr && i % 2 == 1) ? rec : nullptr;
    before_slice(i, r);
    const std::uint64_t e0 = c.eq().executed();
    const std::int64_t w0 = wall_ns();
    {
      SpanRecorder::Scope span(r, "sim.run_for");
      c.run_for(len);
    }
    const std::int64_t w1 = wall_ns();
    const double w = static_cast<double>(w1 - w0) / 1e9;
    const double rate = myri::sim::to_sec(len) / w;
    if (r != nullptr) {
      s.traced_rate.push_back(rate);
      s.traced_wall_s += w;
    } else {
      s.untraced_rate.push_back(rate);
      s.untraced_wall_s += w;
      s.untraced_events += c.eq().executed() - e0;
    }
    if (i + 1 == core) {
      s.core_wall_s = static_cast<double>(w1 - m0) / 1e9;
      at_core_end();
    }
    if (i + 1 >= core && static_cast<double>(w1 - m0) / 1e9 >= seconds) break;
  }
  return s;
}

void note_rates(Outcome& out, const char* unit,
                const std::vector<double>& rates) {
  char buf[200];
  if (rates.size() < 2) {
    std::snprintf(buf, sizeof buf, "virtual_per_wall over 1 untraced %s: %.6g",
                  unit, rates.at(0));
  } else {
    const Quartiles q = quartiles(rates);
    std::snprintf(buf, sizeof buf,
                  "virtual_per_wall over %zu untraced %ss: q1 %.6g, median "
                  "%.6g, q3 %.6g (spread %.1f%%), p90 %.6g",
                  rates.size(), unit, q.q1, q.q2, q.q3,
                  100.0 * q.relative_spread(), fast_rate(rates));
  }
  out.note(buf);
}

void add_slice_metrics(Outcome& out, const Slices& s, const SpanRecorder* rec) {
  out.add("virtual_per_wall", fast_rate(s.untraced_rate), "s/s");
  note_rates(out, "slice", s.untraced_rate);
  out.add("sim.wall_ns_per_event",
          s.untraced_wall_s * 1e9 / static_cast<double>(s.untraced_events),
          "ns");
  if (rec == nullptr) return;
  out.add("bench.trace_overhead",
          1.0 - fast_rate(s.traced_rate) / fast_rate(s.untraced_rate), "ratio");
  const auto post = rec->wall("gm.post");
  out.add("gm.post_wall_ns",
          post.count == 0 ? 0.0
                          : static_cast<double>(post.self_ns) /
                                static_cast<double>(post.count),
          "ns");
  const auto recv = rec->wall("bench.recv_handler");
  const auto sent = rec->wall("bench.send_callback");
  out.add("gm.handler_wall_share",
          static_cast<double>(recv.total_ns + sent.total_ns) /
              (s.traced_wall_s * 1e9),
          "ratio");
}

double pooled_hist_mean_us(const myri::metrics::Registry& reg,
                           const std::string& suffix) {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  for (const auto& [name, h] : reg.histograms()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      count += h.count();
      sum += h.sum();
    }
  }
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count) /
                          1000.0;
}

double crc_ns_per_packet(std::uint32_t payload) {
  myri::net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.msg_len = payload;
  p.payload.resize(payload);
  for (std::uint32_t i = 0; i < payload; ++i) {
    p.payload[i] = static_cast<std::byte>(i * 37 + 11);
  }
  constexpr int kBatch = 2000;
  std::vector<double> per_packet;
  std::uint32_t sink = 0;
  for (int round = 0; round < 9; ++round) {
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < kBatch; ++i) {
      p.seq = static_cast<std::uint32_t>(i);  // defeat hoisting
      p.seal();
      sink ^= p.crc;
    }
    per_packet.push_back(static_cast<double>(wall_ns() - t0) / kBatch);
  }
  volatile std::uint32_t keep = sink;
  (void)keep;
  return median(per_packet);
}

}  // namespace perfbench
