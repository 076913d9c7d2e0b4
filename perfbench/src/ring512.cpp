// ring512: the data path under load on a 512-node 3-level fat-tree.
//
// Every node keeps a window of 1 KiB messages in flight to a partner in
// another pod (node i -> (i + shift) mod 512, shift in [64, 448] drawn
// from the seed, so each message climbs edge -> agg -> core and back
// down: five switch hops), starting at a seeded offset. FTGM, routes installed directly, no faults:
// the mapper, FTD and oracle do no work, and the timeline is dense.
//
// Measured region: run_for slices of 100 us. The first kCoreSlices are the
// deterministic core: latency samples, goodput, the delivery-log digest
// and every per-layer count come from it, so they are identical for a
// seed whatever the host's speed. Slices continue past the core until
// --seconds of wall time have gone. The run then stops posting, drains,
// and checks that every posted message arrived exactly once, in order,
// with the right bytes.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using myri::sim::Time;
namespace sim = myri::sim;
namespace gm = myri::gm;

constexpr int kNodes = 512;
constexpr std::uint8_t kRadix = 16;
constexpr int kHalf = kRadix / 2;
constexpr int kPodSize = kHalf * kHalf;
constexpr std::uint32_t kMsgLen = 1024;
constexpr std::uint32_t kHeader = 8;  // seq (4 bytes), source node (2), pad
constexpr int kWindow = 4;            // messages in flight per sender
constexpr int kRecvBuffers = 16;      // = the port's receive tokens
constexpr std::uint8_t kTxPort = 2;
constexpr std::uint8_t kRxPort = 3;
constexpr Time kSlice = sim::usec(100);
constexpr int kCoreSlices = 40;
constexpr Time kStartJitter = sim::usec(20);
constexpr int kSetups = 3;
constexpr int kPostRing = 64;  // post-time slots per stream (power of 2)

class Ring {
 public:
  Ring(const Options& opt, Outcome& out) : opt_(opt), out_(out) {
    shift_ = kPodSize + static_cast<int>(mix_seed(opt.seed, 1) %
                                         (kNodes - 2 * kPodSize + 1));
    std::uint64_t x = mix_seed(opt.seed, 2);
    for (auto& b : pattern_) {
      x = mix_seed(x, 3);
      b = static_cast<std::byte>(x & 0xff);
    }
  }

  void run(std::int64_t process_start, std::uint64_t rss_floor_kb) {
    SpanRecorder* rec = opt_.trace ? &rec_ : nullptr;
    const double setup_s = median(timed_setups(
        kSetups, process_start, [this] { cluster_.reset(); },
        [this, rec] { setup(rec); }));
    const std::uint64_t rss_built_kb = proc_status_kb("VmRSS");

    gm::Cluster& c = *cluster_;
    core_start_ = c.eq().now();
    core_end_ = core_start_ + kCoreSlices * kSlice;
    const std::uint64_t ev0 = c.eq().executed();
    // Nodes start their windows at seeded offsets within kStartJitter, not
    // in lockstep.
    for (int i = 0; i < kNodes; ++i) {
      const Time at = mix_seed(opt_.seed, 1000 + static_cast<std::uint64_t>(i)) %
                      kStartJitter;
      c.eq().schedule_after(at, [this, i] {
        for (int k = 0; k < kWindow; ++k) post(i, k);
      });
    }
    std::uint64_t core_events = 0;
    LayerCounts counts;
    const Slices slices = run_slices(
        c, kSlice, kCoreSlices, opt_.seconds, rec,
        [this](int, SpanRecorder* r) { trace_ = r; },
        [&] {
          core_events = c.eq().executed() - ev0;
          counts = read_counts(c, kNodes, {kTxPort, kRxPort});
        });
    trace_ = nullptr;
    drain(c);

    const double core_vs = sim::to_sec(core_end_ - core_start_);
    const double msgs = static_cast<double>(core_msgs_);
    out_.add("setup_s", setup_s, "s");
    add_slice_metrics(out_, slices, rec);
    out_.add("goodput_mb_s", static_cast<double>(core_msgs_ * kMsgLen) / core_vs / 1e6,
             "MB/s");
    add_latency(out_, lat_);
    out_.add("peak_rss_mb",
             static_cast<double>(proc_status_kb("VmHWM")) / 1024.0, "MiB");

    out_.add("sim.events", static_cast<double>(core_events), "count");
    out_.add("sim.events_per_delivery", static_cast<double>(core_events) / msgs,
             "count");
    add_counts(out_, counts, msgs, core_vs);
    out_.add("host.rss_kb_per_node",
             static_cast<double>(rss_built_kb - rss_floor_kb) / kNodes, "KiB");
    out_.add("gm.cluster_build_s", median(build_s_), "s");
    out_.add("gm.warmup_s", median(warmup_s_), "s");
    out_.add("gm.post_retries",
             static_cast<double>(post_retries_) / static_cast<double>(posted_),
             "count");
    const double crc_ns = crc_ns_per_packet(kMsgLen);
    out_.add("net.crc_ns_per_packet", crc_ns, "ns");
    // Each data fragment is sealed by the sending NIC and checked by the
    // receiving one: two CRC passes per fragment over the core's wall time.
    out_.add("net.crc_share",
             crc_ns * 2.0 * static_cast<double>(counts.fragments) /
                 (slices.core_wall_s * 1e9),
             "ratio");
    out_.note("ring512: shift " + std::to_string(shift_) + "; " +
              std::to_string(core_msgs_) + " messages in the core (" +
              std::to_string(kCoreSlices) + " slices of " +
              std::to_string(kSlice / 1000) + " us), " +
              std::to_string(posted_) + " posted in all");
    out_.note("ring512: delivery digest " + hex(digest_.value()));
    check_pinned(out_, "ring512", opt_.seed, digest_.value());
  }

  SpanRecorder& recorder() { return rec_; }

 private:
  struct Sender {
    gm::Port* port = nullptr;
    myri::net::NodeId dst = 0;
    std::array<gm::Buffer, kWindow> bufs{};
    std::uint32_t next_seq = 0;
    int in_flight = 0;
  };
  // Receive side of the stream into one node (each node has one sender).
  struct Stream {
    std::uint32_t expected = 0;  // next sequence number due
    std::array<Time, kPostRing> posted_at{};
    std::array<std::uint32_t, kPostRing> posted_seq{};
  };

  void setup(SpanRecorder* rec) {
    {
      SpanRecorder::Scope s(rec, "gm.cluster_build");
      const std::int64_t b0 = wall_ns();
      gm::ClusterConfig cc;
      cc.nodes = kNodes;
      cc.fabric = myri::net::FabricPreset::kFatTree3;
      cc.switch_ports = kRadix;
      cc.mode = myri::mcp::McpMode::kFtgm;
      cc.seed = mix_seed(opt_.seed, 0);
      cluster_ = std::make_unique<gm::Cluster>(cc);
      senders_.assign(kNodes, Sender{});
      streams_.assign(kNodes, Stream{});
      for (int i = 0; i < kNodes; ++i) {
        gm::Node& n = cluster_->node(i);
        Sender& s = senders_[static_cast<std::size_t>(i)];
        s.port = &n.open_port(kTxPort);
        s.dst = static_cast<myri::net::NodeId>((i + shift_) % kNodes);
        for (auto& b : s.bufs) b = s.port->alloc_dma_buffer(kMsgLen);
        gm::Port& rx = n.open_port(kRxPort);
        for (int k = 0; k < kRecvBuffers; ++k) {
          (void)rx.provide_receive_buffer(rx.alloc_dma_buffer(kMsgLen));
        }
        rx.set_receive_handler(
            [this, &rx](const gm::RecvInfo& info) { on_receive(rx, info); });
      }
      for (int i = 0; i < kNodes; ++i) {
        const int j = (i + shift_) % kNodes;
        install_spread_route(i, j);
        install_spread_route(j, i);  // the ACK path back
      }
      build_s_.push_back(static_cast<double>(wall_ns() - b0) / 1e9);
    }
    SpanRecorder::Scope s(rec, "gm.warmup");
    const std::int64_t w0 = wall_ns();
    cluster_->run_for(sim::usec(900));
    warmup_s_.push_back(static_cast<double>(wall_ns() - w0) / 1e9);
  }

  // The pristine routes are shortest-path BFS picks, which send every
  // cross-pod packet through the same first agg and core switch. Spread
  // them the way fat-trees are routed in practice: host h on edge switch e
  // climbs to agg h and core (h, e), so the ring's flows get disjoint
  // spines.
  void install_spread_route(int from, int to) {
    auto route = cluster_->fabric().route(static_cast<myri::net::NodeId>(from),
                                          static_cast<myri::net::NodeId>(to));
    if (!route || route->size() != 5) {
      throw std::runtime_error("ring512: no 5-hop route " + std::to_string(from) +
                               " -> " + std::to_string(to));
    }
    (*route)[0] = static_cast<std::uint8_t>(kHalf + from % kHalf);
    (*route)[1] = static_cast<std::uint8_t>(kHalf + (from % kPodSize) / kHalf);
    cluster_->node(from).install_route(static_cast<myri::net::NodeId>(to),
                                       std::move(*route));
  }

  // Message (src, seq): header then 1016 bytes of the seeded pattern at an
  // offset that depends on both.
  [[nodiscard]] const std::byte* body(int src, std::uint32_t seq) const {
    const std::uint32_t off =
        (static_cast<std::uint32_t>(src) * 613u + seq * 97u) & 4095u;
    return pattern_.data() + off;
  }

  void post(int i, int slot) {
    if (!posting_) return;
    Sender& s = senders_[static_cast<std::size_t>(i)];
    const gm::Buffer& buf = s.bufs[static_cast<std::size_t>(slot)];
    const std::uint32_t seq = s.next_seq;
    const auto src16 = static_cast<std::uint16_t>(i);
    const auto bytes = s.port->node().memory().at(buf.addr, kMsgLen);
    std::memcpy(bytes.data(), &seq, 4);
    std::memcpy(bytes.data() + 4, &src16, 2);
    std::memcpy(bytes.data() + kHeader, body(i, seq), kMsgLen - kHeader);
    gm::Status st;
    {
      SpanRecorder::Scope sp(trace_, "gm.post");
      st = s.port->post(buf, kMsgLen,
                        {.dst = s.dst,
                         .dst_port = kRxPort,
                         .callback = [this, i, slot](bool ok) {
                           on_sent(i, slot, ok);
                         }});
    }
    if (!st) {
      // Refused (no token, recovering): retry shortly, counted per layer.
      ++post_retries_;
      cluster_->eq().schedule_after(sim::usec(10),
                                    [this, i, slot] { post(i, slot); });
      return;
    }
    Stream& rs = streams_[s.dst];
    rs.posted_at[seq % kPostRing] = cluster_->eq().now();
    rs.posted_seq[seq % kPostRing] = seq;
    ++s.next_seq;
    ++s.in_flight;
    ++posted_;
  }

  void on_sent(int i, int slot, bool ok) {
    SpanRecorder::Scope sp(trace_, "bench.send_callback");
    --senders_[static_cast<std::size_t>(i)].in_flight;
    if (!ok) out_.fail("ring512: send from node " + std::to_string(i) + " failed");
    post(i, slot);
  }

  void on_receive(gm::Port& rx, const gm::RecvInfo& info) {
    SpanRecorder::Scope sp(trace_, "bench.recv_handler");
    const Time now = cluster_->eq().now();
    const int dst = rx.node().id();
    const int src = info.src;
    const auto bytes = rx.node().memory().at(info.buffer.addr, info.len);
    Stream& rs = streams_[static_cast<std::size_t>(dst)];
    std::uint32_t seq = 0;
    std::uint16_t hdr_src = 0;
    bool ok = info.len == kMsgLen && bytes.size() == kMsgLen;
    if (ok) {
      std::memcpy(&seq, bytes.data(), 4);
      std::memcpy(&hdr_src, bytes.data() + 4, 2);
      ok = hdr_src == src && (src + shift_) % kNodes == dst &&
           seq == rs.expected && rs.posted_seq[seq % kPostRing] == seq &&
           std::memcmp(bytes.data() + kHeader, body(src, seq),
                       kMsgLen - kHeader) == 0;
    }
    if (!ok) {
      out_.fail("ring512: node " + std::to_string(dst) +
                " got a bad, duplicate or out-of-order message from node " +
                std::to_string(src) + " (seq " + std::to_string(seq) +
                ", expected " + std::to_string(rs.expected) + ")");
    } else {
      ++rs.expected;
      ++received_;
      // The core counts deliveries inside it: those depend on nothing that
      // happens later, so they repeat whatever the run's length.
      const Time posted = rs.posted_at[seq % kPostRing];
      if (now < core_end_) {
        lat_.push_back(now - posted);
        digest_.mix(static_cast<std::uint64_t>(src));
        digest_.mix(seq);
        digest_.mix(now);
        ++core_msgs_;
        if (trace_ != nullptr) {
          rec_.message("msg.post_to_recv",
                       (static_cast<std::uint64_t>(src) << 32) | seq, posted,
                       now);
        }
      }
    }
    (void)rx.provide_receive_buffer(info.buffer);
  }

  void drain(gm::Cluster& c) {
    posting_ = false;
    for (int k = 0; k < 20 && received_ != posted_; ++k) c.run_for(kSlice);
    out_.attempted = posted_;
    if (received_ != posted_) {
      out_.fail("ring512: " + std::to_string(posted_ - received_) +
                    " posted messages never arrived",
                posted_ - received_);
    }
  }

  const Options& opt_;
  Outcome& out_;
  int shift_ = kPodSize;
  std::array<std::byte, 4096 + kMsgLen> pattern_{};
  std::unique_ptr<gm::Cluster> cluster_;
  std::vector<Sender> senders_;
  std::vector<Stream> streams_;  // by receiving node
  std::vector<double> build_s_;
  std::vector<double> warmup_s_;
  SpanRecorder rec_;
  SpanRecorder* trace_ = nullptr;  // non-null while a traced slice runs
  bool posting_ = true;
  Time core_start_ = 0;
  Time core_end_ = 0;
  std::uint64_t core_msgs_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t post_retries_ = 0;
  std::vector<Time> lat_;
  Digest digest_;
};

}  // namespace

void run_ring512(const Options& opt, std::int64_t process_start, Outcome& out) {
  const std::uint64_t rss0 = proc_status_kb("VmRSS");
  Ring ring(opt, out);
  ring.run(process_start, rss0);
  if (opt.trace && !opt.spans_path.empty() &&
      !ring.recorder().write_json(opt.spans_path)) {
    out.fail("cannot write span file " + opt.spans_path);
  }
}

}  // namespace perfbench
