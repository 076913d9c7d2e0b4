// pingpong2: the paper's testbed, two FTGM nodes on one switch.
//
// A one-outstanding ping-pong whose payload cycles through 1/25/50/75/100
// bytes (Fig 8's short-message range): node 0 posts a ping, node 1's
// receive handler echoes the same bytes back, node 0 checks them and posts
// the next ping. Half the round trip is the latency sample. NIC hangs hit
// alternating nodes, one per period, late enough in the period for the
// previous recovery (~1.7 s, Table 3) to have finished; the time from
// injection to the victim port's set_on_recovered callback is the
// recovery sample. Round trips that overlap a hang are not latency
// samples.
//
// Measured region: slices of one period, so every slice holds one hang
// and slices cost the same. The first kCoreSlices are the deterministic
// core (latency and recovery samples, digest, per-layer counts); slices
// continue until --seconds have gone, and virtual_per_wall is fast_rate
// over slices.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using myri::sim::Time;
namespace sim = myri::sim;
namespace gm = myri::gm;

constexpr std::array<std::uint32_t, 5> kSizes = {1, 25, 50, 75, 100};
constexpr std::uint32_t kMaxLen = 100;
constexpr std::uint8_t kPort = 2;
constexpr int kRecvBuffers = 4;
constexpr Time kPeriod = sim::msec(2500);
constexpr Time kHangEarliest = sim::msec(100);  // into the period
constexpr Time kHangSpread = sim::msec(200);
constexpr Time kRetry = sim::usec(100);  // back-off after a refused post
constexpr Time kSlice = kPeriod;  // one hang
constexpr int kCoreSlices = 4;    // two hangs on each node
constexpr int kFirstSetups = 26;  // before the measured region

class PingPong {
 public:
  PingPong(const Options& opt, Outcome& out) : opt_(opt), out_(out) {
    phase_ = static_cast<int>(mix_seed(opt.seed, 1) % kSizes.size());
    std::uint64_t x = mix_seed(opt.seed, 2);
    for (auto& b : pattern_) {
      x = mix_seed(x, 3);
      b = static_cast<std::byte>(x & 0xff);
    }
  }

  void run(std::int64_t process_start, std::uint64_t rss_floor_kb) {
    SpanRecorder* rec = opt_.trace ? &rec_ : nullptr;
    // A batch of set-ups before the measured region (the last one is the
    // cluster measured), then one throwaway set-up between consecutive
    // slices past the core, so the median samples the host's state over
    // the whole run and not in one or two bursts.
    std::vector<double> setups = timed_setups(
        kFirstSetups, process_start, [this] { cluster_.reset(); },
        [this, rec] { setup(rec); });
    const std::uint64_t rss_built_kb = proc_status_kb("VmRSS");
    gm::Cluster& c = *cluster_;
    core_start_ = c.eq().now();
    core_end_ = core_start_ + kCoreSlices * kSlice;
    const std::uint64_t ev0 = c.eq().executed();
    send_ping();

    std::uint64_t core_events = 0;
    std::uint64_t peak_rss_kb = 0;
    LayerCounts counts;
    std::vector<std::pair<std::string, double>> phases_us;
    const Slices slices = run_slices(
        c, kSlice, kCoreSlices, opt_.seconds, rec,
        [&](int slice, SpanRecorder* r) {
          if (slice >= kCoreSlices) {
            Outcome unused;
            PingPong probe(opt_, unused);
            const std::int64_t t0 = wall_ns();
            probe.setup(nullptr);
            setups.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
          }
          trace_ = r;
          schedule_hang(slice);
        },
        [&] {
          // Before the first throwaway set-up adds a second cluster.
          peak_rss_kb = proc_status_kb("VmHWM");
          core_events = c.eq().executed() - ev0;
          counts = read_counts(c, 2, {kPort});
          for (const char* ph : {"detect", "confirm", "reset", "reload", "restore"}) {
            phases_us.emplace_back(
                std::string("core.ftd_") + ph + "_us",
                pooled_hist_mean_us(c.metrics(),
                                    std::string(".ftd.recovery.") + ph + "_ns"));
          }
          phases_us.emplace_back(
              "gm.replay_us", pooled_hist_mean_us(c.metrics(), ".recovery.replay_ns"));
        });
    trace_ = nullptr;
    finish(c);

    const double core_vs = sim::to_sec(core_end_ - core_start_);
    const double msgs = static_cast<double>(core_msgs_);
    out_.add("setup_s", median(setups), "s");
    add_slice_metrics(out_, slices, rec);
    out_.add("goodput_mb_s", static_cast<double>(core_bytes_) / core_vs / 1e6,
             "MB/s");
    add_latency(out_, lat_);
    if (rec_ms_.empty()) {
      out_.fail("pingpong2: no recovery in the core");
    } else {
      out_.add("recovery_ms_p50", median(rec_ms_), "virtual_ms");
      out_.add("recoveries", static_cast<double>(rec_ms_.size()), "count");
      out_.note("recovery: p50 " + std::to_string(median(rec_ms_)) + " ms over " +
                std::to_string(rec_ms_.size()) + " hangs");
    }
    out_.add("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MiB");

    out_.add("sim.events", static_cast<double>(core_events), "count");
    out_.add("sim.events_per_delivery", static_cast<double>(core_events) / msgs,
             "count");
    add_counts(out_, counts, msgs, core_vs);
    for (const auto& [name, v] : phases_us) out_.add(name, v, "virtual_us");
    out_.add("host.rss_kb_per_node",
             static_cast<double>(rss_built_kb - rss_floor_kb) / 2.0, "KiB");
    out_.add("gm.cluster_build_s", median(build_s_), "s");
    out_.add("gm.warmup_s", median(warmup_s_), "s");
    out_.add("gm.post_retries",
             static_cast<double>(post_retries_) / static_cast<double>(posted_),
             "count");
    const double crc_ns = crc_ns_per_packet(kSizes[2]);
    out_.add("net.crc_ns_per_packet", crc_ns, "ns");
    out_.add("net.crc_share",
             crc_ns * 2.0 * static_cast<double>(counts.fragments) /
                 (slices.core_wall_s * 1e9),
             "ratio");
    out_.note("pingpong2: " + std::to_string(core_msgs_ / 2) +
              " round trips and " + std::to_string(rec_ms_.size()) +
              " hangs in the core; " + std::to_string(posted_) +
              " pings and " + std::to_string(hangs_.size()) + " hangs in all");
    out_.note("pingpong2: delivery digest " + hex(digest_.value()));
    check_pinned(out_, "pingpong2", opt_.seed, digest_.value());
  }

  SpanRecorder& recorder() { return rec_; }

 private:
  struct Hang {
    int victim = 0;
    Time injected = 0;
    Time recovered = 0;  // 0 while recovering
    int recoveries = 0;  // on_recovered callbacks seen for it
  };

  void setup(SpanRecorder* rec) {
    {
      SpanRecorder::Scope s(rec, "gm.cluster_build");
      const std::int64_t b0 = wall_ns();
      gm::ClusterConfig cc;
      cc.nodes = 2;
      cc.mode = myri::mcp::McpMode::kFtgm;
      cc.seed = mix_seed(opt_.seed, 0);
      cluster_ = std::make_unique<gm::Cluster>(cc);
      for (int i = 0; i < 2; ++i) {
        gm::Port& p = cluster_->node(i).open_port(kPort);
        port_[i] = &p;
        send_buf_[i] = p.alloc_dma_buffer(kMaxLen);
        for (int k = 0; k < kRecvBuffers; ++k) {
          (void)p.provide_receive_buffer(p.alloc_dma_buffer(kMaxLen));
        }
        p.set_receive_handler([this, i](const gm::RecvInfo& info) {
          if (i == 0) {
            on_pong(info);
          } else {
            on_ping(info);
          }
        });
        p.set_on_recovered([this, i] { on_recovered(i); });
      }
      build_s_.push_back(static_cast<double>(wall_ns() - b0) / 1e9);
    }
    SpanRecorder::Scope s(rec, "gm.warmup");
    const std::int64_t w0 = wall_ns();
    cluster_->run_for(sim::usec(900));
    warmup_s_.push_back(static_cast<double>(wall_ns() - w0) / 1e9);
  }

  [[nodiscard]] std::uint32_t size_of(std::uint32_t seq) const {
    return kSizes[(seq + static_cast<std::uint32_t>(phase_)) % kSizes.size()];
  }
  // Payload of ping `seq`: 4 header bytes (seq) then the seeded pattern.
  void fill(std::span<std::byte> dst, std::uint32_t seq) const {
    std::memcpy(dst.data(), pattern_.data() + seq % 64, dst.size());
    if (dst.size() >= 4) std::memcpy(dst.data(), &seq, 4);
  }
  [[nodiscard]] bool matches(std::span<const std::byte> got,
                             std::uint32_t seq) const {
    std::array<std::byte, kMaxLen> want{};
    fill(std::span(want.data(), got.size()), seq);
    return std::memcmp(want.data(), got.data(), got.size()) == 0;
  }

  void schedule_hang(int period) {
    const Time at = core_start_ + static_cast<Time>(period) * kPeriod +
                    kHangEarliest +
                    mix_seed(opt_.seed, 100 + static_cast<std::uint64_t>(period)) %
                        kHangSpread;
    const int victim = period % 2;
    cluster_->eq().schedule_at(at, [this, victim] {
      gm::Node& n = cluster_->node(victim);
      n.ftd().mark_fault_injected();
      n.mcp().inject_hang("perfbench");
      hangs_.push_back({victim, cluster_->eq().now(), 0, 0});
    });
  }

  void on_recovered(int node) {
    const Time now = cluster_->eq().now();
    auto it = std::find_if(hangs_.rbegin(), hangs_.rend(),
                           [node](const Hang& h) { return h.victim == node; });
    if (it == hangs_.rend() || it->recoveries > 0) {
      out_.fail("pingpong2: unexpected or repeated recovery on node " +
                std::to_string(node));
      return;
    }
    ++it->recoveries;
    it->recovered = now;
    const Time injected = cluster_->node(node).ftd().phases().fault_injected;
    if (injected != it->injected) {
      out_.fail("pingpong2: FTD phases disagree on the injection time");
    }
    if (now < core_end_) {
      rec_ms_.push_back(sim::to_msec(now - it->injected));
      digest_.mix(0xdead0000u + static_cast<std::uint64_t>(node));
      digest_.mix(now);
    }
  }

  // Was a NIC hung or recovering at any time from `from` until now? Hangs
  // never overlap, so only the latest one can be.
  [[nodiscard]] bool overlaps_hang(Time from) const {
    if (hangs_.empty()) return false;
    const Hang& h = hangs_.back();
    return h.recovered == 0 || h.recovered >= from;
  }

  void send_ping() {
    if (!pinging_) return;
    const std::uint32_t seq = next_ping_;
    const std::uint32_t len = size_of(seq);
    fill(cluster_->node(0).memory().at(send_buf_[0].addr, len), seq);
    if (!post(0, len)) return;
    ping_posted_at_ = cluster_->eq().now();
    ++next_ping_;
    ++posted_;
  }

  // Post `len` bytes of node `from`'s send buffer to the other node; a
  // refusal (recovering port) is retried on a timer.
  bool post(int from, std::uint32_t len) {
    gm::Status st;
    {
      SpanRecorder::Scope sp(trace_, "gm.post");
      st = port_[from]->post(send_buf_[from], len,
                             {.dst = static_cast<myri::net::NodeId>(1 - from),
                              .dst_port = kPort,
                              .callback = [this, from](bool ok) {
                                if (!ok) {
                                  out_.fail("pingpong2: send from node " +
                                            std::to_string(from) + " failed");
                                }
                              }});
    }
    if (st) return true;
    ++post_retries_;
    cluster_->eq().schedule_after(kRetry, [this, from, len] {
      if (from == 0) {
        send_ping();
      } else {
        (void)post(1, len);
      }
    });
    return false;
  }

  void provide(int node, const gm::Buffer& buf) {
    if (port_[node]->provide_receive_buffer(buf)) return;
    cluster_->eq().schedule_after(kRetry, [this, node, buf] { provide(node, buf); });
  }

  void on_ping(const gm::RecvInfo& info) {
    SpanRecorder::Scope sp(trace_, "bench.recv_handler");
    const auto got = cluster_->node(1).memory().at(info.buffer.addr, info.len);
    // The bytes carry the sequence number (from 4 bytes up), so a match
    // also proves order and rules out a duplicate.
    if (info.len != size_of(expected_ping_) || got.size() != info.len ||
        !matches(got, expected_ping_)) {
      out_.fail("pingpong2: bad or duplicate ping (expected #" +
                std::to_string(expected_ping_) + ")");
    } else {
      ++expected_ping_;
      note_delivery(1, info.len);
      // Echo the same bytes back.
      std::memcpy(cluster_->node(1).memory().at(send_buf_[1].addr, info.len).data(),
                  got.data(), info.len);
      (void)post(1, info.len);
    }
    provide(1, info.buffer);
  }

  void on_pong(const gm::RecvInfo& info) {
    SpanRecorder::Scope sp(trace_, "bench.recv_handler");
    const Time now = cluster_->eq().now();
    const std::uint32_t seq = next_ping_ - 1;
    const auto got = cluster_->node(0).memory().at(info.buffer.addr, info.len);
    if (info.len != size_of(seq) || got.size() != info.len ||
        pongs_ != seq || !matches(got, seq)) {
      out_.fail("pingpong2: bad or duplicate pong for ping #" + std::to_string(seq));
    } else {
      ++pongs_;
      note_delivery(0, info.len);
      if (now < core_end_ && !overlaps_hang(ping_posted_at_)) {
        lat_.push_back((now - ping_posted_at_) / 2);
        if (trace_ != nullptr) rec_.message("msg.round_trip", seq, ping_posted_at_, now);
      }
      send_ping();
    }
    provide(0, info.buffer);
  }

  void note_delivery(int at_node, std::uint32_t len) {
    const Time now = cluster_->eq().now();
    if (now >= core_end_) return;
    digest_.mix(static_cast<std::uint64_t>(at_node));
    digest_.mix(len);
    digest_.mix(now);
    ++core_msgs_;
    core_bytes_ += len;
  }

  void finish(gm::Cluster& c) {
    // Let the last hang recover and the last round trip land.
    pinging_ = false;
    for (int k = 0; k < 40 && (pongs_ != next_ping_ || overlaps_hang(c.eq().now()));
         ++k) {
      c.run_for(sim::msec(100));
    }
    out_.attempted = posted_ + hangs_.size();
    if (pongs_ != next_ping_) {
      out_.fail("pingpong2: " + std::to_string(next_ping_ - pongs_) +
                " pings never answered");
    }
    for (const Hang& h : hangs_) {
      if (h.recoveries != 1) {
        out_.fail("pingpong2: hang on node " + std::to_string(h.victim) + " at " +
                  std::to_string(h.injected) + " ns did not recover");
      }
    }
  }

  const Options& opt_;
  Outcome& out_;
  int phase_ = 0;
  std::array<std::byte, 64 + kMaxLen> pattern_{};
  std::unique_ptr<gm::Cluster> cluster_;
  std::array<gm::Port*, 2> port_{};
  std::array<gm::Buffer, 2> send_buf_{};
  std::vector<double> build_s_;
  std::vector<double> warmup_s_;
  SpanRecorder rec_;
  SpanRecorder* trace_ = nullptr;
  bool pinging_ = true;
  std::uint32_t next_ping_ = 0;
  std::uint32_t expected_ping_ = 0;
  std::uint32_t pongs_ = 0;
  Time ping_posted_at_ = 0;
  std::vector<Hang> hangs_;
  Time core_start_ = 0;
  Time core_end_ = 0;
  std::uint64_t core_msgs_ = 0;
  std::uint64_t core_bytes_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t post_retries_ = 0;
  std::vector<Time> lat_;
  std::vector<double> rec_ms_;
  Digest digest_;
};

}  // namespace

void run_pingpong2(const Options& opt, std::int64_t process_start, Outcome& out) {
  const std::uint64_t rss0 = proc_status_kb("VmRSS");
  PingPong pp(opt, out);
  pp.run(process_start, rss0);
  if (opt.trace && !opt.spans_path.empty() &&
      !pp.recorder().write_json(opt.spans_path)) {
    out.fail("cannot write span file " + opt.spans_path);
  }
}

}  // namespace perfbench
