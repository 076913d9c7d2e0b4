// Observability layer tests: Registry instrument semantics and JSON
// snapshots, PhaseTimer phase accounting, the nearest-rank percentile fix
// in LatencyRecorder, offered-vs-delivered link byte accounting, and an
// end-to-end check that a cluster recovery populates the Table 3 phase
// histograms, pinned registry snapshots of two fault runs, and counters
// outliving the components whose stats they expose.
#include <gtest/gtest.h>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "mapper/failover.hpp"
#include "metrics/metrics.hpp"
#include "metrics/registry.hpp"
#include "net/link.hpp"

namespace myri {
namespace {

// ---------------------------------------------------------------- Registry

TEST(Registry, CounterAccumulatesAndIsStablePerName) {
  metrics::Registry reg;
  metrics::Counter& c = reg.counter("a.b");
  c.inc();
  c.add(4);
  EXPECT_EQ(reg.counter("a.b").value(), 5u);
  // Same name -> same instrument (components cache the address).
  EXPECT_EQ(&reg.counter("a.b"), &c);
  EXPECT_EQ(reg.counter("other").value(), 0u);
}

TEST(Registry, CounterViewReadsItsFieldAndKeepsTheLastValue) {
  metrics::Registry reg;
  reg.counter("x").add(2);
  std::uint64_t first = 0;
  {
    metrics::CounterViews views;
    views.expose(reg, "x", first);
    views.expose(reg, "x", first);  // binding twice must not double count
    first = 5;
    EXPECT_EQ(reg.counter("x").value(), 7u);
  }
  first = 100;  // its owner is gone: no longer read
  EXPECT_EQ(reg.counter("x").value(), 7u);
  std::uint64_t second = 3;
  metrics::CounterViews successor;
  successor.expose(reg, "x", second);
  EXPECT_EQ(reg.counter("x").value(), 10u);
}

TEST(Registry, GaugeTracksValueAndHighWaterMark) {
  metrics::Registry reg;
  metrics::Gauge& g = reg.gauge("depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.max(), 7);
  g.set(-2);
  EXPECT_EQ(g.value(), -2);
  EXPECT_EQ(g.max(), 7);  // high-water mark survives decreases
}

TEST(Registry, HistogramBucketsAreInclusiveUpperBounds) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.histogram("h", {10, 100});
  h.add(0);    // first bucket (<= 10)
  h.add(10);   // inclusive upper bound -> still first bucket
  h.add(11);   // second bucket
  h.add(100);  // second bucket (inclusive)
  h.add(101);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 222u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 101u);
  EXPECT_DOUBLE_EQ(h.mean(), 222.0 / 5.0);
}

TEST(Registry, HistogramPercentileIsBucketQuantizedNearestRank) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.histogram("h", {10, 100, 1000});
  for (int i = 0; i < 9; ++i) h.add(5);  // bucket 0
  h.add(500);                            // bucket 2
  EXPECT_EQ(h.percentile(50), 10u);   // quantized to the bucket bound
  EXPECT_EQ(h.percentile(90), 10u);   // rank 9 still in bucket 0
  EXPECT_EQ(h.percentile(100), 500u); // capped at the observed max
  // Empty histogram answers 0 everywhere.
  EXPECT_EQ(reg.histogram("empty").percentile(99), 0u);
}

TEST(Registry, RollWindowedResetsOnlyWindowedHistograms) {
  metrics::Registry reg;
  metrics::Histogram& win = reg.histogram("win", {10, 100});
  metrics::Histogram& acc = reg.histogram("acc", {10, 100});
  win.set_windowed();
  EXPECT_TRUE(win.windowed());
  EXPECT_FALSE(acc.windowed());
  win.add(5);
  win.add(50);
  acc.add(7);

  EXPECT_EQ(reg.roll_windowed(), 1u);  // only "win" rolls
  EXPECT_EQ(win.count(), 0u);
  EXPECT_EQ(win.sum(), 0u);
  EXPECT_EQ(win.max(), 0u);
  ASSERT_EQ(win.bucket_counts().size(), 3u);
  EXPECT_EQ(win.bucket_counts()[0], 0u);
  EXPECT_EQ(acc.count(), 1u);  // accumulating histogram untouched
  EXPECT_EQ(acc.sum(), 7u);

  // The window starts fresh: new samples land in an empty histogram, so
  // long-run percentile reads reflect the current window only.
  win.add(200);
  EXPECT_EQ(win.count(), 1u);
  EXPECT_EQ(win.percentile(50), 200u);
  // Rolling is idempotent per window and keeps the windowed flag.
  EXPECT_EQ(reg.roll_windowed(), 1u);
  EXPECT_TRUE(win.windowed());
  EXPECT_EQ(win.count(), 0u);
}

TEST(Registry, MergeAccumulatesAcrossRegistries) {
  metrics::Registry a;
  metrics::Registry b;
  a.counter("c").add(2);
  b.counter("c").add(3);
  b.counter("only_b").add(1);
  a.gauge("g").set(10);
  b.gauge("g").set(4);
  a.histogram("h", {10}).add(5);
  b.histogram("h", {10}).add(50);

  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 5u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_EQ(a.gauge("g").value(), 4);   // last value wins...
  EXPECT_EQ(a.gauge("g").max(), 10);    // ...joint high-water survives
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").sum(), 55u);
  EXPECT_EQ(a.histogram("h").bucket_counts()[0], 1u);
  EXPECT_EQ(a.histogram("h").bucket_counts()[1], 1u);
}

TEST(Registry, ToJsonEmptySnapshot) {
  metrics::Registry reg;
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(Registry, ToJsonSnapshotIsDeterministicAndComplete) {
  metrics::Registry reg;
  reg.counter("z.late").add(7);
  reg.counter("a.early").add(3);
  metrics::Gauge& g = reg.gauge("g");
  g.set(5);
  g.set(2);
  metrics::Histogram& h = reg.histogram("h", {10, 100});
  h.add(5);
  h.add(150);
  // Keys sorted, integers only, sparse [bound,count] buckets with a null
  // bound for the overflow bucket. Pinned as an exact string so the export
  // format cannot drift silently.
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"a.early\":3,\"z.late\":7},"
            "\"gauges\":{\"g\":{\"max\":5,\"value\":2}},"
            "\"histograms\":{\"h\":{\"buckets\":[[10,1],[null,1]],"
            "\"count\":2,\"max\":150,\"min\":5,\"sum\":155}}}");
}

TEST(Registry, ToJsonEscapesQuotesAndBackslashes) {
  metrics::Registry reg;
  reg.counter("we\"ird\\name").add(1);
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"we\\\"ird\\\\name\":1},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(Registry, NullSafeHelpersAreNoOpsWhenUnbound) {
  metrics::bump(nullptr);
  metrics::bump(nullptr, 5);
  metrics::level(nullptr, 3);
  metrics::observe(nullptr, 9);  // must not crash
  metrics::Registry reg;
  metrics::Counter* c = &reg.counter("c");
  metrics::bump(c, 2);
  EXPECT_EQ(c->value(), 2u);
}

TEST(PhaseTimer, RecordsPerPhaseAndTotalDurations) {
  metrics::Registry reg;
  metrics::PhaseTimer t(reg, "ftd.recovery");
  EXPECT_TRUE(t.bound());
  t.start(100);
  t.mark("detect", 250);
  t.mark("confirm", 400);
  t.finish(900);
  const metrics::Histogram* detect =
      reg.find_histogram("ftd.recovery.detect_ns");
  const metrics::Histogram* confirm =
      reg.find_histogram("ftd.recovery.confirm_ns");
  const metrics::Histogram* total =
      reg.find_histogram("ftd.recovery.total_ns");
  ASSERT_NE(detect, nullptr);
  ASSERT_NE(confirm, nullptr);
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(detect->sum(), 150u);  // since start
  EXPECT_EQ(confirm->sum(), 150u); // since previous mark
  EXPECT_EQ(total->sum(), 800u);   // since start
  // Unbound timers are inert.
  metrics::PhaseTimer unbound;
  EXPECT_FALSE(unbound.bound());
  unbound.start(0);
  unbound.mark("x", 10);
  unbound.finish(20);
}

// ------------------------------------------------- LatencyRecorder (bugfix)

TEST(LatencyRecorder, PercentileUsesNearestRank) {
  metrics::LatencyRecorder r;
  // Unsorted insertion order exercises the lazy in-place sort.
  r.add(sim::usec(3));
  r.add(sim::usec(1));
  r.add(sim::usec(4));
  r.add(sim::usec(2));
  // Nearest-rank over {1,2,3,4} us: ceil(p/100*4) gives ranks 1,2,2,4.
  // The old floor-indexing code returned 3us for p50 (rank bias of one
  // whole sample) -- these pins fail on it.
  EXPECT_DOUBLE_EQ(r.percentile_us(25), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(50), 2.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 4.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(0), 1.0);  // clamped to the first rank
  EXPECT_DOUBLE_EQ(r.min_us(), 1.0);
  EXPECT_DOUBLE_EQ(r.max_us(), 4.0);
  // Adding after a query re-arms the sort.
  r.add(sim::usec(10));
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 10.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(50), 3.0);  // rank 3 of {1,2,3,4,10}
}

TEST(LatencyRecorder, SingleSampleAndEmpty) {
  metrics::LatencyRecorder r;
  EXPECT_DOUBLE_EQ(r.percentile_us(50), 0.0);
  r.add(sim::usec(7));
  EXPECT_DOUBLE_EQ(r.percentile_us(1), 7.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(99), 7.0);
}

// ------------------------------------------------- Link accounting (bugfix)

class CountingSink : public net::PacketSink {
 public:
  void deliver(net::Packet, std::uint8_t) override { ++delivered; }
  int delivered = 0;
};

TEST(LinkAccounting, DroppedPacketsAreOfferedButNotDelivered) {
  sim::EventQueue eq;
  net::Link link(eq, sim::Rng(7), {}, "t0");
  CountingSink sink;
  link.connect(sink, 0);
  net::LinkFaults f;
  f.drop_prob = 1.0;
  link.set_faults(f);

  net::Packet p;
  p.payload.assign(256, std::byte{1});
  p.seal();
  const std::uint64_t wire = p.wire_size();
  link.send(net::Packet(p));
  eq.run();

  // The old code credited pkt.wire_size() to a single bytes counter before
  // the drop check, so dropped traffic inflated bandwidth numbers.
  EXPECT_EQ(link.stats().offered_bytes, wire);
  EXPECT_EQ(link.stats().delivered_bytes, 0u);
  EXPECT_EQ(link.stats().dropped, 1u);
  EXPECT_EQ(sink.delivered, 0);
}

TEST(LinkAccounting, DownLinkOffersButDeliversNothing) {
  sim::EventQueue eq;
  net::Link link(eq, sim::Rng(7), {}, "t0");
  CountingSink sink;
  link.connect(sink, 0);
  link.set_down(true);

  net::Packet p;
  p.payload.assign(64, std::byte{2});
  p.seal();
  const std::uint64_t wire = p.wire_size();
  for (int i = 0; i < 3; ++i) link.send(net::Packet(p));
  eq.run();

  EXPECT_EQ(link.stats().offered_bytes, 3 * wire);
  EXPECT_EQ(link.stats().delivered_bytes, 0u);
  EXPECT_EQ(link.stats().dropped, 3u);
  EXPECT_EQ(sink.delivered, 0);
}

TEST(LinkAccounting, CleanDeliveryCountsBothAndFeedsRegistry) {
  sim::EventQueue eq;
  metrics::Registry reg;
  net::Link link(eq, sim::Rng(7), {}, "t0");
  link.bind_metrics(reg);
  CountingSink sink;
  link.connect(sink, 0);

  net::Packet p;
  p.payload.assign(128, std::byte{3});
  p.seal();
  const std::uint64_t wire = p.wire_size();
  link.send(net::Packet(p));
  link.send(net::Packet(p));
  eq.run();

  EXPECT_EQ(link.stats().offered_bytes, 2 * wire);
  EXPECT_EQ(link.stats().delivered_bytes, 2 * wire);
  EXPECT_EQ(sink.delivered, 2);
  EXPECT_EQ(reg.counter("link.t0.offered_bytes").value(), 2 * wire);
  EXPECT_EQ(reg.counter("link.t0.delivered_bytes").value(), 2 * wire);
  EXPECT_EQ(reg.counter("link.t0.dropped").value(), 0u);
}

// --------------------------------------------------- Cluster end-to-end

TEST(ClusterMetrics, TrafficPopulatesStackCounters) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  gm::Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 10;
  wc.msg_len = 1024;
  fi::StreamWorkload wl(tx, rx, wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.run_for(sim::msec(20));
  ASSERT_TRUE(wl.complete());

  metrics::Registry& reg = cluster.metrics();
  EXPECT_EQ(reg.counter("node0.port2.sends_posted").value(), 10u);
  EXPECT_EQ(reg.counter("node0.port2.sends_completed").value(), 10u);
  EXPECT_EQ(reg.counter("node1.port3.msgs_received").value(), 10u);
  EXPECT_EQ(reg.counter("node1.port3.bytes_received").value(), 10u * 1024u);
  EXPECT_GE(reg.counter("node0.mcp.sends_posted").value(), 10u);
  EXPECT_GT(reg.counter("node0.mcp.busy_ns").value(), 0u);
  // Link-level delivery: node0's uplink carried at least the payload.
  EXPECT_GT(reg.counter("link.node0->sw0.delivered_bytes").value(),
            10u * 1024u);
  EXPECT_GT(reg.counter("switch.sw0.forwarded").value(), 0u);
  // Token gauges saw traffic in flight.
  EXPECT_GT(reg.gauge("node0.port2.send_tokens_in_flight").max(), 0);
}

TEST(ClusterMetrics, ReadsSeeEveryCardsTicksUpToTheReadInstant) {
  // Cards replay their L_timer ticks lazily (DESIGN.md section 12), and
  // the registry reads McpStats fields directly. Cluster::metrics() syncs
  // every card first, so a read between run slices and a read from
  // inside an event both see the eager values. The registry is read
  // before Mcp::stats(), which would catch the card up by itself.
  gm::ClusterConfig cc;
  cc.nodes = 4;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  int reads = 0;
  const auto expect_synced = [&] {
    ++reads;
    metrics::Registry& reg = cluster.metrics();
    for (int i = 0; i < cluster.size(); ++i) {
      const std::string p = "node" + std::to_string(i) + ".mcp.";
      const std::uint64_t runs = reg.counter(p + "l_timer_runs").value();
      const std::uint64_t busy = reg.counter(p + "busy_ns").value();
      const mcp::McpStats& st = cluster.node(i).mcp().stats();
      EXPECT_GT(st.l_timer_runs, 0u) << p;
      EXPECT_EQ(runs, st.l_timer_runs) << p << " at " << cluster.eq().now();
      EXPECT_EQ(busy, st.busy_ns) << p << " at " << cluster.eq().now();
    }
  };
  cluster.run_for(sim::usec(2900));
  expect_synced();
  cluster.eq().post_at(sim::usec(4321), expect_synced);
  cluster.run_for(sim::msec(4));
  expect_synced();
  EXPECT_EQ(reads, 3);
}

TEST(ClusterMetrics, RecoveryPopulatesTable3PhaseHistograms) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 30;
  wc.msg_len = 2048;
  fi::StreamWorkload wl(tx, rx, wc);
  cluster.run_for(sim::usec(900));
  wl.start();

  bool recovered = false;
  tx.set_on_recovered([&] { recovered = true; });
  cluster.eq().schedule_after(sim::usec(50), [&] {
    cluster.node(0).ftd().mark_fault_injected();
    cluster.node(0).mcp().inject_hang("test");
  });
  cluster.run_for(sim::sec(4));
  ASSERT_TRUE(recovered);

  const metrics::Registry& reg = cluster.metrics();
  // All six Table 3 phases must have been timed exactly once.
  for (const char* name :
       {"node0.ftd.recovery.detect_ns", "node0.ftd.recovery.confirm_ns",
        "node0.ftd.recovery.reset_ns", "node0.ftd.recovery.reload_ns",
        "node0.ftd.recovery.restore_ns", "node0.ftd.recovery.total_ns",
        "node0.port2.recovery.replay_ns"}) {
    const metrics::Histogram* h = reg.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), 1u) << name;
    EXPECT_GT(h->sum(), 0u) << name;
  }
  const metrics::Counter* recoveries =
      reg.find_counter("node0.ftd.recoveries");
  ASSERT_NE(recoveries, nullptr);
  EXPECT_EQ(recoveries->value(), 1u);
}

// --------------------------------------------------- Registry snapshots

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// 2-node FTGM stream; node0's NIC hangs mid-stream and the FTD recovers it.
std::string ftgm_hang_snapshot() {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mcp::McpMode::kFtgm;
  gm::Cluster cluster(cc);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 30;
  wc.msg_len = 2048;
  fi::StreamWorkload wl(cluster.node(0).open_port(2),
                        cluster.node(1).open_port(3), wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.eq().schedule_after(sim::usec(50), [&] {
    cluster.node(0).ftd().mark_fault_injected();
    cluster.node(0).mcp().inject_hang("test");
  });
  cluster.run_for(sim::sec(4));
  EXPECT_TRUE(wl.complete());
  return cluster.metrics().to_json();
}

// 8-node fat-tree (two leaves) stream across the spines under a
// FailoverManager; the leaf0<->spine0 trunk dies mid-stream.
std::string fat_tree_cable_kill_snapshot() {
  gm::ClusterConfig cc;
  cc.nodes = 8;
  cc.fabric = net::FabricPreset::kFatTree;
  gm::Cluster cluster(cc);
  mapper::FailoverManager fm(cluster);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 40;
  wc.msg_len = 1024;
  fi::StreamWorkload wl(cluster.node(0).open_port(2),
                        cluster.node(7).open_port(3), wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.run_for(sim::usec(300));
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[0], true);
  cluster.run_for(sim::msec(600));
  EXPECT_TRUE(wl.complete());
  EXPECT_GE(fm.remaps(), 1u);
  return cluster.metrics().to_json();
}

// Every registry name and value of two fault runs, pinned. The values were
// computed while each component still counted every fact twice (once in
// its stats struct, once in a registry-owned counter), before the stats
// structs became the only storage and the registry a view over them: a
// renamed, dropped, added or miscounted instrument moves the hash.
TEST(RegistrySnapshot, PinnedFaultRunsKeepEveryNameAndValue) {
  EXPECT_EQ(fnv1a(ftgm_hang_snapshot()), 0x465138d8cdd8e520ull);
  EXPECT_EQ(fnv1a(fat_tree_cable_kill_snapshot()), 0xafe64e8d0a5e2b0dull);
}

// ------------------------------------------------ Counter lifetimes

TEST(CounterLifetime, ReopenedPortAccumulatesAcrossIncarnations) {
  gm::ClusterConfig cc;
  cc.nodes = 2;
  gm::Cluster cluster(cc);
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 6;
  wc.msg_len = 512;
  gm::PortStats first;
  {
    fi::StreamWorkload wl(cluster.node(0).open_port(2),
                          cluster.node(1).open_port(3), wc);
    cluster.run_for(sim::usec(900));
    wl.start();
    cluster.run_for(sim::msec(20));
    ASSERT_TRUE(wl.complete());
    first = cluster.node(0).port(2)->stats();
  }
  cluster.node(0).close_port(2);
  cluster.node(1).close_port(3);
  cluster.run_for(sim::msec(1));

  const metrics::Registry& reg = cluster.metrics();
  // The closed port's last values survive it.
  const metrics::Counter* sends = reg.find_counter("node0.port2.sends_posted");
  ASSERT_NE(sends, nullptr);
  EXPECT_EQ(sends->value(), 6u);
  EXPECT_EQ(reg.find_counter("node0.port2.send_cpu_ns")->value(),
            first.send_cpu_ns);

  wc.total_msgs = 4;
  fi::StreamWorkload wl(cluster.node(0).open_port(2),
                        cluster.node(1).open_port(3), wc);
  cluster.run_for(sim::usec(900));
  wl.start();
  cluster.run_for(sim::msec(20));
  ASSERT_TRUE(wl.complete());
  const gm::PortStats& second = cluster.node(0).port(2)->stats();
  EXPECT_EQ(second.sends_posted, 4u);

  // The reopened port counts on top of its predecessor.
  EXPECT_EQ(sends->value(), 10u);
  EXPECT_EQ(reg.find_counter("node0.port2.bytes_sent")->value(), 10u * 512u);
  EXPECT_EQ(reg.find_counter("node0.port2.send_cpu_ns")->value(),
            first.send_cpu_ns + second.send_cpu_ns);
  EXPECT_EQ(reg.find_counter("node1.port3.msgs_received")->value(), 10u);
  EXPECT_NE(reg.to_json().find("\"node0.port2.sends_completed\":10"),
            std::string::npos);
}

TEST(CounterLifetime, MapperCountersOutliveTheFailoverManager) {
  gm::ClusterConfig cc;
  cc.nodes = 8;
  cc.fabric = net::FabricPreset::kFatTree;
  gm::Cluster cluster(cc);
  auto fm = std::make_unique<mapper::FailoverManager>(cluster);
  cluster.topo().set_cable_down(cluster.fabric().trunk_cables()[0], true);
  cluster.run_for(sim::msec(400));
  ASSERT_GE(fm->remaps(), 1u);
  const std::uint64_t remaps = fm->remaps();
  const mapper::MapperStats st = fm->mapper().stats();
  const std::string before = cluster.metrics().to_json();

  fm.reset();

  const metrics::Registry& reg = cluster.metrics();
  EXPECT_EQ(reg.to_json(), before);
  EXPECT_EQ(reg.find_counter("fabric.failover.remaps")->value(), remaps);
  EXPECT_EQ(reg.find_counter("fabric.failover.failed_remaps")->value(), 0u);
  EXPECT_EQ(reg.find_counter("mapper.map_route_retries")->value(),
            st.route_retries);
  EXPECT_EQ(reg.find_counter("mapper.scrub_repairs")->value(), st.repushes);
  EXPECT_EQ(reg.find_counter("fabric.cable_events")->value(), 1u);
}

}  // namespace
}  // namespace myri
