#include "faultinject/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "faultinject/oracle.hpp"
#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "mapper/failover.hpp"
#include "mcp/sram_layout.hpp"
#include "sim/rng.hpp"

namespace myri::fi {

namespace {

// ---- outcome digest: FNV-1a over the run's observable history ----

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

void mix(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  mix(h, s.size());
}

/// Byte span of the SRAM data segment kSramFlip offsets index into
/// (send descriptor, TX descriptor, payload staging — what send_chunk
/// reads that is not code; same region Campaign's kDataSegment flips).
constexpr std::uint32_t data_segment_size() {
  return mcp::SramLayout::kSendStagingBase +
         mcp::SramLayout::kNumSendSlots * mcp::SramLayout::kStagingSlotSize -
         mcp::SramLayout::kSendDescAddr;
}

const char* mode_name(mcp::McpMode m) {
  return m == mcp::McpMode::kGm ? "gm" : "ftgm";
}

// Deterministic double formatting that strtod round-trips exactly.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* to_string(ScenarioEvent::Kind k) {
  switch (k) {
    case ScenarioEvent::Kind::kNicHang: return "nic-hang";
    case ScenarioEvent::Kind::kCableDown: return "cable-down";
    case ScenarioEvent::Kind::kCableUp: return "cable-up";
    case ScenarioEvent::Kind::kFaultWindow: return "fault-window";
    case ScenarioEvent::Kind::kSramFlip: return "sram-flip";
    case ScenarioEvent::Kind::kDoubleDeliver: return "double-deliver";
    case ScenarioEvent::Kind::kNodeJoin: return "node-join";
    case ScenarioEvent::Kind::kNodeDrain: return "node-drain";
    case ScenarioEvent::Kind::kNodeReplace: return "node-replace";
    case ScenarioEvent::Kind::kTokenLeak: return "token-leak";
  }
  return "?";
}

namespace {

std::optional<ScenarioEvent::Kind> parse_kind(const std::string& s) {
  using K = ScenarioEvent::Kind;
  for (K k : {K::kNicHang, K::kCableDown, K::kCableUp, K::kFaultWindow,
              K::kSramFlip, K::kDoubleDeliver, K::kNodeJoin, K::kNodeDrain,
              K::kNodeReplace, K::kTokenLeak}) {
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

}  // namespace

// ---- random schedule generation ----

Scenario Scenario::random(std::uint64_t rand_seed) {
  sim::Rng rng(rand_seed);
  Scenario s;
  s.seed = rng.next_u64();

  struct TopoChoice {
    int nodes;
    net::FabricPreset preset;
  };
  static const std::vector<TopoChoice> kTopos = {
      {2, net::FabricPreset::kSingleSwitch},
      {4, net::FabricPreset::kSingleSwitch},
      {6, net::FabricPreset::kSingleSwitch},
      {4, net::FabricPreset::kRing},
      {6, net::FabricPreset::kRing},
      {8, net::FabricPreset::kFatTree},
      {16, net::FabricPreset::kFatTree},
  };
  const TopoChoice& tc = rng.pick(kTopos);
  s.nodes = tc.nodes;
  s.fabric = tc.preset;
  s.radix = 8;
  s.mode = mcp::McpMode::kFtgm;
  s.msgs = 15 + static_cast<int>(rng.below(16));
  s.msg_len = 512 + static_cast<std::uint32_t>(rng.below(2048));

  // Trunk count of the chosen preset (cable events need redundancy the
  // mapper can reroute across). Built on a throwaway topology: cheap,
  // and keeps this function the single source of truth.
  std::size_t trunks = 0;
  if (s.fabric != net::FabricPreset::kSingleSwitch) {
    sim::EventQueue eq;
    sim::Rng r(0);
    net::Topology topo(eq, r);
    net::FabricBuilder fb(topo, {s.fabric, s.nodes, s.radix});
    trunks = fb.trunk_cables().size();
  }

  // One mixed profile: cable kills, NIC hangs, lossy links and fault
  // windows now coexist freely. The old disjoint cable-only profile was a
  // crutch for raw MAP_ROUTE pushes (a chunk lost to a lossy link or hung
  // MCP stranded a node on stale routes forever); the epoch/ACK/scrub
  // control plane repairs those, so mixing is a test of the code, not a
  // failure by construction. Two constraints keep schedules survivable:
  // cable events need trunk redundancy, and at most one trunk is down at
  // any instant (ring and fat-tree presets tolerate exactly one cut).
  if (rng.bernoulli(0.5)) {
    s.drop = rng.below(11) * 0.01;     // 0 .. 0.10
    s.corrupt = rng.below(9) * 0.01;   // 0 .. 0.08
  }

  const int n_events = 1 + static_cast<int>(rng.below(4));
  // Hangs (and recoveries) serialize at ~1.7 s each; space them out so
  // every one is individually maskable, like the hand-written sweeps did.
  sim::Time hang_slot = kWarmup + sim::usec(rng.below(10'000));
  // Cable kills serialize too: the next kill waits for the previous
  // restore, so the fabric never runs with two trunks missing.
  sim::Time cable_slot = kWarmup + sim::usec(rng.below(5000));
  bool cable_ok = trunks > 0;
  for (int i = 0; i < n_events; ++i) {
    ScenarioEvent ev;
    const std::uint64_t pick = rng.below(cable_ok ? 4 : 3);
    if (pick == 3) {
      ev.kind = ScenarioEvent::Kind::kCableDown;
      ev.cable = static_cast<int>(rng.below(trunks));
      ev.at = cable_slot;
      if (rng.bernoulli(0.7)) {
        ScenarioEvent up;
        up.kind = ScenarioEvent::Kind::kCableUp;
        up.cable = ev.cable;
        up.at = ev.at + sim::msec(200 + rng.below(1800));
        s.events.push_back(up);
        cable_slot = up.at + sim::msec(50 + rng.below(200));
      } else {
        // This trunk stays dead: no further kills, or a second cut could
        // partition the fabric.
        cable_ok = false;
      }
    } else if (pick != 2) {
      ev.kind = ScenarioEvent::Kind::kNicHang;
      ev.node = static_cast<int>(rng.below(s.nodes));
      ev.at = hang_slot;
      hang_slot += sim::sec(2) + sim::usec(200'000 + rng.below(400'000));
    } else {
      ev.kind = ScenarioEvent::Kind::kFaultWindow;
      ev.at = kWarmup + sim::usec(rng.below(2000));
      ev.duration = sim::usec(100 + rng.below(5000));
      ev.drop = rng.below(21) * 0.01;     // 0 .. 0.20
      ev.corrupt = rng.below(11) * 0.01;  // 0 .. 0.10
    }
    s.events.push_back(ev);
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  return s;
}

// ---- validation ----

std::string Scenario::validate() const {
  net::FabricConfig fc{fabric, nodes, radix};
  const std::size_t cap = net::FabricBuilder::capacity(fc);
  if (nodes < 2 || static_cast<std::size_t>(nodes) > cap) {
    return "nodes must be 2.." + std::to_string(cap) + " for fabric " +
           std::string(net::to_string(fabric));
  }
  if (msgs < 1 || msgs > 100'000) return "msgs out of range";
  if (msg_len < 8 || msg_len > 65536) return "msg_len out of range";

  // Replay the schedule as a membership timeline (same order the runner
  // fires it: time, ties by vector position). Later events may target
  // ids the timeline created; joins consume as-built free ports and a
  // drain's port comes back kRecoveryAllowance after the drain starts
  // (retire_now -> Fabric::release_port, observed worst case is the
  // quiesce poll finishing well inside the allowance).
  std::vector<ScenarioEvent> ordered = events;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  bool membership = false;
  for (const ScenarioEvent& ev : ordered) {
    if (ev.kind == ScenarioEvent::Kind::kNodeJoin ||
        ev.kind == ScenarioEvent::Kind::kNodeDrain ||
        ev.kind == ScenarioEvent::Kind::kNodeReplace) {
      membership = true;
      break;
    }
  }
  std::size_t free = 0;
  if (membership) {
    // The preset capacity is theoretical; what a join actually needs is a
    // free port on the *as-built* fabric (a radix-3 ring is full: every
    // switch spends 2 ports on trunks and 1 on its host). Dry-build the
    // fabric so an unsatisfiable schedule is rejected here instead of
    // blowing up add_node() mid-run.
    sim::EventQueue eq;
    sim::Rng rng(1);
    net::Topology topo(eq, rng);
    const net::FabricBuilder fb(topo, fc);
    free = fb.free_ports();
  }
  int ids = nodes;                     // ids assigned so far (joins extend)
  std::vector<bool> drained;           // by id: retirement scheduled
  drained.assign(static_cast<std::size_t>(nodes), false);
  std::vector<sim::Time> credits;      // sorted: drain ports coming back
  std::size_t credited = 0;
  for (const ScenarioEvent& ev : ordered) {
    while (credited < credits.size() && credits[credited] <= ev.at) {
      ++free;
      ++credited;
    }
    if (ev.cable < 0) return "negative cable index";
    switch (ev.kind) {
      case ScenarioEvent::Kind::kNodeJoin:
        if (free == 0) {
          return "join at " + std::to_string(ev.at) +
                 " ns has no free port on the as-built fabric "
                 "(counting ports handed back by earlier drains)";
        }
        if (static_cast<std::size_t>(ids) + 1 > cap) {
          return "schedule joins past fabric capacity " + std::to_string(cap);
        }
        --free;
        ++ids;
        drained.push_back(false);
        break;
      case ScenarioEvent::Kind::kNodeDrain:
      case ScenarioEvent::Kind::kNodeReplace:
        if (ev.node == 0) {
          return "membership event cannot target node 0 (mapper home)";
        }
        if (ev.node < 0 || ev.node >= ids) {
          return "event node " + std::to_string(ev.node) +
                 " out of range (ids assigned by then: " +
                 std::to_string(ids) + ")";
        }
        if (drained[static_cast<std::size_t>(ev.node)]) {
          return std::string(ev.kind == ScenarioEvent::Kind::kNodeDrain
                                 ? "node "
                                 : "replace of node ") +
                 std::to_string(ev.node) + " after it was already drained";
        }
        if (ev.kind == ScenarioEvent::Kind::kNodeDrain) {
          drained[static_cast<std::size_t>(ev.node)] = true;
          credits.push_back(ev.at + kRecoveryAllowance);
        }
        break;
      default:
        // Fault / test-only kinds. `node` is a victim id or stream index;
        // ids joined earlier in the timeline are legitimate targets.
        if (ev.node < 0 || ev.node >= ids) {
          return "event node " + std::to_string(ev.node) +
                 " out of range (ids assigned by then: " +
                 std::to_string(ids) + ")";
        }
        break;
    }
  }
  return {};
}

// ---- roster / horizon ----

sim::Time Scenario::effective_horizon() const {
  if (horizon != 0) return horizon;
  sim::Time h = Scenario::kWarmup + sim::msec(10) +
                sim::usec(150) * static_cast<std::uint64_t>(msgs) *
                    static_cast<std::uint64_t>(nodes);
  if (send_gap > 0) {
    // Paced streams run in parallel, gated by their own clock: the run
    // lasts ~msgs * gap regardless of node count, plus drain slack.
    h = std::max(h, Scenario::kWarmup +
                        send_gap * static_cast<std::uint64_t>(msgs) +
                        sim::sec(2));
  }
  for (const ScenarioEvent& ev : events) {
    h = std::max(h, ev.at + ev.duration + sim::sec(1));
    if (ev.kind == ScenarioEvent::Kind::kNicHang ||
        ev.kind == ScenarioEvent::Kind::kSramFlip ||
        ev.kind == ScenarioEvent::Kind::kNodeJoin ||
        ev.kind == ScenarioEvent::Kind::kNodeDrain ||
        ev.kind == ScenarioEvent::Kind::kNodeReplace) {
      // detect + confirm + reload + replay for faults; fold-in / drain
      // quiesce / spare bring-up for membership deltas.
      h += kRecoveryAllowance;
    }
  }
  return h;
}

std::vector<net::NodeId> Scenario::expected_up_at_horizon() const {
  const sim::Time h = effective_horizon();
  // Replay the schedule as a membership timeline: later events override
  // earlier ones (a replace revives a node an earlier hang excused).
  // Joined nodes get ids nodes, nodes+1, ... in firing order, which is
  // time order (the runner schedules same-time events in vector order).
  std::vector<ScenarioEvent> ordered = events;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  std::vector<bool> up(static_cast<std::size_t>(nodes), true);
  for (const ScenarioEvent& ev : ordered) {
    switch (ev.kind) {
      case ScenarioEvent::Kind::kNicHang:
      case ScenarioEvent::Kind::kSramFlip:
        if (ev.node < 0 || ev.node >= static_cast<int>(up.size())) break;
        // kGm has no watchdog/FTD: a wedged card stays wedged. A flip may
        // be benign or self-restart, but "may be up" is not "expected
        // up". kFtgm recovers, but a victim hit too close to the horizon
        // cannot be counted on to be back (and remapped) in time.
        if (mode == mcp::McpMode::kGm || ev.at + kRecoveryAllowance > h) {
          up[static_cast<std::size_t>(ev.node)] = false;
        }
        break;
      case ScenarioEvent::Kind::kNodeDrain:
        // A drain with room to finish ends in retirement: the node is
        // expected ABSENT. Too close to the horizon, the drain may still
        // be waiting out in-flight streams — leave it expected up.
        if (ev.node < 0 || ev.node >= static_cast<int>(up.size())) break;
        if (ev.at + kRecoveryAllowance <= h) {
          up[static_cast<std::size_t>(ev.node)] = false;
        }
        break;
      case ScenarioEvent::Kind::kNodeReplace:
        // The spare takes the victim's id: expected up when the swap has
        // time to land, even if an earlier hang excused the old card.
        if (ev.node < 0 || ev.node >= static_cast<int>(up.size())) break;
        up[static_cast<std::size_t>(ev.node)] =
            ev.at + kRecoveryAllowance <= h;
        break;
      case ScenarioEvent::Kind::kNodeJoin:
        up.push_back(ev.at + kRecoveryAllowance <= h);
        break;
      default:
        break;
    }
  }
  std::vector<net::NodeId> out;
  for (std::size_t i = 0; i < up.size(); ++i) {
    if (up[i]) out.push_back(static_cast<net::NodeId>(i));
  }
  return out;
}

// ---- runner ----

namespace {
// Token allotment of every port the runner opens (ring and membership).
constexpr std::uint32_t kTokens = 24;
}  // namespace

ScenarioRunner::ScenarioRunner(const Scenario& s, const Options& opt)
    : s_(s), digest_(kFnvOffset) {
  const std::string bad = s_.validate();
  if (!bad.empty()) {
    throw std::invalid_argument("invalid scenario: " + bad);
  }
  horizon_ = s_.effective_horizon();

  gm::ClusterConfig cc;
  cc.nodes = s_.nodes;
  cc.fabric = s_.fabric;
  cc.switch_ports = s_.radix;
  cc.mode = s_.mode;
  cc.seed = s_.seed;
  cc.faults = {s_.drop, s_.corrupt, s_.misroute};
  cluster_ = std::make_unique<gm::Cluster>(cc);

  // Cable events are mapper territory: the FailoverManager watches the
  // topology and reroutes around dead trunks (and back, on restore).
  if (!cluster_->fabric().trunk_cables().empty()) {
    fm_ = std::make_unique<mapper::FailoverManager>(*cluster_);
    // Test-only leak plant: keep retired nodes' mapper caches so the
    // drift oracle has a real unbounded growth to catch.
    if (s_.retain_caches) fm_->test_retain_retired_caches(true);
  }

  std::vector<gm::Port*> ports;
  for (int i = 0; i < s_.nodes; ++i) {
    ports.push_back(&cluster_->node(i).open_port(2, {kTokens, kTokens}));
  }
  StreamWorkload::Config wc;
  wc.total_msgs = s_.msgs;
  wc.msg_len = s_.msg_len;
  wc.send_gap = s_.send_gap;
  for (int i = 0; i < s_.nodes; ++i) {
    wls_.push_back(std::make_unique<StreamWorkload>(
        *ports[i], *ports[(i + 1) % s_.nodes], wc));
  }

  oracle_ = std::make_unique<Oracle>(*cluster_, Oracle::Config{opt.check_gap});
  oracle_->set_route_authority(fm_.get());
  oracle_->set_expected_roster(s_.expected_up_at_horizon());
  for (std::size_t i = 0; i < wls_.size(); ++i) watch(i);

  for (const ScenarioEvent& ev : s_.events) schedule(ev);
  if (s_.check_window > 0) add_drift_probes();
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::watch(std::size_t stream) {
  dup_next_.push_back(false);
  oracle_->watch(*wls_[stream], kTokens, kTokens);
  wls_[stream]->set_on_delivery(
      [this, stream](int msg) { on_delivery(stream, msg); });
}

// Delivery log entry: (stream, msg, time). A run that delivers the same
// messages at different times or in a different order gets a different
// digest — that is the seed-stability guarantee. An armed kDoubleDeliver
// logs (and reports) the delivery twice.
void ScenarioRunner::on_delivery(std::size_t stream, int msg) {
  const int times = dup_next_[stream] ? 2 : 1;
  dup_next_[stream] = false;
  for (int k = 0; k < times; ++k) {
    mix(digest_, stream);
    mix(digest_, static_cast<std::uint64_t>(static_cast<std::int64_t>(msg)));
    mix(digest_, cluster_->eq().now());
    ++deliveries_;
    oracle_->on_delivery(stream, msg);
  }
}

// Membership verification streams: after a join or replace, a short
// stream from node 0 into the new card (receive port 3, a sender port of
// its own per stream) proves it serves traffic. Started ~5 ms after the
// roster event so port-open control traffic has landed; watched by the
// oracle and mixed into the digest like the ring streams.
//
// Sender ports 4..7 on node 0, round-robin: a long soak sees dozens of
// roster events, far more than the card has ports, and reopening a port
// id would destroy a Port that earlier (finished) workloads still
// reference. Streams are short (8 msgs) and arrivals are many seconds
// apart, so a recycled port is always idle by the time it is reused.
void ScenarioRunner::start_membership_stream(gm::Node& card) {
  // A card swapped out before its stream started gets none: the replace
  // that swapped it starts one into the spare, and a second stream would
  // reopen the spare's receive port 3 under the first.
  if (&cluster_->node(card.id()) != &card) return;
  const std::size_t idx = wls_.size();
  const int slot = membership_streams_ % 4;
  if (membership_tx_[slot] == nullptr) {
    membership_tx_[slot] = &cluster_->node(0).open_port(
        static_cast<std::uint8_t>(4 + slot), {kTokens, kTokens});
  }
  gm::Port& tx = *membership_tx_[slot];
  gm::Port& rx = card.open_port(3, {kTokens, kTokens});
  ++membership_streams_;
  StreamWorkload::Config mwc;
  mwc.total_msgs = 8;
  mwc.msg_len = s_.msg_len;
  wls_.push_back(std::make_unique<StreamWorkload>(tx, rx, mwc));
  watch(idx);
  // Fresh ports need their L_timer open handshake on the wire before
  // peers accept traffic (same reason the ring workload waits out
  // kWarmup): starting immediately would lose the first sends.
  cluster_->eq().schedule_after(sim::msec(2),
                                [this, idx] { wls_[idx]->start(); });
}

void ScenarioRunner::schedule(const ScenarioEvent& ev) {
  sim::EventQueue& eq = cluster_->eq();
  switch (ev.kind) {
    case ScenarioEvent::Kind::kNicHang:
      eq.schedule_at(ev.at, [this, ev] {
        gm::Node& victim = cluster_->node(ev.node);
        victim.mcp().inject_hang("scenario");
        if (victim.has_ftd()) victim.ftd().mark_fault_injected();
      });
      break;
    case ScenarioEvent::Kind::kCableDown:
    case ScenarioEvent::Kind::kCableUp:
      eq.schedule_at(ev.at, [this, ev] {
        const auto& trunks = cluster_->fabric().trunk_cables();
        // Out-of-range indices no-op (a shrunk topology may have fewer
        // trunks than the original schedule referenced).
        if (static_cast<std::size_t>(ev.cable) >= trunks.size()) return;
        cluster_->topo().set_cable_down(
            trunks[static_cast<std::size_t>(ev.cable)],
            ev.kind == ScenarioEvent::Kind::kCableDown);
      });
      break;
    case ScenarioEvent::Kind::kFaultWindow:
      eq.schedule_at(ev.at, [this, ev] {
        cluster_->topo().set_all_faults({ev.drop, ev.corrupt, s_.misroute});
        cluster_->eq().schedule_after(ev.duration, [this] {
          cluster_->topo().set_all_faults({s_.drop, s_.corrupt, s_.misroute});
        });
      });
      break;
    case ScenarioEvent::Kind::kSramFlip:
      eq.schedule_at(ev.at, [this, ev] {
        gm::Node& victim = cluster_->node(ev.node);
        const std::uint32_t addr = mcp::SramLayout::kSendDescAddr +
                                   ev.offset % data_segment_size();
        victim.mcp().catch_up();  // ticks before the flip see old SRAM
        victim.nic().sram().flip_bit(addr, ev.bit & 7u);
        if (victim.has_ftd()) victim.ftd().mark_fault_injected();
      });
      break;
    case ScenarioEvent::Kind::kDoubleDeliver:
      eq.schedule_at(ev.at, [this, ev] {
        if (static_cast<std::size_t>(ev.node) < dup_next_.size()) {
          dup_next_[static_cast<std::size_t>(ev.node)] = true;
        }
      });
      break;
    case ScenarioEvent::Kind::kTokenLeak:
      eq.schedule_at(ev.at, [this, ev] {
        if (static_cast<std::size_t>(ev.node) >= wls_.size()) return;
        gm::Port& tx = wls_[static_cast<std::size_t>(ev.node)]->sender();
        // Push free tokens past the allotment (kTokens) so the next
        // token-conservation sweep trips no matter how many sends are in
        // flight right now.
        while (tx.send_tokens_free() <= kTokens) tx.test_inject_send_token();
      });
      break;
    case ScenarioEvent::Kind::kNodeJoin:
      eq.schedule_at(ev.at, [this] {
        gm::Node* card = &cluster_->node(cluster_->add_node());
        cluster_->eq().schedule_after(
            sim::msec(5), [this, card] { start_membership_stream(*card); });
      });
      break;
    case ScenarioEvent::Kind::kNodeDrain:
      eq.schedule_at(ev.at, [this, ev] {
        cluster_->drain_node(static_cast<net::NodeId>(ev.node));
      });
      break;
    case ScenarioEvent::Kind::kNodeReplace:
      eq.schedule_at(ev.at, [this, ev] {
        const auto x = static_cast<net::NodeId>(ev.node);
        // The dead card takes its streams with it; their in-flight tails
        // can never complete — that loss is the point of needing a spare.
        if (ev.node < s_.nodes) {
          // A ring member: the stream it sends (index x) and the one
          // feeding it (x-1).
          wls_[x]->abandon();
          wls_[static_cast<std::size_t>((ev.node - 1 + s_.nodes) % s_.nodes)]
              ->abandon();
        } else {
          // A joined card carries only the membership streams into it.
          for (std::size_t i = static_cast<std::size_t>(s_.nodes);
               i < wls_.size(); ++i) {
            if (wls_[i]->receiver().node().id() == x) wls_[i]->abandon();
          }
        }
        gm::Node* spare = &cluster_->replace_node(x);
        cluster_->eq().schedule_after(
            sim::msec(5), [this, spare] { start_membership_stream(*spare); });
      });
      break;
  }
}

// ---- windowed invariant checking (soak mode) ----
// Every check_window of virtual time past kWarmup: a full invariant sweep,
// the drift probes, a digest snapshot (localizes divergence to a window),
// and a roll of the windowed histograms. None of it mutates sim state, so
// the digest formula is byte-identical to legacy runs.

void ScenarioRunner::add_drift_probes() {
  // Drift probes: state that must stay epoch-bounded no matter how long
  // the run. Bounds are callables because the legitimate ceiling moves
  // with cluster size and roster churn.
  gm::Cluster* cluster = cluster_.get();
  sim::EventQueue* eq = &cluster->eq();
  oracle_->add_drift_probe(
      "eq-cancelled-pending",
      [eq] { return static_cast<std::uint64_t>(eq->cancelled_pending()); },
      [eq] {
        // Compaction triggers at cancelled >= 1024 && cancelled >= live;
        // anything far past both is a stale-entry leak.
        return std::max<std::uint64_t>(8192, 2 * eq->pending_events() + 1024);
      });
  oracle_->add_drift_probe(
      "eq-pending-events",
      [eq] { return static_cast<std::uint64_t>(eq->pending_events()); },
      [cluster] {
        // Each node, live or retired-but-simulated, owns a bounded set of
        // timer/link events.
        return 4096 + 1024 * static_cast<std::uint64_t>(cluster->size());
      });
  oracle_->add_drift_probe(
      "windowed-histograms",
      [cluster] {
        std::uint64_t worst = 0;
        for (const auto& [name, h] : cluster->metrics().histograms()) {
          (void)name;
          if (h.windowed()) worst = std::max(worst, h.count());
        }
        return worst;
      },
      [cluster] {
        // Rolled every window; even a remap storm samples ~n^2 route
        // lengths per remap, so sustained growth past this is a roll that
        // stopped happening.
        const auto n = static_cast<std::uint64_t>(cluster->size());
        return 16 * n * n + 65536;
      });
  if (fm_ == nullptr) return;
  mapper::FailoverManager* f = fm_.get();
  oracle_->add_drift_probe(
      "mapper-attach-cache",
      [f] {
        return static_cast<std::uint64_t>(f->mapper().tracked_attach_points());
      },
      [cluster] { return cluster->roster().members().size() + 8; });
  oracle_->add_drift_probe(
      "mapper-route-cache",
      [f] { return static_cast<std::uint64_t>(f->mapper().tracked_routes()); },
      [cluster] { return cluster->roster().members().size() + 8; });
  oracle_->add_drift_probe(
      "fm-remap-retries",
      [f] { return static_cast<std::uint64_t>(f->remap_retries()); },
      [f] {
        // Progress resets the budget; a counter past it means the give-up
        // gate stopped working.
        return static_cast<std::uint64_t>(f->config().max_remap_retries + 1);
      });
  oracle_->add_drift_probe(
      "fm-scrub-strikes",
      [f] { return static_cast<std::uint64_t>(f->scrub_strikes()); },
      [f] {
        return static_cast<std::uint64_t>(f->config().max_scrub_strikes + 1);
      });
}

void ScenarioRunner::window_tick() {
  if (!oracle_->ok()) return;  // first violation recorded; stop sweeping
  oracle_->check_now();
  oracle_->check_drift();
  ++windows_checked_;
  window_digests_.push_back(digest_);
  cluster_->metrics().roll_windowed();
  if (cluster_->eq().now() < horizon_) {
    cluster_->eq().schedule_after(s_.check_window, [this] { window_tick(); });
  }
}

bool ScenarioRunner::nics_quiet() {
  for (int i = 0; i < cluster_->size(); ++i) {
    gm::Node& n = cluster_->node(i);
    if (n.mcp().hung() || (n.has_ftd() && n.ftd().busy())) return false;
  }
  return true;
}

RunReport ScenarioRunner::run() {
  gm::Cluster& cluster = *cluster_;
  cluster.run_for(Scenario::kWarmup);
  for (auto& wl : wls_) wl->start();
  oracle_->attach();
  if (s_.check_window > 0) {
    cluster.eq().schedule_after(s_.check_window, [this] { window_tick(); });
  }

  // The experiment is over when every stream is complete, every scheduled
  // event has fired, and no NIC is still wedged mid-recovery. Returning at
  // first completion would silently skip trailing schedule entries (e.g. a
  // soak's hang train) — the schedule is part of the experiment.
  sim::Time last_event = 0;
  for (const ScenarioEvent& ev : s_.events) {
    last_event = std::max(last_event, ev.at + ev.duration);
  }
  while (cluster.eq().now() < horizon_) {
    cluster.run_for(sim::msec(10));
    if (!oracle_->ok()) break;
    if (cluster.eq().now() < last_event) continue;
    bool all = true;
    for (auto& wl : wls_) all = all && (wl->complete() || wl->abandoned());
    if (all && nics_quiet()) break;
  }
  // Drain ACK tails so tokens come home. A lost terminal ACK is only
  // repaired by the sender's retransmission cycle, so poll for true
  // quiescence (bounded) instead of assuming one RTT is enough.
  for (int i = 0; i < 200; ++i) {
    cluster.run_for(sim::msec(10));
    if (!oracle_->ok()) break;
    bool quiet = true;
    for (auto& wl : wls_) {
      // Abandoned streams never quiesce: their outstanding GBN frames
      // retransmit into the quarantined card's cut cable forever.
      if (wl->abandoned()) continue;
      quiet = quiet && wl->complete() &&
              wl->sender().send_tokens_free() == kTokens;
      if (quiet && s_.mode == mcp::McpMode::kFtgm) {
        quiet = wl->sender().backup().send_count() == 0;
      }
    }
    // Route control plane must settle too: the convergence invariant is
    // only fair to check once retries/scrub had their chance to land.
    if (quiet && nics_quiet() && (fm_ == nullptr || fm_->settled())) break;
  }
  oracle_->final_check();
  if (s_.check_window > 0) oracle_->check_drift();
  oracle_->detach();
  return report();
}

RunReport ScenarioRunner::report() {
  const Oracle& oracle = *oracle_;
  RunReport rep;
  rep.delivered = true;
  for (auto& wl : wls_) {
    StreamOutcome so;
    so.received = wl->received();
    so.duplicates = wl->duplicates();
    so.corrupted = wl->corrupted();
    so.missing = wl->missing();
    so.complete = wl->complete();
    // An abandoned stream's incompleteness is scheduled, not a failure.
    rep.delivered = rep.delivered && (so.complete || wl->abandoned());
    rep.streams.push_back(so);
  }
  rep.oracle_ok = oracle.ok();
  if (!oracle.ok()) {
    rep.violation = oracle.violations().front().invariant;
    rep.violation_detail = oracle.violations().front().detail;
    rep.violation_at = oracle.violations().front().at;
  }
  rep.oracle_checks = oracle.checks_run();
  rep.deliveries = deliveries_;
  rep.windows_checked = windows_checked_;
  rep.drift_checks = oracle.drift_checks_run();
  rep.window_digests = std::move(window_digests_);
  if (!rep.oracle_ok && s_.check_window > 0) {
    rep.violation_window =
        rep.violation_at > Scenario::kWarmup
            ? static_cast<std::int64_t>((rep.violation_at - Scenario::kWarmup) /
                                        s_.check_window)
            : 0;
  }
  for (int i = 0; i < cluster_->size(); ++i) {
    if (cluster_->node(i).has_ftd()) {
      rep.recoveries += cluster_->node(i).ftd().stats().recoveries;
    }
  }
  rep.remaps = fm_ ? fm_->remaps() : 0;
  rep.end_time = cluster_->eq().now();
  rep.events_executed = cluster_->eq().executed();

  std::uint64_t digest = digest_;
  for (const StreamOutcome& so : rep.streams) {
    mix(digest, static_cast<std::uint64_t>(so.received));
    mix(digest, static_cast<std::uint64_t>(so.duplicates));
    mix(digest, static_cast<std::uint64_t>(so.corrupted));
    mix(digest, static_cast<std::uint64_t>(so.missing));
  }
  for (const Oracle::Violation& v : oracle.violations()) {
    mix(digest, v.invariant);
    mix(digest, v.at);
  }
  mix(digest, rep.recoveries);
  mix(digest, rep.remaps);
  rep.digest = digest;
  return rep;
}

// ---- JSON writer ----

std::string Scenario::to_json() const {
  std::string out = "{";
  out += "\"seed\":" + std::to_string(seed);
  out += ",\"topology\":{\"nodes\":" + std::to_string(nodes);
  out += ",\"fabric\":\"" + std::string(net::to_string(fabric)) + '"';
  out += ",\"radix\":" + std::to_string(radix);
  out += ",\"mode\":\"" + std::string(mode_name(mode)) + "\"}";
  out += ",\"workload\":{\"msgs\":" + std::to_string(msgs);
  out += ",\"len\":" + std::to_string(msg_len);
  out += ",\"gap_ns\":" + std::to_string(send_gap) + '}';
  out += ",\"faults\":{\"drop\":" + fmt_double(drop);
  out += ",\"corrupt\":" + fmt_double(corrupt);
  out += ",\"misroute\":" + fmt_double(misroute) + '}';
  out += ",\"horizon_ns\":" + std::to_string(horizon);
  out += ",\"check_window_ns\":" + std::to_string(check_window);
  out += ",\"retain_caches\":";
  out += retain_caches ? "true" : "false";
  out += ",\"schedule\":[";
  bool first = true;
  for (const ScenarioEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"at_ns\":" + std::to_string(ev.at);
    out += ",\"kind\":\"" + std::string(to_string(ev.kind)) + '"';
    out += ",\"node\":" + std::to_string(ev.node);
    out += ",\"cable\":" + std::to_string(ev.cable);
    out += ",\"drop\":" + fmt_double(ev.drop);
    out += ",\"corrupt\":" + fmt_double(ev.corrupt);
    out += ",\"duration_ns\":" + std::to_string(ev.duration);
    out += ",\"offset\":" + std::to_string(ev.offset);
    out += ",\"bit\":" + std::to_string(ev.bit) + '}';
  }
  out += "]}";
  return out;
}

std::string repro_json(const Scenario& s, const RunReport& r) {
  std::string out = s.to_json();
  out.pop_back();  // strip closing brace; append the expect block
  out += ",\"expect\":{\"failed\":";
  out += r.failed() ? "true" : "false";
  out += ",\"signature\":\"" + r.failure_signature() + '"';
  out += ",\"digest\":" + std::to_string(r.digest);
  out += ",\"violation_at_ns\":" + std::to_string(r.violation_at);
  out += ",\"violation_window\":" + std::to_string(r.violation_window);
  out += ",\"windows_checked\":" + std::to_string(r.windows_checked);
  out += "}}";
  return out;
}

bool write_repro(const std::string& path, const Scenario& s,
                 const RunReport& r) {
  std::ofstream f(path);
  if (!f) return false;
  f << repro_json(s, r) << '\n';
  return static_cast<bool>(f);
}

// ---- JSON parser (minimal, schema-focused) ----

namespace {

/// Tiny JSON value: enough structure for the repro schema, nothing more.
/// Numbers keep their raw token so 64-bit seeds/digests round-trip
/// without a double truncating them.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  std::string raw;  // number token or string contents
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    return std::strtoull(raw.c_str(), nullptr, 10);
  }
  [[nodiscard]] double as_double() const {
    return std::strtod(raw.c_str(), nullptr);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  std::optional<JsonValue> parse(std::string* err) {
    std::optional<JsonValue> v = value();
    skip_ws();
    if (!v || pos_ != s_.size()) {
      if (err != nullptr) {
        *err = error_.empty() ? "trailing garbage at byte " +
                                    std::to_string(pos_)
                              : error_;
      }
      return std::nullopt;
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end");
      return std::nullopt;
    }
    JsonValue v;
    const char c = s_[pos_];
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::optional<std::string> key = string_token();
        if (!key) return std::nullopt;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          fail("expected ':'");
          return std::nullopt;
        }
        ++pos_;
        std::optional<JsonValue> member = value();
        if (!member) return std::nullopt;
        v.obj.emplace_back(std::move(*key), std::move(*member));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return v;
        }
        fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        std::optional<JsonValue> elem = value();
        if (!elem) return std::nullopt;
        v.arr.push_back(std::move(*elem));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return v;
        }
        fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> str = string_token();
      if (!str) return std::nullopt;
      v.type = JsonValue::Type::kString;
      v.raw = std::move(*str);
      return v;
    }
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      v.type = JsonValue::Type::kBool;
      v.b = true;
      return v;
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return v;
    }
    // Number token.
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("unexpected character");
      return std::nullopt;
    }
    v.type = JsonValue::Type::kNumber;
    v.raw = s_.substr(start, pos_ - start);
    return v;
  }

  std::optional<std::string> string_token() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        else if (c == 't') c = '\t';
        // '"' and '\\' pass through as themselves.
      }
      out += c;
    }
    if (pos_ >= s_.size()) {
      fail("unterminated string");
      return std::nullopt;
    }
    ++pos_;  // closing quote
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::uint64_t u64_field(const JsonValue& obj, const std::string& key,
                        std::uint64_t def = 0) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->as_u64()
                                                             : def;
}

double double_field(const JsonValue& obj, const std::string& key,
                    double def = 0.0) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type == JsonValue::Type::kNumber ? v->as_double()
                                                             : def;
}

std::string string_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->type == JsonValue::Type::kString ? v->raw
                                                             : std::string();
}

}  // namespace

std::optional<Scenario> Scenario::from_json(const std::string& text,
                                            std::string* err) {
  auto set_err = [err](const std::string& what) {
    if (err != nullptr) *err = what;
  };
  std::optional<JsonValue> root = JsonParser(text).parse(err);
  if (!root) return std::nullopt;
  if (root->type != JsonValue::Type::kObject) {
    set_err("top level is not an object");
    return std::nullopt;
  }

  Scenario s;
  s.seed = u64_field(*root, "seed", s.seed);
  if (const JsonValue* topo = root->find("topology")) {
    s.nodes = static_cast<int>(u64_field(*topo, "nodes", 2));
    s.radix = static_cast<std::uint8_t>(u64_field(*topo, "radix", 8));
    const std::string fab = string_field(*topo, "fabric");
    if (!fab.empty()) {
      const auto p = net::parse_fabric_preset(fab);
      if (!p) {
        set_err("unknown fabric preset: " + fab);
        return std::nullopt;
      }
      s.fabric = *p;
    }
    const std::string mode = string_field(*topo, "mode");
    if (!mode.empty()) {
      if (mode != "gm" && mode != "ftgm") {
        set_err("unknown mode: " + mode);
        return std::nullopt;
      }
      s.mode = mode == "gm" ? mcp::McpMode::kGm : mcp::McpMode::kFtgm;
    }
  }
  if (const JsonValue* wl = root->find("workload")) {
    s.msgs = static_cast<int>(u64_field(*wl, "msgs", 25));
    s.msg_len = static_cast<std::uint32_t>(u64_field(*wl, "len", 1800));
    s.send_gap = u64_field(*wl, "gap_ns", 0);
  }
  if (const JsonValue* f = root->find("faults")) {
    s.drop = double_field(*f, "drop");
    s.corrupt = double_field(*f, "corrupt");
    s.misroute = double_field(*f, "misroute");
  }
  s.horizon = u64_field(*root, "horizon_ns", 0);
  s.check_window = u64_field(*root, "check_window_ns", 0);
  if (const JsonValue* rc = root->find("retain_caches")) {
    s.retain_caches = rc->type == JsonValue::Type::kBool && rc->b;
  }
  if (const JsonValue* sched = root->find("schedule")) {
    if (sched->type != JsonValue::Type::kArray) {
      set_err("schedule is not an array");
      return std::nullopt;
    }
    for (const JsonValue& e : sched->arr) {
      ScenarioEvent ev;
      ev.at = u64_field(e, "at_ns");
      const auto kind = parse_kind(string_field(e, "kind"));
      if (!kind) {
        set_err("unknown event kind: " + string_field(e, "kind"));
        return std::nullopt;
      }
      ev.kind = *kind;
      ev.node = static_cast<int>(u64_field(e, "node"));
      ev.cable = static_cast<int>(u64_field(e, "cable"));
      ev.drop = double_field(e, "drop");
      ev.corrupt = double_field(e, "corrupt");
      ev.duration = u64_field(e, "duration_ns");
      ev.offset = static_cast<std::uint32_t>(u64_field(e, "offset"));
      ev.bit = static_cast<unsigned>(u64_field(e, "bit"));
      s.events.push_back(ev);
    }
  }
  const std::string bad = s.validate();
  if (!bad.empty()) {
    set_err(bad);
    return std::nullopt;
  }
  return s;
}

std::optional<ReproExpect> parse_repro_expect(const std::string& text) {
  std::optional<JsonValue> root = JsonParser(text).parse(nullptr);
  if (!root || root->type != JsonValue::Type::kObject) return std::nullopt;
  const JsonValue* exp = root->find("expect");
  if (exp == nullptr || exp->type != JsonValue::Type::kObject) {
    return std::nullopt;
  }
  ReproExpect out;
  const JsonValue* failed = exp->find("failed");
  out.failed = failed != nullptr && failed->b;
  out.signature = string_field(*exp, "signature");
  out.digest = u64_field(*exp, "digest");
  return out;
}

}  // namespace myri::fi
