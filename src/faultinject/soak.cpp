#include "faultinject/soak.hpp"

#include <algorithm>

#include "sim/rng.hpp"

namespace myri::fi {

namespace {

/// One draw of a track's inter-arrival time: every/2 + uniform(every),
/// so arrivals are jittered but never closer than half the mean — the
/// spacing that keeps per-kind recoveries from piling onto each other.
sim::Time gap(sim::Rng& rng, sim::Time every) {
  return every / 2 + rng.below(every);
}

}  // namespace

Scenario make_soak_scenario(const SoakProfile& p) {
  Scenario s;
  s.seed = p.seed;
  s.nodes = p.nodes;
  s.fabric = p.fabric;
  s.radix = p.radix;
  s.mode = mcp::McpMode::kFtgm;
  s.msg_len = p.msg_len;
  s.send_gap = p.send_gap;
  s.drop = p.drop;
  s.corrupt = p.corrupt;
  s.check_window = p.window;
  s.retain_caches = p.retain_caches;
  s.horizon = Scenario::kWarmup + p.duration;

  // Ring streams sized to span the soak yet finish comfortably inside it
  // even after hang/outage stalls push their pacing clocks back.
  const sim::Time margin = std::max<sim::Time>(sim::sec(30), p.duration / 20);
  if (p.send_gap > 0 && p.duration > margin) {
    const std::uint64_t m = (p.duration - margin) / p.send_gap;
    s.msgs = static_cast<int>(std::clamp<std::uint64_t>(m, 1, 100'000));
  } else {
    // Too short for the margin: 25 messages, which complete in the
    // runner's 2 s drain past the horizon for any soak of 5 s or more.
    // A shorter soak sends one message per send_gap of its duration, so
    // the last send leaves before the horizon.
    s.msgs = 25;
    if (p.send_gap > 0 &&
        (s.msgs - 1) * p.send_gap >= p.duration + sim::sec(2)) {
      s.msgs = static_cast<int>(
          std::max<std::uint64_t>(p.duration / p.send_gap, 1));
    }
  }

  // The generator's RNG stream is distinct from the cluster's (which is
  // seeded with s.seed directly), so schedule shape and link noise stay
  // independent draws of the same knob.
  sim::Rng rng(p.seed ^ 0x9e3779b97f4a7c15ull);

  // Every track stops with runway for its last recovery to clear before
  // the horizon. Too short for that: an idle (fault-free) soak.
  const sim::Time tail = sim::sec(16);
  if (p.duration <= tail) return s;
  const sim::Time end = p.duration - tail;

  auto push = [&s](ScenarioEvent ev, sim::Time offset) {
    ev.at = Scenario::kWarmup + offset;
    s.events.push_back(ev);
  };

  // -- NIC hangs: odd ring ids in [1, nodes-2]. Node 0 (mapper home and
  //    membership-stream sender) and the replace victim (nodes-1) are
  //    never hung; flips take the even ids so no node is ever hung and
  //    flipped at once.
  if (p.hang_every > 0 && p.nodes >= 4) {
    const std::uint64_t odd = static_cast<std::uint64_t>(p.nodes - 1) / 2;
    for (sim::Time t = gap(rng, p.hang_every); t < end;
         t += gap(rng, p.hang_every)) {
      ScenarioEvent ev;
      ev.kind = ScenarioEvent::Kind::kNicHang;
      ev.node = static_cast<int>(1 + 2 * rng.below(odd));
      push(ev, t);
    }
  }

  // -- SRAM flips: even ring ids in [2, nodes-2].
  if (p.flip_every > 0 && p.nodes >= 6) {
    const std::uint64_t even = static_cast<std::uint64_t>(p.nodes - 2) / 2;
    for (sim::Time t = gap(rng, p.flip_every); t < end;
         t += gap(rng, p.flip_every)) {
      ScenarioEvent ev;
      ev.kind = ScenarioEvent::Kind::kSramFlip;
      ev.node = static_cast<int>(2 + 2 * rng.below(even));
      ev.offset = static_cast<std::uint32_t>(rng.below(1 << 16));
      ev.bit = static_cast<unsigned>(rng.below(8));
      push(ev, t);
    }
  }

  // -- Trunk outages: down for cable_outage, then restored; the next cut
  //    waits out the restore plus settle time, so at most one trunk is
  //    ever missing (what ring/fat-tree redundancy tolerates).
  std::size_t trunks = 0;
  if (p.fabric != net::FabricPreset::kSingleSwitch) {
    sim::EventQueue eq;
    sim::Rng r(0);
    net::Topology topo(eq, r);
    const net::FabricBuilder fb(topo, {p.fabric, p.nodes, p.radix});
    trunks = fb.trunk_cables().size();
  }
  if (p.cable_every > 0 && p.cable_outage > 0 && trunks > 0) {
    sim::Time t = sim::msec(500) + rng.below(p.cable_every);
    while (t + p.cable_outage < end) {
      const int cable = static_cast<int>(rng.below(trunks));
      ScenarioEvent down;
      down.kind = ScenarioEvent::Kind::kCableDown;
      down.cable = cable;
      push(down, t);
      ScenarioEvent up;
      up.kind = ScenarioEvent::Kind::kCableUp;
      up.cable = cable;
      push(up, t + p.cable_outage);
      t += p.cable_outage + sim::msec(500) + gap(rng, p.cable_every);
    }
  }

  // -- Loss windows: elevated drop/corrupt for loss_len, never
  //    overlapping (baseline rates restore between windows).
  if (p.loss_every > 0 && p.loss_len > 0) {
    for (sim::Time t = gap(rng, p.loss_every); t + p.loss_len < end;
         t += std::max<sim::Time>(gap(rng, p.loss_every),
                                  p.loss_len + sim::msec(100))) {
      ScenarioEvent ev;
      ev.kind = ScenarioEvent::Kind::kFaultWindow;
      ev.duration = p.loss_len;
      ev.drop = p.loss_drop;
      ev.corrupt = p.loss_corrupt;
      push(ev, t);
    }
  }

  // -- Membership churn: one joiner at a time. Join at t, drain it at
  //    t + churn/2, next join at t + churn — by then the drained port has
  //    been credited back (validate() charges the credit at drain +
  //    kRecoveryAllowance, hence the >= 10 s clamp). Joins and replaces
  //    share the membership-stream budget: stream sender ports on node 0
  //    are numbered 4 + k in a uint8_t, so the combined count is capped.
  int membership_streams = 0;
  constexpr int kMaxMembershipStreams = 180;
  if (p.churn_every > 0 && p.nodes >= 3) {
    const sim::Time churn = std::max<sim::Time>(p.churn_every, sim::sec(10));
    int next_id = p.nodes;
    for (sim::Time t = churn / 2; t + churn / 2 + sim::sec(8) < end;
         t += churn) {
      if (membership_streams >= kMaxMembershipStreams) break;
      ScenarioEvent join;
      join.kind = ScenarioEvent::Kind::kNodeJoin;
      push(join, t);
      ScenarioEvent drain;
      drain.kind = ScenarioEvent::Kind::kNodeDrain;
      drain.node = next_id++;
      push(drain, t + churn / 2);
      ++membership_streams;
    }
  }

  // -- Node replacement: always the same ring victim (nodes-1). Its two
  //    ring streams are abandoned on the first swap; the verification
  //    stream into each fresh spare proves it serves traffic.
  if (p.replace_every > 0 && p.nodes >= 3) {
    for (sim::Time t = gap(rng, p.replace_every); t < end;
         t += gap(rng, p.replace_every)) {
      if (membership_streams >= kMaxMembershipStreams) break;
      ScenarioEvent ev;
      ev.kind = ScenarioEvent::Kind::kNodeReplace;
      ev.node = p.nodes - 1;
      push(ev, t);
      ++membership_streams;
    }
  }

  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  return s;
}

}  // namespace myri::fi
