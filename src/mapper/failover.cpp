#include "mapper/failover.hpp"

#include <algorithm>
#include <vector>

namespace myri::mapper {

namespace {
std::vector<std::uint64_t> route_len_bounds() {
  // Routes are a handful of bytes (one per traversed switch): linear
  // 1..16 buckets beat the registry's exponential time defaults.
  std::vector<std::uint64_t> b;
  for (std::uint64_t i = 1; i <= 16; ++i) b.push_back(i);
  return b;
}
}  // namespace

FailoverManager::FailoverManager(gm::Cluster& cluster, Config cfg)
    : cluster_(cluster),
      cfg_(cfg),
      mapper_(cluster.node(cfg.home_node), cfg.mapper) {
  metrics::Registry& reg = cluster_.metrics();
  cable_events_ = &reg.counter("fabric.cable_events");
  views_.expose(reg, "fabric.failover.remaps", remaps_);
  views_.expose(reg, "fabric.failover.failed_remaps", failed_);
  remap_ns_ = &reg.histogram("fabric.failover.remap_ns");
  route_len_ = &reg.histogram("fabric.route_len_hops", route_len_bounds());
  // Snapshot semantics: holds only the current epoch's routes (reset on
  // every remap by record_route_lengths). Marked windowed so generic
  // window rollers (Registry::roll_windowed, driven by soak mode) and the
  // drift oracle's bounded-accumulation probe know it never accumulates.
  route_len_->set_windowed();
  mapper_.bind_metrics(reg);
  cluster_.topo().set_cable_listener(
      [this](net::Topology::CableId id, bool down) {
        on_cable_event(id, down);
      });
  joins_ = &reg.counter("mapper.joins");
  drains_ = &reg.counter("mapper.drains");
  replaces_ = &reg.counter("mapper.replaces");
  // The fabric roster: scrub() census-probes roster nodes the map never
  // discovered, and convergence is only "full" once all of them are in.
  mapper_.set_expected_roster(cluster_.roster().members());
  // Membership deltas are first-class control-plane events: a clean join
  // folds in via census (no full remap), a retirement evicts the node
  // from the map and the cross-epoch caches, a replacement re-pushes the
  // table to the fresh card.
  cluster_.set_membership_listener(
      [this](const gm::RosterEvent& ev) { on_roster_event(ev); });
  // A node the current map does not contain announced itself or answered
  // a census probe (it was hung through discovery and just recovered):
  // fold it back in with a remap.
  mapper_.set_on_node_returned([this](net::NodeId) {
    on_progress();
    request_remap();
  });
  // Any sign of life from a missing/lagging card resets the retry budgets
  // (self-healing: an outage longer than the budget still converges once
  // the node is back, with no external trigger).
  mapper_.set_on_progress([this] { on_progress(); });
}

void FailoverManager::on_roster_event(const gm::RosterEvent& ev) {
  switch (ev.kind) {
    case gm::MembershipChange::kJoin: {
      metrics::bump(joins_);
      // Tell the mapper where the new card is cabled so a census probe
      // reaches it before any discovery has scouted it.
      const net::Placement& at = cluster_.fabric().placements()[ev.node];
      mapper_.note_attach(
          ev.node, DeviceRef{net::DeviceKind::kSwitch, at.sw}.key(), at.port);
      mapper_.set_expected_roster(cluster_.roster().members());
      if (mapper_.epoch() == 0) {
        // Nothing mapped yet: the initial bring-up remap covers the
        // joiner along with everyone else.
        request_remap();
        break;
      }
      // Clean join: no full remap. The scrub/census loop probes the new
      // attach point; the announce/scout answer folds the node in and
      // bumps the route epoch for just the affected rows.
      on_progress();
      mapper_.scrub();
      if (!fully_converged()) arm_scrub();
      break;
    }
    case gm::MembershipChange::kDrain:
      metrics::bump(drains_);
      // Still a member while draining: admission control is the nodes'
      // business, the map keeps routing its in-flight traffic.
      mapper_.set_expected_roster(cluster_.roster().members());
      break;
    case gm::MembershipChange::kRetire:
      mapper_.retire_node(ev.node);
      mapper_.set_expected_roster(cluster_.roster().members());
      break;
    case gm::MembershipChange::kReplace: {
      metrics::bump(replaces_);
      const net::Placement& at = cluster_.fabric().placements()[ev.node];
      mapper_.note_attach(
          ev.node, DeviceRef{net::DeviceKind::kSwitch, at.sw}.key(), at.port);
      mapper_.node_replaced(ev.node);
      mapper_.set_expected_roster(cluster_.roster().members());
      on_progress();
      if (!fully_converged()) arm_scrub();
      break;
    }
    case gm::MembershipChange::kSeed:
      mapper_.set_expected_roster(cluster_.roster().members());
      break;
  }
}

void FailoverManager::on_cable_event(net::Topology::CableId, bool) {
  metrics::bump(cable_events_);
  on_progress();  // fresh external trigger: fresh retry budgets
  request_remap();
}

void FailoverManager::on_progress() {
  remap_retries_ = 0;
  scrub_strikes_ = 0;
  if (gave_up_) {
    // The repair loop had stopped into silence; a sign of life revives it.
    gave_up_ = false;
    if (!fully_converged()) arm_scrub();
  }
}

void FailoverManager::request_remap() {
  if (running_) {
    // Routes computed from the pre-event map may already be stale when
    // they land; queue exactly one follow-up remap.
    rerun_ = true;
    return;
  }
  if (!pending_) {
    pending_ = true;
    trigger_time_ = cluster_.eq().now();
    cluster_.eq().post_after(cfg_.debounce, [this] {
      pending_ = false;
      start_remap();
    });
  }
}

void FailoverManager::remap_now(std::function<void(bool)> done) {
  user_done_ = std::move(done);
  if (running_) {
    rerun_ = true;
    return;
  }
  trigger_time_ = cluster_.eq().now();
  start_remap();
}

void FailoverManager::start_remap() {
  running_ = true;
  mapper_.run([this](bool ok) { finish_remap(ok); });
}

void FailoverManager::finish_remap(bool ok) {
  running_ = false;
  metrics::observe(remap_ns_, cluster_.eq().now() - trigger_time_);
  if (ok) {
    ++remaps_;
    record_route_lengths();
    if (mapper_.interfaces().size() >=
        static_cast<std::size_t>(cluster_.size())) {
      remap_retries_ = 0;
    } else if (!rerun_) {
      // Short map: a node the cluster owns did not answer its scout (hung
      // card, probe lost to a lossy window). Its old routes stay installed
      // everywhere, but a remap is the only way to fold it back in.
      schedule_remap_retry();
    }
    if (!fully_converged()) arm_scrub();
  } else {
    ++failed_;
    if (!rerun_) schedule_remap_retry();
  }
  if (rerun_) {
    rerun_ = false;
    trigger_time_ = cluster_.eq().now();
    start_remap();
    return;
  }
  if (user_done_) {
    auto cb = std::move(user_done_);
    user_done_ = nullptr;
    cb(ok);
  }
}

void FailoverManager::schedule_remap_retry() {
  if (retry_pending_) return;
  if (remap_retries_ >= cfg_.max_remap_retries) {
    // Out of remap patience into silence (progress would have reset the
    // budget). The scrub/census loop, if armed, keeps probing and can
    // still revive things; with nothing armed the control plane has
    // formally given up — visible via gave_up(), never as quiet success.
    if (!scrub_armed_) gave_up_ = true;
    return;
  }
  retry_pending_ = true;
  const sim::Time wait = cfg_.remap_retry_backoff
                         << std::min<std::uint32_t>(remap_retries_, 3);
  ++remap_retries_;
  cluster_.eq().post_after(wait, [this] {
    retry_pending_ = false;
    if (running_ || pending_) return;  // something else already remapping
    trigger_time_ = cluster_.eq().now();
    start_remap();
  });
}

void FailoverManager::arm_scrub() {
  if (scrub_armed_) return;
  scrub_armed_ = true;
  cluster_.eq().post_after(cfg_.scrub_interval, [this] {
    scrub_armed_ = false;
    if (mapper_.epoch() == 0) return;
    if (running_ || pending_) {
      arm_scrub();  // remap in flight; re-check after it lands
      return;
    }
    if (fully_converged() && mapper_.distribution_idle()) {
      scrub_strikes_ = 0;
      return;  // done; the next trigger re-arms
    }
    if (++scrub_strikes_ > cfg_.max_scrub_strikes) {
      // Strikes of probing into pure silence: stop so the event queue
      // can drain. A later announce revives the loop via on_progress().
      gave_up_ = true;
      return;
    }
    mapper_.scrub();
    arm_scrub();
  });
}

bool FailoverManager::settled() const {
  if (running_ || pending_ || retry_pending_) return false;
  if (!mapper_.distribution_idle()) return false;
  if (mapper_.epoch() == 0 || fully_converged()) return true;
  // Unconverged: settled only in the terminal give-up state. While the
  // scrub/census loop is still armed, repair is still in flight — a
  // runner must keep waiting (budget exhaustion alone used to read as
  // "settled", silently passing unconverged fabrics off as success).
  return gave_up_ && !scrub_armed_;
}

void FailoverManager::record_route_lengths() {
  // Snapshot of the CURRENT epoch's routes: re-observing every pair on
  // every remap would skew the percentiles toward the most-remapped
  // topology (and count pairs, not routes, across the run). The reset is
  // this histogram's window roll (it is marked windowed at registration);
  // soak mode additionally rolls all windowed histograms per check
  // window via Registry::roll_windowed().
  route_len_->reset();
  const std::vector<std::uint64_t> counts = mapper_.route_length_counts();
  for (std::size_t len = 0; len < counts.size(); ++len) {
    metrics::observe(route_len_, len, counts[len]);
  }
}

}  // namespace myri::mapper
