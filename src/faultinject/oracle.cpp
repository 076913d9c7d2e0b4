#include "faultinject/oracle.hpp"

#include <string>

#include "faultinject/workload.hpp"
#include "mapper/failover.hpp"

namespace myri::fi {

Oracle::Oracle(gm::Cluster& cluster) : cluster_(cluster) {}

Oracle::~Oracle() { detach(); }

void Oracle::watch(StreamWorkload& wl, std::uint32_t send_tokens,
                   std::uint32_t recv_tokens) {
  const std::size_t i = streams_.size();
  streams_.push_back(Stream{&wl, send_tokens, recv_tokens, 0});
  const auto [tx, fresh_tx] = by_sender_.try_emplace(&wl.sender(), i);
  if (!fresh_tx && send_tokens < streams_[tx->second].send_tokens) {
    tx->second = i;
  }
  gm::Port& rx_port = wl.receiver();
  const auto [rx, fresh_rx] = by_receiver_.try_emplace(
      RecvPort{&rx_port.node().mcp(), rx_port.id()}, i);
  if (!fresh_rx && recv_tokens < streams_[rx->second].recv_tokens) {
    rx->second = i;
  }
}

void Oracle::attach() {
  attached_ = true;
  cluster_.eq().set_checks(this);
  check_now();
}

void Oracle::detach() {
  if (!attached_) return;
  attached_ = false;
  cluster_.eq().set_checks(nullptr);
}

void Oracle::violate(const std::string& invariant,
                     const std::string& detail) {
  // Keep the first violation only: everything after it is cascade noise
  // (a duplicate delivery also desynchronizes the FIFO cursor, ...).
  if (!violations_.empty()) return;
  violations_.push_back(Violation{cluster_.eq().now(), invariant, detail});
}

void Oracle::on_delivery(std::size_t stream, int msg) {
  if (!ok() || stream >= streams_.size()) return;
  Stream& s = streams_[stream];
  const std::string where =
      "stream " + std::to_string(stream) + ": ";
  if (msg < 0) {
    violate("stream-corruption", where + "delivered payload failed verify");
  } else if (msg < s.next_msg) {
    violate("stream-exactly-once",
            where + "msg " + std::to_string(msg) + " delivered again (next=" +
                std::to_string(s.next_msg) + ")");
  } else if (msg > s.next_msg) {
    violate("stream-fifo", where + "expected msg " +
                               std::to_string(s.next_msg) + ", got " +
                               std::to_string(msg));
  } else {
    ++s.next_msg;
  }
  if (ok()) check_stream(stream);
}

// ---- change points ----

void Oracle::link_delivered(const net::Link& link) {
  if (ok()) check_link(link);
}

void Oracle::send_token_returned(const gm::Port& port) {
  if (!ok()) return;
  const auto it = by_sender_.find(&port);
  if (it != by_sender_.end()) check_send_tokens(it->second);
}

void Oracle::recv_token_added(const mcp::Mcp& mcp, std::uint8_t port) {
  if (!ok()) return;
  const auto it = by_receiver_.find(RecvPort{&mcp, port});
  if (it != by_receiver_.end()) check_recv_tokens(it->second);
}

void Oracle::ftd_counted(const core::Ftd& ftd) {
  if (ok()) check_ftd(ftd);
}

void Oracle::add_drift_probe(std::string name,
                             std::function<std::uint64_t()> sample,
                             std::function<std::uint64_t()> bound) {
  drift_probes_.push_back(
      DriftProbe{std::move(name), std::move(sample), std::move(bound)});
}

void Oracle::check_drift() {
  if (!ok()) return;
  ++drift_checks_;
  for (const DriftProbe& p : drift_probes_) {
    if (!ok()) break;
    const std::uint64_t v = p.sample();
    const std::uint64_t b = p.bound();
    if (v > b) {
      violate("state-drift", p.name + ": " + std::to_string(v) +
                                 " past bound " + std::to_string(b));
    }
  }
}

void Oracle::check_now() {
  if (!ok()) return;
  ++checks_;
  for (std::size_t i = 0; i < streams_.size() && ok(); ++i) check_stream(i);
  for (std::size_t i = 0; i < streams_.size() && ok(); ++i) {
    check_send_tokens(i);
    if (ok()) check_recv_tokens(i);
  }
  for (int i = 0; i < cluster_.size() && ok(); ++i) {
    gm::Node& n = cluster_.node(i);
    if (n.has_ftd()) check_ftd(n.ftd());
  }
  for (const net::Link* l : cluster_.topo().links()) {
    if (!ok()) break;
    check_link(*l);
  }
}

void Oracle::check_stream(std::size_t i) {
  const StreamWorkload& wl = *streams_[i].wl;
  if (wl.duplicates() > 0) {
    violate("stream-exactly-once", "stream " + std::to_string(i) + ": " +
                                       std::to_string(wl.duplicates()) +
                                       " duplicate(s)");
  } else if (wl.corrupted() > 0) {
    violate("stream-corruption", "stream " + std::to_string(i) + ": " +
                                     std::to_string(wl.corrupted()) +
                                     " corrupted");
  }
}

void Oracle::check_send_tokens(std::size_t i) {
  const Stream& s = streams_[i];
  const std::uint32_t free = s.wl->sender().send_tokens_free();
  if (free > s.send_tokens) {
    violate("token-conservation",
            "stream " + std::to_string(i) + ": sender has " +
                std::to_string(free) + " send tokens free, allotment is " +
                std::to_string(s.send_tokens));
  }
}

void Oracle::check_recv_tokens(std::size_t i) {
  const Stream& s = streams_[i];
  const std::size_t held =
      s.wl->receiver().node().mcp().recv_tokens_held(s.wl->receiver().id());
  if (held > s.recv_tokens) {
    violate("token-conservation",
            "stream " + std::to_string(i) + ": LANai holds " +
                std::to_string(held) + " recv tokens, allotment is " +
                std::to_string(s.recv_tokens));
  }
}

void Oracle::check_ftd(const core::Ftd& ftd) {
  const auto& st = ftd.stats();
  if (st.false_alarms == 0 && st.recoveries <= st.wakeups) return;
  // Name the card: the FTD of a member, or of a card since replaced.
  std::string who = "a replaced card";
  for (int i = 0; i < cluster_.size(); ++i) {
    gm::Node& n = cluster_.node(i);
    if (n.has_ftd() && &n.ftd() == &ftd) who = n.name();
  }
  if (st.false_alarms != 0) {
    violate("watchdog-soundness",
            who + ": " + std::to_string(st.false_alarms) + " false alarm(s)");
  } else {
    violate("watchdog-soundness",
            who + ": " + std::to_string(st.recoveries) +
                " recoveries from " + std::to_string(st.wakeups) +
                " wakeups");
  }
}

void Oracle::check_link(const net::Link& link) {
  const auto& st = link.stats();
  if (st.delivered_bytes > st.offered_bytes || st.delivered > st.sent) {
    violate("link-conservation",
            "link " + link.name() + ": delivered exceeds offered (" +
                std::to_string(st.delivered_bytes) + " > " +
                std::to_string(st.offered_bytes) + " bytes)");
  }
}

void Oracle::final_check() {
  if (!ok()) return;
  check_now();
  if (!ok()) return;
  check_membership();
  if (!ok()) return;
  // Quiescence: only meaningful once every stream finished and the
  // cluster drained — mid-flight tokens are legitimately outstanding.
  // Abandoned streams (endpoint replaced mid-run) are excused: their
  // tails are scheduled losses, their tokens stranded on the dead card.
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Stream& s = streams_[i];
    if (!s.wl->complete() && !s.wl->abandoned()) return;
  }
  for (std::size_t i = 0; i < streams_.size() && ok(); ++i) {
    Stream& s = streams_[i];
    if (s.wl->abandoned()) continue;
    const std::uint32_t free = s.wl->sender().send_tokens_free();
    if (free != s.send_tokens) {
      violate("quiescence", "stream " + std::to_string(i) +
                                ": only " + std::to_string(free) + "/" +
                                std::to_string(s.send_tokens) +
                                " send tokens back after completion");
    } else if (cluster_.config().mode == mcp::McpMode::kFtgm &&
               s.wl->sender().backup().send_count() != 0) {
      violate("quiescence",
              "stream " + std::to_string(i) + ": " +
                  std::to_string(s.wl->sender().backup().send_count()) +
                  " send backups outstanding after completion");
    }
  }
  check_route_convergence();
}

void Oracle::check_membership() {
  // A drain must terminate: once every stream to the victim quiesces the
  // cluster retires it. Still draining ~1 s after the drain started at
  // end-of-run means the handshake wedged (an admission leak keeps
  // feeding it, or the quiescence poll lost its timer).
  if (!ok()) return;
  for (const gm::RosterEvent& ev : cluster_.roster().history()) {
    if (ev.kind != gm::MembershipChange::kDrain) continue;
    if (cluster_.roster().is_draining(ev.node) &&
        cluster_.eq().now() - ev.at > sim::sec(1)) {
      violate("membership",
              "node " + std::to_string(ev.node) +
                  " still draining " +
                  std::to_string((cluster_.eq().now() - ev.at) / 1000000) +
                  " ms after drain started (never retired)");
    }
  }
}

void Oracle::check_route_convergence() {
  // Every node the mapper's table names must hold the mapper's current
  // epoch completely once the run quiesced — the control plane promises
  // retries/scrub/announce eventually repair any lag, so a node still
  // behind here is a lost-update bug, not latency.
  if (!ok() || route_authority_ == nullptr) return;
  // A repair loop that ran its budgets into silence is a failure in its
  // own right — it used to read as "settled" and digest as success.
  if (route_authority_->gave_up()) {
    violate("route-convergence",
            "failover manager gave up: remap/scrub budgets exhausted with "
            "the fabric not fully converged");
    return;
  }
  const mapper::Mapper& m = route_authority_->mapper();
  if (m.epoch() == 0) return;  // never mapped: nothing to converge to
  // Roster interface count: a node expected up at horizon that the final
  // map never discovered has no table entry to lag behind — without this
  // check it would be invisible to the epoch loop below.
  for (const net::NodeId node : expected_roster_) {
    if (!ok()) break;
    if (node >= static_cast<net::NodeId>(cluster_.size())) continue;
    // The scenario's timeline is a static prediction; the cluster's
    // roster is the membership truth. A node the roster retired (a drain
    // that finished earlier than predicted) is legitimately unmapped.
    if (!cluster_.roster().is_member(node)) continue;
    if (!m.has_row(node)) {
      violate("route-convergence",
              cluster_.node(node).name() +
                  ": expected up at horizon but absent from the final map "
                  "(" + std::to_string(m.table_nodes().size()) + " of " +
                  std::to_string(expected_roster_.size()) +
                  " expected interfaces mapped)");
    }
  }
  for (const net::NodeId node : m.table_nodes()) {
    if (!ok()) break;
    if (node >= static_cast<net::NodeId>(cluster_.size())) continue;
    const std::uint32_t got = cluster_.node(node).route_epoch();
    if (got != m.epoch()) {
      violate("route-convergence",
              cluster_.node(node).name() + ": installed route epoch " +
                  std::to_string(got) + ", mapper is at " +
                  std::to_string(m.epoch()));
    }
  }
}

}  // namespace myri::fi
