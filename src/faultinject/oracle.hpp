// Continuous cluster-wide invariant oracle.
//
// The hand-written sweeps only asserted invariants at end-of-run: a
// violation that appeared and healed mid-run (a duplicate delivery later
// compensated, a token leak refilled by recovery) was invisible. The
// Oracle attaches to the cluster's event queue as its sim::Checks and
// checks each local DESIGN.md invariant in O(1) at the point where its
// state changes: a link's arrival, a port getting a send token back, a
// card taking a receive token, an FTD counting, a stream delivery. A
// violation is pinned to the virtual instant it appears, and nothing is
// swept per event. Full sweeps (check_now) are the backstop: one at
// attach, one per soak window (the runner's window tick) and one in
// final_check.
//
//   stream-fifo          per-stream delivery indices strictly ascend by 1
//   stream-exactly-once  no message index delivered twice
//   stream-corruption    no delivered payload fails verification
//                        (the three stream checks: at every delivery)
//   token-conservation   a port never holds more tokens than configured
//                        (when a port gets a send token back and when a
//                        card takes a receive token)
//   watchdog-soundness   no false alarms; recoveries never exceed wakeups
//                        (when an FTD counts any of the three)
//   link-conservation    per link, delivered <= offered bytes and
//                        delivered <= sent packets (a link never delivers
//                        more than it was handed; at every arrival)
//   quiescence           after all streams complete and the cluster
//                        drains: all send tokens free, FTGM send backups
//                        empty (final_check only; streams abandoned to a
//                        node replacement are excused)
//   membership           a started drain terminates: the victim must be
//                        retired, not still draining, ~1 s after the
//                        drain began (final_check only)
//   route-convergence    after quiesce, every node in the mapper's table
//                        holds the mapper's current route epoch
//                        completely, every node expected up at horizon is
//                        present in the map at all (roster interface
//                        count, see set_expected_roster), and the
//                        failover manager did not give up its repair loop
//                        (final_check only; needs a route authority, see
//                        set_route_authority)
//   state-drift          no registered drift probe samples past its bound
//                        (check_drift only; soak mode samples per check
//                        window). Probes watch state that must stay
//                        epoch-bounded over an arbitrarily long run:
//                        event-queue occupancy, mapper cross-epoch cache
//                        sizes, windowed-histogram sample counts, retry
//                        budget counters. Unbounded growth is a leak even
//                        when every delivery invariant still holds.
//
// The first violation is recorded with its virtual timestamp and checking
// stops (later checks would cascade). The oracle is deterministic: its
// violation list feeds the run's outcome digest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gm/cluster.hpp"
#include "sim/checks.hpp"
#include "sim/time.hpp"

namespace myri::mapper {
class FailoverManager;
}  // namespace myri::mapper

namespace myri::fi {

class StreamWorkload;

class Oracle final : private sim::Checks {
 public:
  struct Violation {
    sim::Time at = 0;
    std::string invariant;  // stable name, see table above
    std::string detail;
  };

  explicit Oracle(gm::Cluster& cluster);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Register a stream and the token allotment of the two ports carrying
  /// it. Call once per stream before attach().
  void watch(StreamWorkload& wl, std::uint32_t send_tokens,
             std::uint32_t recv_tokens);

  /// Become the event queue's point-of-change checker and run one full
  /// sweep (anything already wrong when checking starts).
  void attach();
  /// Stop checking at change points (the destructor also detaches).
  void detach();

  /// Per-delivery stream check: `msg` is the delivered message index
  /// (-1 = failed verification). Call for every delivery.
  void on_delivery(std::size_t stream, int msg);

  /// Run one full invariant sweep right now: the backstop for the
  /// change-point checks. checks_run() counts these.
  void check_now();

  /// Register a drift probe: `sample` reads some internal-state size,
  /// `bound` its allowed ceiling (a callable, because legitimate bounds
  /// move with cluster size / roster churn). check_drift() violates
  /// "state-drift" when sample() > bound(). Probes run only from
  /// check_drift(), so legacy end-only schedules pay nothing.
  void add_drift_probe(std::string name,
                       std::function<std::uint64_t()> sample,
                       std::function<std::uint64_t()> bound);

  /// Sample every drift probe once (soak mode runs this per check
  /// window). Records the first probe over its bound as a "state-drift"
  /// violation, naming the probe and both values.
  void check_drift();

  /// Route authority for the route-convergence invariant: the mapper
  /// behind `fm` is the single source of truth for what every node's
  /// installed epoch must be after quiesce. Optional — schedules without
  /// a control plane (single-switch fabrics) skip the check.
  void set_route_authority(const mapper::FailoverManager* fm) {
    route_authority_ = fm;
  }
  /// Nodes the scenario expects to be up at horizon. With a route
  /// authority set, route-convergence additionally requires every one of
  /// them to be present in the final map — a node the map never
  /// discovered used to be invisible to the epoch check (it has no table
  /// entry to lag behind).
  void set_expected_roster(std::vector<net::NodeId> roster) {
    expected_roster_ = std::move(roster);
  }

  /// End-of-run quiescence checks; call after the cluster drained.
  void final_check();

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t drift_checks_run() const noexcept {
    return drift_checks_;
  }

 private:
  struct Stream {
    StreamWorkload* wl = nullptr;
    std::uint32_t send_tokens = 0;
    std::uint32_t recv_tokens = 0;
    int next_msg = 0;  // FIFO cursor: the only index allowed next
  };

  struct DriftProbe {
    std::string name;
    std::function<std::uint64_t()> sample;
    std::function<std::uint64_t()> bound;
  };

  // A card's receive port, as the card reports a token joining it.
  struct RecvPort {
    const mcp::Mcp* mcp;
    std::uint8_t port;
    bool operator==(const RecvPort&) const = default;
  };
  struct RecvPortHash {
    std::size_t operator()(const RecvPort& k) const noexcept {
      return std::hash<const void*>{}(k.mcp) ^ k.port;
    }
  };

  // sim::Checks: the change points.
  void link_delivered(const net::Link& link) override;
  void send_token_returned(const gm::Port& port) override;
  void recv_token_added(const mcp::Mcp& mcp, std::uint8_t port) override;
  void ftd_counted(const core::Ftd& ftd) override;

  void violate(const std::string& invariant, const std::string& detail);
  // One invariant on one component; check_now runs them all.
  void check_stream(std::size_t i);
  void check_send_tokens(std::size_t i);
  void check_recv_tokens(std::size_t i);
  void check_ftd(const core::Ftd& ftd);
  void check_link(const net::Link& link);
  void check_membership();
  void check_route_convergence();

  gm::Cluster& cluster_;
  const mapper::FailoverManager* route_authority_ = nullptr;
  std::vector<net::NodeId> expected_roster_;
  std::vector<Stream> streams_;
  // Change point -> the stream whose allotment bounds it. Several streams
  // may share a port (membership senders are reused); the smallest
  // allotment is the binding one.
  std::unordered_map<const gm::Port*, std::size_t> by_sender_;
  std::unordered_map<RecvPort, std::size_t, RecvPortHash> by_receiver_;
  std::vector<DriftProbe> drift_probes_;
  std::vector<Violation> violations_;
  bool attached_ = false;
  std::uint64_t checks_ = 0;
  std::uint64_t drift_checks_ = 0;
};

}  // namespace myri::fi
