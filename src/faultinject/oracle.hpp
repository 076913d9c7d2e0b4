// Continuous cluster-wide invariant oracle.
//
// The hand-written sweeps only asserted invariants at end-of-run: a
// violation that appeared and healed mid-run (a duplicate delivery later
// compensated, a token leak refilled by recovery) was invisible. The
// Oracle hooks sim::EventQueue's after-event observer and re-checks the
// DESIGN.md invariants at event granularity while the schedule runs:
//
//   stream-fifo          per-stream delivery indices strictly ascend by 1
//   stream-exactly-once  no message index delivered twice
//   stream-corruption    no delivered payload fails verification
//   token-conservation   a port never holds more tokens than configured
//   watchdog-soundness   no false alarms; recoveries never exceed wakeups
//   metrics-consistency  metrics::Registry counters agree with component
//                        stats (ftd recoveries/wakeups) and per-link
//                        delivered <= offered accounting
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
// check count and violation list feed the run's outcome digest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gm/cluster.hpp"
#include "sim/time.hpp"

namespace myri::mapper {
class FailoverManager;
}  // namespace myri::mapper

namespace myri::fi {

class StreamWorkload;

class Oracle {
 public:
  struct Config {
    /// Full invariant sweeps are throttled to at most one per this much
    /// virtual time (delivery-driven stream checks are unthrottled).
    sim::Time check_gap = sim::usec(200);
  };

  struct Violation {
    sim::Time at = 0;
    std::string invariant;  // stable name, see table above
    std::string detail;
  };

  Oracle(gm::Cluster& cluster, Config cfg);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Register a stream and the token allotment of the two ports carrying
  /// it. Call once per stream before attach().
  void watch(StreamWorkload& wl, std::uint32_t send_tokens,
             std::uint32_t recv_tokens);

  /// Install the event-queue hook: every executed event may trigger a
  /// sweep (throttled by Config::check_gap).
  void attach();
  /// Remove the hook (the destructor also detaches).
  void detach();

  /// Per-delivery stream check: `msg` is the delivered message index
  /// (-1 = failed verification). Unthrottled; call for every delivery.
  void on_delivery(std::size_t stream, int msg);

  /// Run one full invariant sweep right now.
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

  void violate(const std::string& invariant, const std::string& detail);
  void check_streams();
  void check_tokens();
  void check_watchdog();
  void check_metrics();
  void check_membership();
  void check_route_convergence();

  // check_metrics' handles on one node's FTD registry counters, resolved
  // once per node identity: hot-add appends a node and replace_node
  // swaps a new one in at the same index (the old card is quarantined,
  // never freed, so its address is never reused).
  struct FtdCounters {
    const gm::Node* node = nullptr;
    const metrics::Counter* recoveries = nullptr;
    const metrics::Counter* wakeups = nullptr;
  };

  gm::Cluster& cluster_;
  std::vector<FtdCounters> ftd_counters_;  // indexed by node id
  const mapper::FailoverManager* route_authority_ = nullptr;
  std::vector<net::NodeId> expected_roster_;
  Config cfg_;
  std::vector<Stream> streams_;
  std::vector<DriftProbe> drift_probes_;
  std::vector<Violation> violations_;
  sim::Time last_check_ = 0;
  bool checked_once_ = false;
  bool attached_ = false;
  std::uint64_t checks_ = 0;
  std::uint64_t drift_checks_ = 0;
};

}  // namespace myri::fi
