#include "mapper/mapper.hpp"

#include <algorithm>
#include <utility>

namespace myri::mapper {

namespace {

constexpr std::uint32_t vertex_key(net::DeviceKind k, std::uint16_t id) {
  return static_cast<std::uint32_t>(k) << 16 | id;
}

/// Out of range for any graph: RouteGraph::route() finds no route from or
/// to it, as the old map walk found none for a key it lacked.
constexpr net::RouteGraph::Vertex kNoVertex = ~net::RouteGraph::Vertex{0};

/// MAP_ROUTE payloads are bounded by the packet size; chunk the table.
constexpr std::size_t kChunk = 40;

/// Chunks in a push of a table row; an empty row is still one (empty)
/// chunk, which the node must ack.
constexpr std::size_t chunks_for(std::size_t entries) {
  return entries == 0 ? 1 : (entries + kChunk - 1) / kChunk;
}

/// Unknown-port census probes per scrub pass (see scrub()): bounds the
/// sweep's per-pass cost on big fabrics; the rotating cursor covers the
/// rest on later passes.
constexpr std::size_t kCensusSweepMax = 32;

std::vector<std::uint64_t> converge_us_bounds() {
  // Convergence is dominated by ack round trips and retry backoff: tens
  // of microseconds on a quiet fabric, tens of milliseconds when chunks
  // are being retried into a lossy window.
  return {50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000};
}

}  // namespace

void DeviceGraph::build(const std::map<std::uint32_t, DeviceInfo>& devices) {
  graph_.clear();
  keys_.clear();
  for (const auto& [key, d] : devices) {
    keys_.push_back(key);
    graph_.add_vertex(d.ref.kind == net::DeviceKind::kSwitch);
  }
  num_devices_ = keys_.size();
  net::RouteGraph::Vertex u = 0;
  for (const auto& [key, d] : devices) {
    for (const auto& [port, nb] : d.neighbours) {
      auto w = vertex(nb.key);
      if (!w) {
        keys_.push_back(nb.key);
        w = graph_.add_vertex(false);
      }
      graph_.add_edge(u, *w, port);
    }
    ++u;
  }
}

std::optional<net::RouteGraph::Vertex> DeviceGraph::vertex(
    std::uint32_t key) const {
  const auto devices_end =
      keys_.begin() + static_cast<std::ptrdiff_t>(num_devices_);
  auto it = std::lower_bound(keys_.begin(), devices_end, key);
  if (it == devices_end || *it != key) {
    it = std::find(devices_end, keys_.end(), key);  // leaves: rare, few
    if (it == keys_.end()) return std::nullopt;
  }
  return static_cast<net::RouteGraph::Vertex>(it - keys_.begin());
}

std::optional<net::Route> DeviceGraph::route(std::uint32_t from,
                                             std::uint32_t to) const {
  const auto u = vertex(from);
  const auto w = vertex(to);
  if (!u || !w) return std::nullopt;
  return graph_.route(*u, *w);
}

Mapper::PendingScout& Mapper::ScoutSlots::add(std::uint32_t id) {
  if (live_ == 0) first_ = next_ = id;
  const std::size_t window = std::size_t{id - first_} + 1;
  if (window > slots_.size()) {
    // Re-place the live window in a ring big enough for it.
    std::size_t n = slots_.empty() ? 64 : 2 * slots_.size();
    while (n < window) n *= 2;
    std::vector<Slot> grown(n);
    for (std::uint32_t i = first_; i != next_; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      if (s.live) grown[i & (n - 1)] = std::move(s);
    }
    slots_ = std::move(grown);
  }
  next_ = id + 1;
  ++live_;
  Slot& s = slots_[id & (slots_.size() - 1)];
  s.live = true;
  return s.scout;
}

Mapper::PendingScout* Mapper::ScoutSlots::find(std::uint32_t id) {
  // Unsigned: an id below first_ wraps past the window too.
  if (live_ == 0 || id - first_ >= next_ - first_) return nullptr;
  Slot& s = slots_[id & (slots_.size() - 1)];
  return s.live ? &s.scout : nullptr;
}

void Mapper::ScoutSlots::erase(std::uint32_t id) {
  const std::size_t mask = slots_.size() - 1;
  slots_[id & mask].live = false;
  --live_;
  while (first_ != next_ && !slots_[first_ & mask].live) ++first_;
}

void Mapper::ScoutSlots::clear() {
  for (Slot& s : slots_) s.live = false;
  live_ = 0;
  first_ = next_;
}

Mapper::NodeState* Mapper::state(net::NodeId x) {
  if (x >= net::kRouteTableBound) return nullptr;
  if (x >= nodes_.size()) nodes_.resize(std::size_t{x} + 1);
  return &nodes_[x];
}

void Mapper::unconverge(NodeState& n) {
  if (n.converged && n.in_table) --converged_count_;
  n.converged = false;
}

bool Mapper::stop_push(NodeState& n) {
  if (!n.pushing) return false;
  n.pushing = false;
  --pushes_;
  return true;
}

Mapper::Mapper(gm::Node& home, Config cfg) : home_(home), cfg_(cfg) {
  // The handler survives MCP reloads, so it is safe to install once: the
  // mapper host keeps receiving scout replies, chunk acks and announces
  // even across its own card's recovery.
  home_.mcp().set_map_reply_handler([this](const net::Packet& pkt) {
    if (pkt.type == net::PacketType::kMapRouteAck) {
      on_route_ack(pkt);
    } else {
      on_reply(pkt);
    }
  });
}

void Mapper::run(std::function<void(bool)> done) {
  done_ = std::move(done);
  devices_.clear();
  graph_dirty_ = true;
  pending_.clear();
  running_ = true;
  ++stats_.runs;

  // Seed the graph with the mapper's own interface.
  DeviceInfo self;
  self.ref = {net::DeviceKind::kInterface, home_.id()};
  self.ports = 1;
  devices_[self.ref.key()] = self;

  // Probe whatever is at the end of our own cable.
  send_scout({}, std::nullopt, 0);
}

void Mapper::send_scout(net::Route route, std::optional<std::uint32_t> parent,
                        std::uint8_t out_port, std::uint32_t tries) {
  const std::uint32_t id = next_scout_++;
  pending_.add(id) = PendingScout{route, parent, out_port, tries};
  ++stats_.scouts_sent;

  net::Packet pkt;
  pkt.type = net::PacketType::kMapScout;
  pkt.src = home_.id();
  pkt.msg_id = id;
  pkt.route = std::move(route);
  pkt.seal();
  home_.mcp().send_raw(std::move(pkt));

  home_.event_queue().post_after(cfg_.scout_timeout, [this, id] {
    PendingScout* p = pending_.find(id);
    if (p == nullptr) return;
    PendingScout ctx = std::move(*p);
    pending_.erase(id);
    if (ctx.tries + 1 < cfg_.scout_tries) {
      // Reply lost — or still queued behind the discovery burst on the
      // home link. Re-probe: the retry rides a fabric the burst has long
      // drained from, so a live node answers in time. Without this, the
      // tail of a large fabric's reply wave deterministically misses the
      // map, and a node that was never mapped is invisible to census.
      ++stats_.scout_retries;
      send_scout(std::move(ctx.route), ctx.parent, ctx.out_port,
                 ctx.tries + 1);
      return;
    }
    ++stats_.timeouts;  // nothing at the end of that route
    if (pending_.empty() && running_) finish_discovery();
  });
}

void Mapper::on_reply(const net::Packet& pkt) {
  PendingScout* p = pending_.find(pkt.msg_id);
  if (p == nullptr) return;  // late reply after timeout
  const PendingScout ctx = std::move(*p);
  pending_.erase(pkt.msg_id);
  ++stats_.replies;

  const net::MapReplyInfo info = net::MapReplyInfo::decode(pkt.payload);
  // An interface the current map lacks answered a scout: a missing node
  // came (back) to life mid-remap. Progress for the owner's retry budget.
  if (epoch_ > 0 && info.kind == net::DeviceKind::kInterface &&
      !has_row(info.id) && on_progress_) {
    on_progress_();
  }
  const DeviceRef v{info.kind, info.id};
  const std::uint32_t vkey = v.key();
  const std::uint32_t parent_key =
      ctx.parent ? *ctx.parent
                 : vertex_key(net::DeviceKind::kInterface, home_.id());
  const std::uint8_t parent_port = ctx.parent ? ctx.out_port : 0;
  // The probe's recorded input ports give the far end of the last cable:
  // for a switch it is the last walked entry; an interface has one port.
  const std::uint8_t far_port =
      info.kind == net::DeviceKind::kSwitch && !info.walked.empty()
          ? info.walked.back()
          : 0;

  graph_dirty_ = true;
  const auto [vit, fresh] = devices_.try_emplace(vkey);
  if (fresh) {
    DeviceInfo& d = vit->second;
    d.ref = v;
    d.ports = info.ports;
    d.scout_route = ctx.route;
    d.neighbours.reserve(info.ports);
  }
  devices_[parent_key].neighbours.set(parent_port, {vkey, far_port});
  vit->second.neighbours.set(far_port, {parent_key, parent_port});

  if (fresh && info.kind == net::DeviceKind::kSwitch &&
      ctx.route.size() < cfg_.max_depth) {
    for (std::uint8_t q = 0; q < info.ports; ++q) {
      if (q == far_port) continue;  // don't probe back the way we came
      net::Route r = ctx.route;
      r.push_back(q);
      send_scout(std::move(r), vkey, q);
    }
  }
  if (pending_.empty() && running_) finish_discovery();
}

void Mapper::finish_discovery() {
  running_ = false;
  if (num_switches() == 0 || interfaces().empty()) {
    if (done_) {
      auto cb = std::move(done_);
      done_ = nullptr;
      cb(false);
    }
    return;
  }
  compute_and_distribute();
}

std::vector<net::NodeId> Mapper::interfaces() const {
  std::vector<net::NodeId> out;
  for (const auto& [key, d] : devices_) {
    if (d.ref.kind == net::DeviceKind::kInterface) out.push_back(d.ref.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t Mapper::num_switches() const {
  std::size_t n = 0;
  for (const auto& [key, d] : devices_) {
    if (d.ref.kind == net::DeviceKind::kSwitch) ++n;
  }
  return n;
}

const DeviceGraph& Mapper::graph() const {
  if (graph_dirty_) {
    graph_.build(devices_);
    graph_dirty_ = false;
  }
  return graph_;
}

std::optional<net::Route> Mapper::route_between(net::NodeId a,
                                                net::NodeId b) const {
  return graph().route(vertex_key(net::DeviceKind::kInterface, a),
                       vertex_key(net::DeviceKind::kInterface, b));
}

std::vector<std::uint64_t> Mapper::route_length_counts() const {
  const DeviceGraph& dg = graph();
  const net::RouteGraph& g = dg.graph();
  // Sources with the same tree root share their row: read each root's
  // tree once and count it for each of its sources (less the pair of a
  // source with itself).
  std::vector<net::RouteGraph::Vertex> ifaces;
  std::vector<net::RouteGraph::Vertex> firsts;  // first source of each root
  std::vector<std::uint32_t> sources(g.size(), 0);  // by root
  for (const auto& [key, d] : devices_) {
    if (d.ref.kind != net::DeviceKind::kInterface) continue;
    const net::RouteGraph::Vertex v = *dg.vertex(key);
    ifaces.push_back(v);
    if (sources[g.tree_root(v)]++ == 0) firsts.push_back(v);
  }
  std::vector<std::uint64_t> counts;
  for (const net::RouteGraph::Vertex a : firsts) {
    const net::RouteGraph::Vertex r = g.tree_root(a);
    g.routes_from(a, row_);
    for (const net::RouteGraph::Vertex b : ifaces) {
      if (row_.reached[b] == 0) continue;
      const std::uint32_t pairs = sources[r] - (g.tree_root(b) == r ? 1 : 0);
      const std::size_t len = row_.route[b].size();
      if (len >= counts.size()) counts.resize(len + 1, 0);
      counts[len] += pairs;
    }
  }
  // A source alone on its root adds zero pairs; the per-pair count never
  // listed a length past the longest route.
  while (!counts.empty() && counts.back() == 0) counts.pop_back();
  return counts;
}

// --------------------------------------------------------------------------
// Epoch-versioned distribution
// --------------------------------------------------------------------------

void Mapper::compute_and_distribute() {
  ++epoch_;
  scrubs_since_map_ = 0;
  if (m_epoch_) m_epoch_->set(epoch_);
  for (NodeState& n : nodes_) {
    n.entries.clear();
    n.in_table = false;
    n.has_home_route = false;
    n.converged = false;
    n.pushing = false;
  }
  table_nodes_.clear();
  converged_count_ = 0;
  pushes_ = 0;
  converge_observed_ = false;
  distributing_ = true;
  dist_start_ = home_.event_queue().now();

  // Retired members are skipped even if a discovery scouted them before
  // their cable was unplugged (the retire/remap race).
  for (const net::NodeId x : interfaces()) {
    if (retired_.count(x) == 0 && state(x) != nullptr) {
      nodes_[x].in_table = true;
      table_nodes_.push_back(x);
    }
  }
  const std::vector<net::NodeId>& ifaces = table_nodes_;
  const DeviceGraph& g = graph();
  const net::RouteGraph& rg = g.graph();
  std::vector<net::RouteGraph::Vertex> vx;  // parallel to ifaces
  vx.reserve(ifaces.size());
  for (const net::NodeId x : ifaces) {
    vx.push_back(g.vertex(vertex_key(net::DeviceKind::kInterface, x))
                     .value_or(kNoVertex));
  }
  const net::RouteGraph::Vertex home_v =
      g.vertex(vertex_key(net::DeviceKind::kInterface, home_.id()))
          .value_or(kNoVertex);
  rg.routes_from(home_v, row_);
  for (std::size_t i = 0; i < ifaces.size(); ++i) {
    const net::NodeId x = ifaces[i];
    if (vx[i] < rg.size() && vx[i] != home_v && row_.reached[vx[i]] != 0) {
      NodeState& n = nodes_[x];
      n.home_route = row_.route[vx[i]];
      n.has_home_route = true;
      last_route_[x] = n.home_route;  // census fallback, survives epochs
    }
    // Remember the attach point (switch, port) across epochs: the census
    // re-derives probe routes to it from whatever the graph looks like
    // later, instead of replaying bytes frozen at this epoch.
    const auto dit =
        devices_.find(vertex_key(net::DeviceKind::kInterface, x));
    if (dit != devices_.end() && !dit->second.neighbours.empty()) {
      const Neighbour nb = (*dit->second.neighbours.begin()).second;
      last_attach_[x] = {nb.key, nb.port};
    }
  }

  // Build the whole table before distributing anything: mark_converged's
  // "everyone acked" check counts the table, so a partially built table
  // would declare convergence the moment the home node self-installs.
  // Rows are read off one tree walk per distinct tree root: interfaces
  // on one switch share it, and differ only in leaving themselves out.
  std::vector<std::size_t> by_root(ifaces.size());
  std::vector<net::RouteGraph::Vertex> root(ifaces.size(), kNoVertex);
  for (std::size_t i = 0; i < ifaces.size(); ++i) {
    by_root[i] = i;
    if (vx[i] < rg.size()) root[i] = rg.tree_root(vx[i]);
  }
  std::sort(by_root.begin(), by_root.end(),
            [&](std::size_t a, std::size_t b) {
              return root[a] != root[b] ? root[a] < root[b] : a < b;
            });
  net::RouteGraph::Vertex row_root = kNoVertex;
  for (const std::size_t i : by_root) {
    if (root[i] == kNoVertex) continue;  // no vertex: an empty row
    if (root[i] != row_root) {
      rg.routes_from(vx[i], row_);
      row_root = root[i];
    }
    std::vector<net::RouteEntry>& entries = nodes_[ifaces[i]].entries;
    entries.reserve(ifaces.size() - 1);
    for (std::size_t j = 0; j < ifaces.size(); ++j) {
      if (j == i || vx[j] >= rg.size() || row_.reached[vx[j]] == 0) continue;
      entries.push_back({ifaces[j], row_.route[vx[j]]});
    }
  }
  for (const net::NodeId x : table_nodes_) {
    if (x == home_.id()) {
      // Local install: the mapper host programs its own card directly and
      // stamps its driver shadow as complete at this epoch.
      for (const auto& e : nodes_[x].entries) {
        home_.install_route(e.dst, e.route);
      }
      home_.driver().record_local_epoch(epoch_);
      mark_converged(x);
      continue;
    }
    if (nodes_[x].has_home_route) start_distribution(x);
  }
  if (tracing()) {
    trace("epoch " + std::to_string(epoch_) + ": routes for " +
          std::to_string(table_nodes_.size()) + " node(s), " +
          std::to_string(pushes_) + " remote push(es)");
  }
  check_distribution_done();
}

bool Mapper::fold_in(net::NodeId x) {
  if (running_) return false;  // discovery in flight: it re-scouts anyway
  if (retired_.count(x) != 0) return false;
  const auto ait = last_attach_.find(x);
  if (ait == last_attach_.end()) return false;
  const auto [sw_key, sw_port] = ait->second;
  const auto dit = devices_.find(sw_key);
  if (dit == devices_.end()) return false;
  const std::uint32_t vkey = vertex_key(net::DeviceKind::kInterface, x);
  const Neighbour* nb = dit->second.neighbours.find(sw_port);
  if (nb != nullptr && nb->key != vkey) {
    return false;  // someone else holds that port now: view is stale
  }
  if (devices_.count(vkey) == 0) {
    DeviceInfo d;
    d.ref = {net::DeviceKind::kInterface, x};
    d.ports = 1;
    d.scout_route = dit->second.scout_route;
    d.scout_route.push_back(sw_port);
    devices_[vkey] = std::move(d);
  }
  dit->second.neighbours.set(sw_port, {vkey, 0});
  devices_[vkey].neighbours.set(0, {sw_key, sw_port});
  graph_dirty_ = true;
  ++stats_.census_folds;
  compute_and_distribute();
  return true;
}

void Mapper::start_distribution(net::NodeId x) {
  NodeState& n = nodes_[x];
  unconverge(n);
  const std::size_t nchunks = chunks_for(n.entries.size());
  n.dist.acked.assign(nchunks, false);
  n.dist.round = 0;
  n.dist.gen = ++dist_gen_;
  if (!n.pushing) {
    n.pushing = true;
    ++pushes_;
  }
  for (std::size_t i = 0; i < nchunks; ++i) send_chunk(x, i);
  arm_retry(x);
}

void Mapper::push_routes(net::NodeId x) {
  if (!has_row(x) || !nodes_[x].has_home_route) return;
  if (nodes_[x].pushing) return;  // push already in flight
  ++stats_.repushes;
  if (tracing()) {
    trace("node " + std::to_string(x) + ": re-push @ epoch " +
          std::to_string(epoch_));
  }
  start_distribution(x);
}

void Mapper::send_chunk(net::NodeId x, std::size_t i) {
  const NodeState& n = nodes_[x];
  if (!n.has_home_route) return;
  const std::span<const net::RouteEntry> row = n.entries;
  const std::size_t first = std::min(i * kChunk, row.size());
  net::Packet pkt;
  pkt.type = net::PacketType::kMapRoute;
  pkt.src = home_.id();
  pkt.dst = x;
  pkt.route = n.home_route;
  net::RouteUpdate u;
  u.epoch = epoch_;
  u.chunk = static_cast<std::uint16_t>(i);
  u.nchunks = static_cast<std::uint16_t>(chunks_for(row.size()));
  u.entries = row.subspan(first, std::min(kChunk, row.size() - first));
  pkt.payload = u.encode();
  pkt.seal();
  ++stats_.route_packets;
  home_.mcp().send_raw(std::move(pkt));
}

void Mapper::arm_retry(net::NodeId x) {
  const NodeState& n = nodes_[x];
  if (!n.pushing) return;
  const std::uint64_t gen = n.dist.gen;
  // Bounded exponential backoff: 1x, 2x, 4x ... 32x the base timeout.
  const sim::Time wait =
      cfg_.ack_timeout << std::min<std::uint32_t>(n.dist.round, 5);
  home_.event_queue().post_after(wait, [this, x, gen] {
    NodeState& ns = nodes_[x];
    if (!ns.pushing || ns.dist.gen != gen) return;  // superseded
    Distribution& d = ns.dist;
    if (d.round >= cfg_.max_ack_retries) {
      // Retry budget exhausted: leave the node to scrub/announce repair
      // so a single dead card cannot wedge the remap forever.
      if (tracing()) {
        trace("node " + std::to_string(x) +
              ": ack retries exhausted, leaving to scrub");
      }
      stop_push(ns);
      check_distribution_done();
      return;
    }
    ++d.round;
    std::size_t resent = 0;
    for (std::size_t i = 0; i < d.acked.size(); ++i) {
      if (d.acked[i]) continue;
      ++stats_.route_retries;
      send_chunk(x, i);
      ++resent;
    }
    if (tracing()) {
      trace("node " + std::to_string(x) + ": retry round " +
            std::to_string(d.round) + " (" + std::to_string(resent) +
            " chunk(s))");
    }
    arm_retry(x);
  });
}

void Mapper::on_route_ack(const net::Packet& pkt) {
  const net::RouteAck a = net::RouteAck::decode(pkt.payload);
  const net::NodeId node = pkt.src;
  ++stats_.route_acks;
  if (retired_.count(node) != 0) return;  // stale ack from a retired card

  NodeState* n = state(node);
  if (n == nullptr) return;  // past every route table: never mapped
  const bool known = n->in_table;
  // Evidence a previously missing/lagging card is alive (see
  // set_on_progress): an announce, an answer from a node the current map
  // does not contain (current-epoch only — a late ack from an old push to
  // a since-removed node proves nothing about *now*), or a laggard heard
  // outside an in-flight push. Deliberately not every chunk ack.
  const bool progress = a.announce || (!known && a.epoch == epoch_) ||
                        (known && !n->converged && !n->pushing);

  if (n->pushing && a.epoch == epoch_ && a.chunk != net::kProbeChunk &&
      a.chunk < n->dist.acked.size()) {
    n->dist.acked[a.chunk] = true;
  }
  const bool all_acked =
      n->pushing && std::all_of(n->dist.acked.begin(), n->dist.acked.end(),
                                [](bool b) { return b; });
  if (a.installed_epoch >= epoch_ || all_acked) {
    stop_push(*n);
    mark_converged(node);
    check_distribution_done();
  } else if (n->pushing) {
    // Push in flight: its retries cover the node.
  } else if (n->converged) {
    // Stale ack from an older push.
  } else if (known) {
    // Scrub probe or announce found a laggard the map knows: repair it.
    push_routes(node);
  } else if (a.announce || a.epoch == epoch_) {
    // A node the current map never saw (hung through discovery, or its
    // scout replies lost to link loss) is back — it announced, or
    // answered a census probe we sent at this epoch. Re-running full
    // discovery here is how remap storms perpetuate under sustained
    // loss: every re-scout can lose a different node's replies, which
    // the next census folds back in, forever. The answer itself proves
    // where the node sits (the probe rode a current-graph route to its
    // attach port), so graft it in incrementally; only fall back to a
    // full remap when the attach point is unknown or contested.
    const bool folded = fold_in(node);
    if (tracing()) {
      trace("node " + std::to_string(node) + ": " +
            (a.announce ? "announced" : "answered census probe,") +
            " installed epoch " + std::to_string(a.installed_epoch) +
            (folded ? ", not in map -> fold in" : ", not in map -> remap"));
    }
    if (!folded && on_node_returned_) on_node_returned_(node);
  }
  if (progress && on_progress_) on_progress_();
}

void Mapper::mark_converged(net::NodeId x) {
  NodeState& n = nodes_[x];
  if (n.converged) return;
  n.converged = true;
  if (n.in_table) ++converged_count_;
  if (converge_observed_ || !converged()) return;
  converge_observed_ = true;
  if (tracing()) trace("epoch " + std::to_string(epoch_) + " converged");
  metrics::observe(m_converge_us_,
                   (home_.event_queue().now() - dist_start_) / 1000);
}

void Mapper::check_distribution_done() {
  if (!distributing_ || pushes_ != 0) return;
  distributing_ = false;
  // Fire asynchronously: run()'s contract is that done() never re-enters
  // the caller's stack (the old settle timer behaved the same way).
  home_.event_queue().post_after(0, [this] {
    if (done_) {
      auto cb = std::move(done_);
      done_ = nullptr;
      cb(true);
    }
  });
}

std::vector<net::NodeId> Mapper::stale_nodes() const {
  std::vector<net::NodeId> out;
  for (const net::NodeId x : table_nodes_) {
    if (!nodes_[x].converged) out.push_back(x);
  }
  return out;
}

void Mapper::scrub() {
  if (epoch_ == 0) return;
  ++scrubs_since_map_;
  std::size_t probes = 0;
  for (const net::NodeId x : table_nodes_) {
    const NodeState& n = nodes_[x];
    if (x == home_.id() || n.converged || n.pushing || !n.has_home_route) {
      continue;
    }
    net::Packet pkt;
    pkt.type = net::PacketType::kMapRoute;
    pkt.src = home_.id();
    pkt.dst = x;
    pkt.route = n.home_route;
    pkt.payload = net::RouteUpdate{epoch_, 0, 0, {}}.encode();
    pkt.seal();
    ++stats_.scrub_probes;
    ++probes;
    home_.mcp().send_raw(std::move(pkt));
  }
  // Census: the roster says these nodes exist but the current map has no
  // trace of them (hung through every remap, recovery announce lost).
  // An answer arrives as an ack from a node without a row, which triggers
  // on_node_returned_ -> remap.
  std::size_t census = 0;
  bool need_sweep = false;
  std::vector<net::NodeId> missing;
  for (const net::NodeId x : roster_) {
    if (x != home_.id() && !has_row(x)) missing.push_back(x);
  }
  // Probe routes are re-derived from the *current* switch graph every
  // pass: bytes frozen at the epoch the node vanished in may no longer
  // reach its attach point after the fabric was remapped around faults.
  const std::uint32_t home_key =
      vertex_key(net::DeviceKind::kInterface, home_.id());
  const auto send_probe = [&](net::NodeId dst, net::Route route) {
    net::Packet pkt;
    pkt.type = net::PacketType::kMapRoute;
    pkt.src = home_.id();
    pkt.dst = dst;
    pkt.route = std::move(route);
    pkt.payload = net::RouteUpdate{epoch_, 0, 0, {}}.encode();
    pkt.seal();
    home_.mcp().send_raw(std::move(pkt));
  };
  for (const net::NodeId x : missing) {
    net::Route route;
    const auto ait = last_attach_.find(x);
    if (ait != last_attach_.end() && devices_.count(ait->second.first) != 0) {
      // Current-graph route to the node's last attach switch, plus the
      // host port it sat on.
      if (auto r = graph().route(home_key, ait->second.first)) {
        route = std::move(*r);
        route.push_back(ait->second.second);
      }
    }
    if (route.empty()) {
      // Attach switch itself missing from the current map: fall back to
      // the last route ever known (best effort).
      const auto lit = last_route_.find(x);
      if (lit != last_route_.end()) route = lit->second;
    }
    if (route.empty()) {
      need_sweep = true;  // never mapped: no address for it at all
      continue;
    }
    ++stats_.census_probes;
    ++census;
    send_probe(x, std::move(route));
  }
  // Unknown-port sweep: a roster node never present in any map has no
  // attach point and no last route — the only transport left is to knock
  // on switch ports the current map shows no neighbour behind. Probes
  // into genuinely dark ports are dropped by the fabric; a live card
  // answers with an ack and gets folded back in. A rotating cursor plus
  // a per-pass cap keeps big fabrics' sweeps cheap and deterministic.
  // The sweep is a last resort: while mapping runs are still landing
  // (storms under loss), every run re-scouts all ports anyway, so only
  // sweep once the map has survived two full scrub passes unchanged.
  std::size_t sweep = 0;
  if (need_sweep && scrubs_since_map_ >= 2) {
    std::vector<net::Route> candidates;
    for (const auto& [key, dev] : devices_) {
      if (dev.ref.kind != net::DeviceKind::kSwitch) continue;
      const auto to_switch = graph().route(home_key, key);
      if (!to_switch) continue;
      for (std::uint8_t p = 0; p < dev.ports; ++p) {
        if (dev.neighbours.find(p) != nullptr) continue;
        net::Route route = *to_switch;
        route.push_back(p);
        candidates.push_back(std::move(route));
      }
    }
    if (!candidates.empty()) {
      const std::size_t cap =
          std::min<std::size_t>(candidates.size(), kCensusSweepMax);
      for (std::size_t i = 0; i < cap; ++i) {
        net::Route route = candidates[(sweep_cursor_ + i) % candidates.size()];
        ++stats_.census_probes;
        ++stats_.census_sweep_probes;
        ++sweep;
        send_probe(net::kInvalidNode, std::move(route));
      }
      sweep_cursor_ = (sweep_cursor_ + cap) % candidates.size();
    }
  }
  if ((probes > 0 || census > 0 || sweep > 0) && tracing()) {
    trace("scrub: " + std::to_string(probes) + " probe(s), " +
          std::to_string(census) + " census probe(s), " +
          std::to_string(sweep) + " sweep probe(s) @ epoch " +
          std::to_string(epoch_));
  }
}

void Mapper::set_expected_roster(std::vector<net::NodeId> roster) {
  roster_ = std::set<net::NodeId>(roster.begin(), roster.end());
}

void Mapper::note_attach(net::NodeId x, std::uint32_t sw_key,
                         std::uint8_t port) {
  retired_.erase(x);
  last_attach_[x] = {sw_key, port};
}

void Mapper::retire_node(net::NodeId x) {
  retired_.insert(x);
  roster_.erase(x);
  if (!retain_retired_caches_) {
    // The eviction that bounds the cross-epoch caches across churn; the
    // test-only retain flag plants the leak the soak drift oracle must
    // catch (see Mapper::set_retain_retired_caches).
    last_route_.erase(x);
    last_attach_.erase(x);
  }
  if (x < nodes_.size()) {
    NodeState& n = nodes_[x];
    unconverge(n);
    if (n.in_table) {
      n.in_table = false;
      table_nodes_.erase(
          std::find(table_nodes_.begin(), table_nodes_.end(), x));
    }
    n.entries.clear();
    n.has_home_route = false;
    if (stop_push(n)) check_distribution_done();
  }
  // Unlink the interface vertex from the graph so later recomputes stop
  // routing to it (its attach port goes dark).
  const std::uint32_t vkey = vertex_key(net::DeviceKind::kInterface, x);
  const auto dit = devices_.find(vkey);
  if (dit != devices_.end()) {
    for (const auto& [port_at_iface, nb] : dit->second.neighbours) {
      const auto sit = devices_.find(nb.key);
      if (sit == devices_.end()) continue;
      const Neighbour* back = sit->second.neighbours.find(nb.port);
      if (back != nullptr && back->key == vkey) {
        sit->second.neighbours.erase(nb.port);
      }
    }
    devices_.erase(dit);
    graph_dirty_ = true;
  }
  if (tracing()) trace("node " + std::to_string(x) + ": retired from roster");
}

void Mapper::node_replaced(net::NodeId x) {
  retired_.erase(x);
  if (epoch_ == 0) return;  // never mapped: bring-up handles it
  if (x >= nodes_.size()) return;  // never acked nor tabled: census's job
  NodeState& n = nodes_[x];
  unconverge(n);
  if (n.pushing) return;  // in-flight push reaches the spare
  if (n.in_table) {
    // Same attach point, fresh card with an empty table: everyone else's
    // routes still hold, only x's table needs re-pushing.
    push_routes(x);
  }
  // Not in the table: scrub's census probes knock at the attach point.
}

bool Mapper::roster_complete() const {
  for (const net::NodeId x : roster_) {
    if (!has_row(x)) return false;
  }
  return true;
}

std::vector<net::NodeId> Mapper::missing_nodes() const {
  std::vector<net::NodeId> out;
  for (const net::NodeId x : roster_) {
    if (!has_row(x)) out.push_back(x);
  }
  return out;
}

void Mapper::trace(const std::string& msg) const {
  trace_->log(sim::TraceCat::kMapper, home_.event_queue().now(), "mapper",
              msg);
}

void Mapper::bind_metrics(metrics::Registry& reg) {
  m_epoch_ = &reg.gauge("mapper.route_epoch");
  views_.expose(reg, "mapper.map_route_retries", stats_.route_retries);
  views_.expose(reg, "mapper.scrub_repairs", stats_.repushes);
  views_.expose(reg, "mapper.census_probes", stats_.census_probes);
  m_converge_us_ =
      &reg.histogram("fabric.route_converge_us", converge_us_bounds());
  if (epoch_ > 0) m_epoch_->set(epoch_);
}

}  // namespace myri::mapper
