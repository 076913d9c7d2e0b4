#include "gm/node.hpp"

#include <stdexcept>

namespace myri::gm {

namespace {
// The first MB of host memory stands in for kernel space; the pinned pool
// for user DMA buffers starts above it. Wild DMA writes below the pool (or
// to any unpinned range) trip the host-crash detector.
constexpr host::DmaAddr kPinnedBase = 1u << 20;

mcp::Mcp::Config make_mcp_config(const Node::Config& cfg) {
  mcp::Mcp::Config m;
  m.mode = cfg.mode;
  m.timing = cfg.timing;
  m.send_window = cfg.send_window;
  m.rto = cfg.rto;
  m.ftgm_delayed_ack = cfg.ftgm_delayed_ack;
  return m;
}

lanai::Nic::Config make_nic_config(const Node::Config& cfg) {
  lanai::Nic::Config n;
  n.sram_bytes = cfg.sram_bytes;
  n.timing = cfg.timing.lanai;
  return n;
}
}  // namespace

Node::Node(sim::EventQueue& eq, Config cfg, std::string name,
           std::uint32_t board_id)
    : eq_(eq),
      cfg_(cfg),
      name_(std::move(name)),
      hmem_(cfg.host_mem_bytes),
      pinned_(kPinnedBase, cfg.host_mem_bytes - kPinnedBase),
      pci_(eq, cfg.timing.pci),
      irq_(eq, cfg.timing.irq),
      cpu_(eq),
      nic_(eq, make_nic_config(cfg), name_ + ".nic", board_id),
      mcp_(nic_, pci_, hmem_, make_mcp_config(cfg)),
      driver_(nic_, mcp_, irq_, cfg.timing) {
  nic_.set_node_id(cfg.id);
  nic_.attach_host(hmem_, pci_, irq_);
  nic_.set_pinned_checker([this](host::DmaAddr a, std::size_t l) {
    return pinned_.is_pinned(a, l);
  });
  nic_.set_host_crash_handler([this] { crashed_ = true; });
  if (cfg.mode == mcp::McpMode::kFtgm) {
    core::Ftd::Config fc;
    fc.timing = cfg.timing.recovery;
    ftd_ = std::make_unique<core::Ftd>(eq_, driver_, fc);
  }
}

void Node::attach(net::Topology& topo, std::uint16_t sw, std::uint8_t port) {
  net::Link& up = topo.attach_endpoint(nic_, sw, port, name_);
  nic_.attach_uplink(up);
}

void Node::reattach(net::Topology& topo, std::uint16_t sw,
                    std::uint8_t port) {
  net::Link& up = topo.reattach_endpoint(nic_, sw, port, name_);
  nic_.attach_uplink(up);
}

void Node::boot() {
  driver_.install(this);
  if (ftd_) {
    ftd_->set_open_ports_provider([this] { return open_ports(); });
    ftd_->set_fault_event_sink([this](std::uint8_t p) {
      if (ports_[p]) {
        mcp::EventRecord ev;
        ev.type = mcp::EventType::kFaultDetected;
        ev.port = p;
        ports_[p]->push_event(ev);
      }
    });
    ftd_->start();
  }
}

Port& Node::open_port(std::uint8_t id, Port::Config cfg) {
  // Reopening would destroy a Port that callers still hold references to.
  if (ports_.at(id)) {
    throw std::logic_error(name_ + ": port " + std::to_string(id) +
                           " is already open");
  }
  ports_[id] = std::make_unique<Port>(*this, id, cfg);
  if (metrics_ != nullptr) {
    ports_[id]->bind_metrics(*metrics_,
                             name_ + ".port" + std::to_string(id));
  }
  driver_.open_port(id);
  return *ports_[id];
}

void Node::close_port(std::uint8_t id) {
  driver_.close_port(id);
  pht_.unmap_port(id);
  ports_.at(id).reset();
}

Port* Node::port(std::uint8_t id) {
  return id < ports_.size() ? ports_[id].get() : nullptr;
}

std::vector<std::uint8_t> Node::open_ports() const {
  std::vector<std::uint8_t> out;
  for (std::uint8_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i]) out.push_back(i);
  }
  return out;
}

void Node::post_event(std::uint8_t port, const mcp::EventRecord& ev) {
  if (port < ports_.size() && ports_[port]) ports_[port]->push_event(ev);
}

std::optional<host::DmaAddr> Node::translate(std::uint8_t port,
                                             std::uint64_t vaddr) {
  return pht_.lookup(port, vaddr);
}

void Node::set_trace(sim::Trace* t) {
  nic_.set_trace(t);
  mcp_.set_trace(t);
  if (ftd_) ftd_->set_trace(t);
}

void Node::bind_metrics(metrics::Registry& reg) {
  metrics_ = &reg;
  mcp_.bind_metrics(reg, name_ + ".mcp");
  if (ftd_) ftd_->bind_metrics(reg, name_ + ".ftd");
  for (std::uint8_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i]) {
      ports_[i]->bind_metrics(reg, name_ + ".port" + std::to_string(i));
    }
  }
}

std::optional<host::DmaAddr> Node::alloc_pinned(std::uint32_t size) {
  return pinned_.alloc(size);
}

}  // namespace myri::gm
