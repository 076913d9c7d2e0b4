// Unit tests for packets, links, switches and topology wiring.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/link.hpp"
#include "net/map_info.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace myri::net {
namespace {

// Collects everything delivered to it.
class SinkSpy : public PacketSink {
 public:
  void deliver(Packet pkt, std::uint8_t in_port) override {
    packets.push_back(std::move(pkt));
    in_ports.push_back(in_port);
  }
  std::vector<Packet> packets;
  std::vector<std::uint8_t> in_ports;
};

Packet make_data(std::uint32_t seq, std::size_t payload_len = 64) {
  Packet p;
  p.type = PacketType::kData;
  p.src = 0;
  p.dst = 1;
  p.seq = seq;
  p.msg_len = static_cast<std::uint32_t>(payload_len);
  p.payload.assign(payload_len, std::byte{0xab});
  p.seal();
  return p;
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3).
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// Reference CRC-32: one byte at a time, one bit at a time, no tables.
// The production fold must agree with it on every length and alignment.
std::uint32_t reference_fold(std::uint32_t c, const std::uint8_t* p,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return v;
}

// Every kernel this CPU can run, and crc32_fold's own choice among them.
struct CrcKernel {
  const char* name;
  std::uint32_t (*fold)(std::uint32_t, const std::uint8_t*, std::size_t);
};

std::vector<CrcKernel> crc_kernels() {
  std::vector<CrcKernel> k = {{"table", crc32_fold_table},
                              {"selected", crc32_fold}};
  if (crc32_clmul_supported()) k.push_back({"clmul", crc32_fold_clmul});
  return k;
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  // Every length up to 320 B crosses each 16- and 64-byte boundary of the
  // carry-less kernel (one block, four lanes, and the table tail) at
  // every alignment within a block.
  const auto buf = pseudo_random_bytes(4096 + 16 + 8);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 320; ++n) lengths.push_back(n);
  for (const std::size_t n : {4089u, 4095u, 4096u, 4097u, 4103u}) {
    lengths.push_back(n);
  }
  for (const CrcKernel& k : crc_kernels()) {
    for (std::size_t off = 0; off < 16; ++off) {
      for (const std::size_t n : lengths) {
        const std::uint8_t* p = buf.data() + off;
        EXPECT_EQ(k.fold(0xffffffffu, p, n), reference_fold(0xffffffffu, p, n))
            << k.name << " offset " << off << " length " << n;
        EXPECT_EQ(k.fold(0x12345678u, p, n), reference_fold(0x12345678u, p, n))
            << k.name << " seeded, offset " << off << " length " << n;
      }
    }
  }
  const std::uint8_t* p = buf.data() + 3;
  EXPECT_EQ(crc32(p, 300), reference_fold(0xffffffffu, p, 300) ^ 0xffffffffu);
  EXPECT_EQ(crc32(p, 300, 0x12345678u),
            reference_fold(0x12345678u, p, 300) ^ 0xffffffffu);
}

TEST(Crc32, WordsThenBytesMatchTheReferenceOverTheirBytes) {
  using Fold = std::uint32_t (*)(std::uint32_t, std::span<const std::uint64_t>,
                                 const std::uint8_t*, std::size_t);
  std::vector<std::pair<const char*, Fold>> kernels = {
      {"table", crc32_fold_table}, {"selected", crc32_fold}};
  if (crc32_clmul_supported()) {
    kernels.emplace_back("clmul", static_cast<Fold>(crc32_fold_clmul));
  }
  const auto bytes = pseudo_random_bytes(300 + 16);
  std::array<std::uint64_t, 9> words{};
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = 0x0123456789abcdefull * (i + 3) ^ (i << 40);
  }
  for (const auto& [name, fold] : kernels) {
    for (std::size_t nw = 0; nw <= words.size(); ++nw) {
      std::vector<std::uint8_t> msg;
      for (std::size_t i = 0; i < nw; ++i) {
        for (int b = 0; b < 8; ++b) {
          msg.push_back(static_cast<std::uint8_t>(words[i] >> (8 * b)));
        }
      }
      const std::size_t head = msg.size();
      for (std::size_t off = 0; off < 16; off += 5) {
        for (std::size_t n = 0; n <= 300; n += (n < 40 ? 1 : 13)) {
          msg.resize(head);
          msg.insert(msg.end(), bytes.begin() + off, bytes.begin() + off + n);
          const std::span<const std::uint64_t> w(words.data(), nw);
          EXPECT_EQ(fold(0xffffffffu, w, bytes.data() + off, n),
                    reference_fold(0xffffffffu, msg.data(), msg.size()))
              << name << " words " << nw << " offset " << off << " length "
              << n;
        }
      }
    }
  }
}

TEST(Crc32, ClmulKernelMatchesTheTableOnRandomCases) {
  if (!crc32_clmul_supported()) GTEST_SKIP() << "no PCLMULQDQ on this CPU";
  const auto buf = pseudo_random_bytes(5000 + 64);
  const char* check = "123456789";
  EXPECT_EQ(crc32_fold_clmul(0xffffffffu,
                             reinterpret_cast<const std::uint8_t*>(check), 9) ^
                0xffffffffu,
            0xcbf43926u);
  sim::Rng rng(20090101);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t off = rng.below(64);
    const std::size_t n = rng.below(5001);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint8_t* p = buf.data() + off;
    ASSERT_EQ(crc32_fold_clmul(seed, p, n), crc32_fold_table(seed, p, n))
        << "offset " << off << " length " << n << " seed " << seed;
  }
}

TEST(Packet, CrcMatchesByteWiseReferenceOverHeaderAndPayload) {
  const auto bytes = pseudo_random_bytes(4097);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 4095u, 4097u}) {
    Packet p;
    p.type = PacketType::kAck;
    p.src = 3;
    p.dst = 9;
    p.src_port = 2;
    p.dst_port = 5;
    p.priority = 1;
    p.stream = 0x01020304;
    p.seq = 77;
    p.ack_seq = 76;
    p.msg_id = 0xabcdef;
    p.msg_len = static_cast<std::uint32_t>(n);
    p.frag_offset = 4096;
    p.directed = true;
    p.target_vaddr = 0x8000;
    for (std::size_t i = 0; i < n; ++i) {
      p.payload.push_back(static_cast<std::byte>(bytes[i]));
    }
    // The header as compute_crc serializes it: twelve host-order words.
    const std::array<std::uint32_t, 12> hdr = {
        static_cast<std::uint32_t>(p.type),
        static_cast<std::uint32_t>(p.src) << 16 | p.dst,
        static_cast<std::uint32_t>(p.src_port) << 16 | p.dst_port,
        p.priority, p.stream, p.seq, p.ack_seq, p.msg_id, p.msg_len,
        p.frag_offset, 1u, p.target_vaddr};
    std::uint32_t c = reference_fold(
        0xffffffffu, reinterpret_cast<const std::uint8_t*>(hdr.data()),
        sizeof(hdr));
    c = reference_fold(c, bytes.data(), n);
    EXPECT_EQ(p.compute_crc(), c ^ 0xffffffffu) << "payload " << n;
  }
}

TEST(Packet, EverySingleBitFlipIsDetected) {
  Packet p = make_data(7, 100);
  p.stream = 0x55;
  p.msg_id = 3;
  p.target_vaddr = 0x1000;
  p.seal();
  ASSERT_TRUE(p.intact());
  for (std::size_t i = 0; i < p.payload.size(); ++i) {
    for (unsigned b = 0; b < 8; ++b) {
      p.payload[i] ^= static_cast<std::byte>(1u << b);
      EXPECT_FALSE(p.intact()) << "payload byte " << i << " bit " << b;
      p.payload[i] ^= static_cast<std::byte>(1u << b);
    }
  }
  for (std::uint32_t* field : {&p.stream, &p.seq, &p.ack_seq, &p.msg_id,
                               &p.msg_len, &p.frag_offset, &p.target_vaddr}) {
    for (unsigned b = 0; b < 32; ++b) {
      *field ^= 1u << b;
      EXPECT_FALSE(p.intact()) << "header word bit " << b;
      *field ^= 1u << b;
    }
  }
  for (unsigned b = 0; b < 16; ++b) {
    p.src ^= static_cast<NodeId>(1u << b);
    EXPECT_FALSE(p.intact()) << "src bit " << b;
    p.src ^= static_cast<NodeId>(1u << b);
    p.dst ^= static_cast<NodeId>(1u << b);
    EXPECT_FALSE(p.intact()) << "dst bit " << b;
    p.dst ^= static_cast<NodeId>(1u << b);
  }
  for (std::uint8_t* field : {&p.src_port, &p.dst_port, &p.priority}) {
    for (unsigned b = 0; b < 8; ++b) {
      *field ^= static_cast<std::uint8_t>(1u << b);
      EXPECT_FALSE(p.intact()) << "byte field bit " << b;
      *field ^= static_cast<std::uint8_t>(1u << b);
    }
  }
  p.directed = !p.directed;
  EXPECT_FALSE(p.intact());
  p.directed = !p.directed;
  p.notify = !p.notify;
  EXPECT_FALSE(p.intact());
  p.notify = !p.notify;
  EXPECT_TRUE(p.intact());
}

TEST(Packet, SealThenIntact) {
  Packet p = make_data(7);
  EXPECT_TRUE(p.intact());
}

TEST(Packet, PayloadBitFlipDetected) {
  Packet p = make_data(7);
  p.payload[10] ^= std::byte{0x01};
  EXPECT_FALSE(p.intact());
}

TEST(Packet, HeaderFieldChangeDetected) {
  Packet p = make_data(7);
  p.seq ^= 1;
  EXPECT_FALSE(p.intact());
}

TEST(Packet, RouteNotCoveredByCrc) {
  // Routes are consumed hop by hop, so they must not participate in CRC.
  Packet p = make_data(7);
  p.route = {1, 2, 3};
  EXPECT_TRUE(p.intact());
  p.route.clear();
  EXPECT_TRUE(p.intact());
}

TEST(Packet, WireSizeIncludesAllParts) {
  Packet p = make_data(1, 100);
  p.route = {4, 5};
  EXPECT_EQ(p.wire_size(), 2u + 16u + 100u + 4u);
}

TEST(Packet, DescribeMentionsType) {
  Packet p = make_data(9);
  EXPECT_NE(p.describe().find("DATA"), std::string::npos);
}

TEST(Link, SerializationTimeMatchesRate) {
  sim::EventQueue eq;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 100, 32}, "l");
  // 1000 bytes at 2 Gb/s = 4000 ns.
  EXPECT_EQ(link.serialization_time(1000), 4000u);
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 100, 32}, "l");
  link.connect(sink, 3);
  Packet p = make_data(0, 96);  // wire size 96+20 = 116 -> 464 ns
  const auto wire = p.wire_size();
  link.send(std::move(p));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.in_ports[0], 3);
  EXPECT_EQ(eq.now(), link.serialization_time(wire) + 100);
}

TEST(Link, BackToBackPacketsSerialize) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 0, 32}, "l");
  link.connect(sink, 0);
  Packet a = make_data(0, 1000), b = make_data(1, 1000);
  const auto ser = link.serialization_time(a.wire_size());
  link.send(std::move(a));
  link.send(std::move(b));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(eq.now(), 2 * ser);
}

TEST(Link, DropFaultLosesPackets) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({1.0, 0.0, 0.0});
  for (int i = 0; i < 10; ++i) link.send(make_data(i));
  eq.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(link.stats().dropped, 10u);
  EXPECT_EQ(link.stats().sent, 10u);
}

TEST(Link, CorruptFaultBreaksCrc) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.0, 1.0, 0.0});
  link.send(make_data(0));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_FALSE(sink.packets[0].intact());
  EXPECT_EQ(link.stats().corrupted, 1u);
}

TEST(Link, CorruptAckWithoutPayloadStillDetected) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.0, 1.0, 0.0});
  Packet ack;
  ack.type = PacketType::kAck;
  ack.src = 1;
  ack.dst = 0;
  ack.ack_seq = 5;
  ack.seal();
  link.send(std::move(ack));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_FALSE(sink.packets[0].intact());
}

TEST(Link, MisrouteAltersFirstRouteByte) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.0, 0.0, 1.0});
  Packet p = make_data(0);
  p.route = {2, 6};
  link.send(std::move(p));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_NE(sink.packets[0].route.front(), 2);
  EXPECT_EQ(sink.packets[0].route[1], 6);
  EXPECT_EQ(link.stats().misrouted, 1u);
}

TEST(Link, FaultRatesRoughlyHonoured) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(99), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.2, 0.0, 0.0});
  for (int i = 0; i < 2000; ++i) link.send(make_data(i));
  eq.run();
  EXPECT_NEAR(static_cast<double>(link.stats().dropped), 400.0, 80.0);
}

TEST(Link, CanAcceptHonoursQueueBound) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 100, 4}, "l");
  link.connect(sink, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(link.can_accept());
    link.send(make_data(i));
  }
  EXPECT_FALSE(link.can_accept());
  eq.run();
  EXPECT_TRUE(link.can_accept());
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Link, RefusesAPacketTooLongForItsAccounting) {
  // In-flight entries keep the wire size in 24 bits.
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  EXPECT_THROW(link.send(make_data(0, std::size_t{1} << 24)),
               std::length_error);
  EXPECT_EQ(link.stats().sent, 0u);
  EXPECT_TRUE(eq.empty());
}

TEST(Switch, StripsRouteByteAndForwards) {
  sim::EventQueue eq;
  SinkSpy sink;
  Switch sw(eq, 0, 8, {}, "sw");
  Link out(eq, sim::Rng(1), {}, "out");
  out.connect(sink, 0);
  sw.connect(5, out);
  Packet p = make_data(0);
  p.route = {5, 9};
  sw.deliver(std::move(p), 2);
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].route, (std::vector<std::uint8_t>{9}));
  EXPECT_EQ(sw.stats().forwarded, 1u);
}

TEST(Switch, DeadRouteOnBadPort) {
  sim::EventQueue eq;
  Switch sw(eq, 0, 4, {}, "sw");
  Packet p = make_data(0);
  p.route = {7};  // beyond port count
  sw.deliver(std::move(p), 0);
  eq.run();
  EXPECT_EQ(sw.stats().dead_routed, 1u);
}

TEST(Switch, DeadRouteOnUnconnectedPort) {
  sim::EventQueue eq;
  Switch sw(eq, 0, 8, {}, "sw");
  Packet p = make_data(0);
  p.route = {3};  // valid port, nothing cabled
  sw.deliver(std::move(p), 0);
  eq.run();
  EXPECT_EQ(sw.stats().dead_routed, 1u);
}

TEST(Switch, DataPacketWithExhaustedRouteDies) {
  sim::EventQueue eq;
  Switch sw(eq, 0, 8, {}, "sw");
  sw.deliver(make_data(0), 0);  // empty route at a switch
  eq.run();
  EXPECT_EQ(sw.stats().dead_routed, 1u);
}

TEST(Switch, AnswersScoutWithIdentityAndWalkedPorts) {
  sim::EventQueue eq;
  SinkSpy prober;
  Switch sw(eq, 42, 8, {}, "sw");
  Link back(eq, sim::Rng(1), {}, "back");
  back.connect(prober, 0);
  sw.connect(6, back);  // scout came in port 6

  Packet scout;
  scout.type = PacketType::kMapScout;
  scout.src = 0;
  scout.msg_id = 77;
  sw.deliver(std::move(scout), 6);
  eq.run();
  ASSERT_EQ(prober.packets.size(), 1u);
  const Packet& r = prober.packets[0];
  EXPECT_EQ(r.type, PacketType::kMapReply);
  EXPECT_EQ(r.msg_id, 77u);
  const MapReplyInfo info = MapReplyInfo::decode(r.payload);
  EXPECT_EQ(info.kind, DeviceKind::kSwitch);
  EXPECT_EQ(info.id, 42u);
  EXPECT_EQ(info.ports, 8u);
  ASSERT_EQ(info.walked.size(), 1u);
  EXPECT_EQ(info.walked[0], 6u);
}

TEST(Switch, ScoutRecordsWalkedAcrossHops) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto s0 = topo.add_switch(8);
  const auto s1 = topo.add_switch(8);
  topo.connect_switches(s0, 7, s1, 2);
  SinkSpy prober;
  topo.attach_endpoint(prober, s0, 0, "probe");

  Packet scout;
  scout.type = PacketType::kMapScout;
  scout.src = 0;
  scout.route = {7};  // from s0 out port 7 into s1
  topo.get_switch(s0).deliver(std::move(scout), 0);
  eq.run();
  ASSERT_EQ(prober.packets.size(), 1u);
  const MapReplyInfo info = MapReplyInfo::decode(prober.packets[0].payload);
  EXPECT_EQ(info.id, s1);
  ASSERT_EQ(info.walked.size(), 2u);
  EXPECT_EQ(info.walked[0], 0u);  // entered s0 on port 0
  EXPECT_EQ(info.walked[1], 2u);  // entered s1 on port 2
}

TEST(Topology, EndpointToEndpointAcrossSwitch) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto sw = topo.add_switch(8);
  SinkSpy a, b;
  Link& a_up = topo.attach_endpoint(a, sw, 0, "a");
  topo.attach_endpoint(b, sw, 1, "b");
  Packet p = make_data(5);
  p.route = {1};
  a_up.send(std::move(p));
  eq.run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_TRUE(b.packets[0].route.empty());
  EXPECT_TRUE(b.packets[0].intact());
}

TEST(Topology, MultiSwitchPath) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto s0 = topo.add_switch(8);
  const auto s1 = topo.add_switch(8);
  const auto s2 = topo.add_switch(8);
  topo.connect_switches(s0, 7, s1, 6);
  topo.connect_switches(s1, 7, s2, 6);
  SinkSpy a, b;
  Link& a_up = topo.attach_endpoint(a, s0, 0, "a");
  topo.attach_endpoint(b, s2, 0, "b");
  Packet p = make_data(1);
  p.route = {7, 7, 0};
  a_up.send(std::move(p));
  eq.run();
  ASSERT_EQ(b.packets.size(), 1u);
}

TEST(Topology, SetAllFaultsAppliesToEveryLink) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto sw = topo.add_switch(8);
  SinkSpy a, b;
  Link& a_up = topo.attach_endpoint(a, sw, 0, "a");
  topo.attach_endpoint(b, sw, 1, "b");
  topo.set_all_faults({1.0, 0.0, 0.0});
  Packet p = make_data(1);
  p.route = {1};
  a_up.send(std::move(p));
  eq.run();
  EXPECT_TRUE(b.packets.empty());
}

std::vector<RouteEntry> entries_of(const RouteUpdateView& u) {
  std::vector<RouteEntry> out;
  u.for_each([&](NodeId dst, std::span<const std::uint8_t> r) {
    out.push_back({dst, Route(r)});
  });
  return out;
}

TEST(RouteCodec, RoundTrip) {
  const std::vector<RouteEntry> entries{{3, {1, 2, 3}}, {9, {}}, {300, {7}}};
  const auto bytes = RouteUpdate{7, 2, 5, entries}.encode();
  const RouteUpdateView out(bytes);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.chunk, 2u);
  EXPECT_EQ(out.nchunks, 5u);
  const auto got = entries_of(out);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].dst, 3u);
  EXPECT_EQ(got[0].route, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(got[1].route.empty());
  EXPECT_EQ(got[2].dst, 300u);
}

TEST(RouteCodec, TruncatedInputStopsCleanly) {
  const std::vector<RouteEntry> entries{{3, {1, 2, 3}}};
  auto bytes = RouteUpdate{1, 0, 1, entries}.encode();
  bytes.pop_back();  // cut the route short
  EXPECT_TRUE(entries_of(RouteUpdateView(bytes)).empty());
  bytes.resize(4);  // not even a full header
  const RouteUpdateView out(bytes);
  EXPECT_EQ(out.epoch, 0u);
  EXPECT_TRUE(entries_of(out).empty());
}

TEST(RouteCodec, ProbeHasNoEntries) {
  const auto bytes = RouteUpdate{42, 0, 0, {}}.encode();
  const RouteUpdateView out(bytes);
  EXPECT_EQ(out.epoch, 42u);
  EXPECT_EQ(out.nchunks, 0u);
  EXPECT_TRUE(entries_of(out).empty());
}

TEST(RouteCodec, AckRoundTrip) {
  RouteAck in{9, kProbeChunk, 8, true};
  const auto out = RouteAck::decode(in.encode());
  EXPECT_EQ(out.epoch, 9u);
  EXPECT_EQ(out.chunk, kProbeChunk);
  EXPECT_EQ(out.installed_epoch, 8u);
  EXPECT_TRUE(out.announce);
  RouteAck plain{3, 1, 3, false};
  EXPECT_FALSE(RouteAck::decode(plain.encode()).announce);
}

TEST(MapReplyInfo, RoundTrip) {
  MapReplyInfo in{DeviceKind::kSwitch, 513, 16, {1, 2, 3, 4}};
  const auto out = MapReplyInfo::decode(in.encode());
  EXPECT_EQ(out.kind, DeviceKind::kSwitch);
  EXPECT_EQ(out.id, 513u);
  EXPECT_EQ(out.ports, 16u);
  EXPECT_EQ(out.walked, in.walked);
}

TEST(MapReplyInfo, ReverseRoute) {
  EXPECT_EQ(reverse_route({1, 2, 3}), (std::vector<std::uint8_t>{3, 2, 1}));
  EXPECT_TRUE(reverse_route({}).empty());
}

}  // namespace
}  // namespace myri::net
