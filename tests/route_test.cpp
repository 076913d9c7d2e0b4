// net::Route, the one representation of a source route or walked-port
// list, and the MAP_ROUTE / MAP_ROUTE_ACK / MAP_REPLY codecs built on it.
// The unit tests hold Route against a std::vector<std::uint8_t> model at
// the inline and wire-format boundaries. The differential tests hold the
// codecs against reference copies of the vector-based push_back encoders
// and per-entry decoder they replaced; the references live only here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "net/map_info.hpp"
#include "net/packet.hpp"
#include "net/route.hpp"
#include "sim/event_queue.hpp"

namespace myri::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

// A packet rides every Link and Switch hop inside an event closure. It
// stays in the event slab only while it is small and moves without
// throwing; InlineCallback silently moves a throwing-move closure to the
// heap, one allocation per hop.
static_assert(sizeof(Route) == 24);
static_assert(sizeof(Packet) == 128);
static_assert(std::is_nothrow_move_constructible_v<Route>);
static_assert(std::is_nothrow_move_constructible_v<Packet>);
static_assert(std::is_nothrow_move_assignable_v<Packet>);
struct HopClosure {  // what Switch::deliver schedules
  void* self;
  Packet p;
  std::uint8_t out_port;
  void operator()() {}
};
static_assert(sim::EventQueue::Callback::fits_inline<HopClosure>());

Bytes iota_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 7);
  return b;
}

class RouteBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RouteBoundary, MatchesTheVectorModel) {
  const std::size_t n = GetParam();
  const Bytes want = iota_bytes(n);
  Route pushed;
  for (const std::uint8_t b : want) pushed.push_back(b);
  const Route spanned(want);
  for (const Route* r : std::initializer_list<const Route*>{&pushed,
                                                           &spanned}) {
    EXPECT_EQ(r->size(), n);
    EXPECT_EQ(r->empty(), n == 0);
    EXPECT_EQ(*r, want);
    EXPECT_EQ(Bytes(r->begin(), r->end()), want);
    EXPECT_GE(r->capacity(), n);
    if (n <= Route::kInline) {
      EXPECT_EQ(r->capacity(), Route::kInline);
    }
  }
  if (n > 0) {
    EXPECT_EQ(pushed.front(), want.front());
    EXPECT_EQ(pushed.back(), want.back());
    EXPECT_EQ(pushed[n - 1], want[n - 1]);
  }

  Route copy(pushed);
  EXPECT_EQ(copy, want);
  Route moved(std::move(copy));
  EXPECT_EQ(moved, want);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  copy.push_back(9);          // a moved-from route is reusable
  EXPECT_EQ(copy, (Bytes{9}));

  Route assigned{1, 2, 3};
  assigned = pushed;
  EXPECT_EQ(assigned, want);
  Route move_assigned{4};
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned, want);

  Route& self = move_assigned;
  move_assigned = self;
  EXPECT_EQ(move_assigned, want);
  move_assigned = std::move(self);
  EXPECT_EQ(move_assigned, want);
}

TEST_P(RouteBoundary, SwitchPopsMatchTheVectorModel) {
  Bytes model = iota_bytes(GetParam());
  Route r(model);
  while (!model.empty()) {
    EXPECT_EQ(r.front(), model.front());
    const auto it = r.erase(r.begin());
    model.erase(model.begin());
    EXPECT_EQ(it, r.begin());
    ASSERT_EQ(r, model);
  }
  EXPECT_TRUE(r.empty());
}

TEST_P(RouteBoundary, ReversalMatchesTheVectorModel) {
  const Bytes fwd = iota_bytes(GetParam());
  const Bytes back(fwd.rbegin(), fwd.rend());
  EXPECT_EQ(reverse_route(Route(fwd)), back);
  EXPECT_EQ(reverse_route(reverse_route(Route(fwd))), fwd);
}

INSTANTIATE_TEST_SUITE_P(Hops, RouteBoundary,
                         ::testing::Values(0u, 1u, Route::kInline,
                                           Route::kInline + 1,
                                           Route::kMaxHops));

TEST(Route, InlineBoundIsAFullDepthWalkedList) {
  EXPECT_EQ(Route::kInline, 20u);
  Route walked;
  for (std::size_t i = 0; i <= kMaxProbeDepth; ++i) walked.push_back(1);
  EXPECT_EQ(walked.capacity(), Route::kInline);  // never left its place
}

TEST(Route, NoRouteOutgrowsTheWireFormat) {
  Route r(iota_bytes(Route::kMaxHops));
  EXPECT_THROW(r.push_back(0), std::length_error);
  EXPECT_EQ(r.size(), Route::kMaxHops);
  EXPECT_THROW((void)Route(iota_bytes(Route::kMaxHops + 1)),
               std::length_error);
  EXPECT_THROW(r.resize(Route::kMaxHops + 1), std::length_error);
}

TEST(Route, HeapRouteShrinksBackIntoPlaceWhenCopied) {
  Route r(iota_bytes(Route::kInline + 1));
  EXPECT_GT(r.capacity(), Route::kInline);
  r.resize(Route::kInline);
  const Route copy(r);
  EXPECT_EQ(copy.capacity(), Route::kInline);
  EXPECT_EQ(copy, r);
}

TEST(Route, EqualityAgainstAVector) {
  const Route r{1, 2, 3};
  EXPECT_TRUE(r == (Bytes{1, 2, 3}));
  EXPECT_TRUE((Bytes{1, 2, 3}) == r);
  EXPECT_FALSE(r == (Bytes{1, 2}));
  EXPECT_FALSE(r == (Bytes{1, 2, 3, 4}));
  EXPECT_FALSE(r == (Bytes{1, 2, 4}));
  EXPECT_TRUE(r != (Bytes{3, 2, 1}));
  EXPECT_TRUE(Route{} == Bytes{});
  EXPECT_FALSE(Route{} == (Bytes{0}));
  EXPECT_EQ(Route(iota_bytes(40)), Route(iota_bytes(40)));
  EXPECT_NE(Route(iota_bytes(40)), Route(iota_bytes(41)));
}

// ---------------------------------------------------------------------------
// Codec differential: reference copies of the vector-based codecs.
// ---------------------------------------------------------------------------

namespace ref {

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(std::byte{static_cast<unsigned char>(v & 0xff)});
  out.push_back(std::byte{static_cast<unsigned char>(v >> 8)});
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(std::byte{static_cast<unsigned char>((v >> (8 * i)) & 0xff)});
  }
}

std::uint16_t get_u16(const std::vector<std::byte>& p, std::size_t i) {
  return static_cast<std::uint16_t>(std::to_integer<unsigned>(p[i]) |
                                    std::to_integer<unsigned>(p[i + 1]) << 8);
}

std::uint32_t get_u32(const std::vector<std::byte>& p, std::size_t i) {
  std::uint32_t v = 0;
  for (int k = 3; k >= 0; --k) {
    v = v << 8 | std::to_integer<std::uint32_t>(p[i + static_cast<unsigned>(k)]);
  }
  return v;
}

struct Entry {
  NodeId dst = kInvalidNode;
  Bytes route;
};

struct Update {
  std::uint32_t epoch = 0;
  std::uint16_t chunk = 0;
  std::uint16_t nchunks = 0;
  std::vector<Entry> entries;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out;
    put_u32(out, epoch);
    put_u16(out, chunk);
    put_u16(out, nchunks);
    for (const auto& e : entries) {
      put_u16(out, e.dst);
      out.push_back(std::byte{static_cast<unsigned char>(e.route.size())});
      for (auto b : e.route) out.push_back(std::byte{b});
    }
    return out;
  }

  static Update decode(const std::vector<std::byte>& p) {
    Update u;
    if (p.size() < 8) return u;
    u.epoch = get_u32(p, 0);
    u.chunk = get_u16(p, 4);
    u.nchunks = get_u16(p, 6);
    std::size_t i = 8;
    while (i + 3 <= p.size()) {
      Entry e;
      e.dst = static_cast<NodeId>(get_u16(p, i));
      const auto len = std::to_integer<std::size_t>(p[i + 2]);
      i += 3;
      if (i + len > p.size()) break;  // truncated/corrupt update: stop
      e.route.reserve(len);
      for (std::size_t k = 0; k < len; ++k) {
        e.route.push_back(std::to_integer<std::uint8_t>(p[i + k]));
      }
      i += len;
      u.entries.push_back(std::move(e));
    }
    return u;
  }
};

struct Ack {
  std::uint32_t epoch = 0;
  std::uint16_t chunk = 0;
  std::uint32_t installed_epoch = 0;
  bool announce = false;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out;
    put_u32(out, epoch);
    put_u16(out, chunk);
    put_u32(out, installed_epoch);
    out.push_back(std::byte{static_cast<unsigned char>(announce ? 1 : 0)});
    return out;
  }

  static Ack decode(const std::vector<std::byte>& p) {
    Ack a;
    if (p.size() < 11) return a;
    a.epoch = get_u32(p, 0);
    a.chunk = get_u16(p, 4);
    a.installed_epoch = get_u32(p, 6);
    a.announce = std::to_integer<unsigned>(p[10]) != 0;
    return a;
  }
};

struct Reply {
  DeviceKind kind = DeviceKind::kInterface;
  std::uint16_t id = 0;
  std::uint8_t ports = 1;
  Bytes walked;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out = {
        std::byte{static_cast<unsigned char>(kind)},
        std::byte{static_cast<unsigned char>(id & 0xff)},
        std::byte{static_cast<unsigned char>(id >> 8)},
        std::byte{ports},
        std::byte{static_cast<unsigned char>(walked.size())}};
    for (auto b : walked) out.push_back(std::byte{b});
    return out;
  }

  static Reply decode(const std::vector<std::byte>& p) {
    Reply info;
    if (p.size() >= 5) {
      info.kind = static_cast<DeviceKind>(p[0]);
      info.id = static_cast<std::uint16_t>(std::to_integer<unsigned>(p[1]) |
                                           std::to_integer<unsigned>(p[2])
                                               << 8);
      info.ports = std::to_integer<std::uint8_t>(p[3]);
      const auto n = std::to_integer<std::size_t>(p[4]);
      for (std::size_t i = 0; i < n && 5 + i < p.size(); ++i) {
        info.walked.push_back(std::to_integer<std::uint8_t>(p[5 + i]));
      }
    }
    return info;
  }
};

}  // namespace ref

struct Gen {
  std::mt19937_64 rng;

  std::uint64_t below(std::uint64_t n) { return rng() % n; }
  template <typename T>
  T pick_extreme() {
    // Extremes half the time, anything the type holds otherwise.
    constexpr T kMax = std::numeric_limits<T>::max();
    const T extremes[] = {0, 1, static_cast<T>(kMax - 1), kMax};
    if (below(2) == 0) return extremes[below(4)];
    return static_cast<T>(rng());
  }
  Bytes route() {
    // Mostly short, as the fabric's are, with the full wire range covered.
    const std::size_t n = below(4) == 0 ? below(Route::kMaxHops + 1)
                                        : below(Route::kInline + 2);
    Bytes b(n);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng());
    return b;
  }
};

std::vector<RouteEntry> entries_of(const RouteUpdateView& u) {
  std::vector<RouteEntry> out;
  u.for_each([&](NodeId dst, std::span<const std::uint8_t> r) {
    out.push_back({dst, Route(r)});
  });
  return out;
}

void expect_same_decode(const std::vector<std::byte>& p) {
  const ref::Update want = ref::Update::decode(p);
  const RouteUpdateView got(p);
  ASSERT_EQ(got.epoch, want.epoch);
  ASSERT_EQ(got.chunk, want.chunk);
  ASSERT_EQ(got.nchunks, want.nchunks);
  const auto entries = entries_of(got);
  ASSERT_EQ(entries.size(), want.entries.size()) << p.size() << " bytes";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(entries[i].dst, want.entries[i].dst);
    ASSERT_EQ(entries[i].route, want.entries[i].route);
  }
}

TEST(RouteCodecDifferential, RouteUpdateMatchesTheVectorCodec) {
  Gen g{std::mt19937_64(2026)};
  for (int trial = 0; trial < 300; ++trial) {
    ref::Update old;
    old.epoch = g.pick_extreme<std::uint32_t>();
    old.chunk = g.pick_extreme<std::uint16_t>();
    old.nchunks = g.below(5) == 0 ? std::uint16_t{0}
                                  : g.pick_extreme<std::uint16_t>();
    const std::size_t n = old.nchunks == 0 && g.below(2) == 0
                              ? 0  // a probe as the mapper sends it
                              : g.below(41);
    std::vector<RouteEntry> table;
    for (std::size_t i = 0; i < n; ++i) {
      const auto dst = g.pick_extreme<std::uint16_t>();
      const Bytes r = g.route();
      old.entries.push_back({dst, r});
      table.push_back({dst, Route(r)});
    }
    const auto bytes =
        RouteUpdate{old.epoch, old.chunk, old.nchunks, table}.encode();
    ASSERT_EQ(bytes, old.encode()) << "trial " << trial;
    // Every truncation stops at the same entry as the vector decoder.
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      expect_same_decode({bytes.begin(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
    }
  }
}

TEST(RouteCodecDifferential, HostileRouteUpdatePayloadsDecodeAlike) {
  Gen g{std::mt19937_64(7)};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::byte> p(g.below(300));
    for (auto& b : p) b = std::byte{static_cast<unsigned char>(g.rng())};
    expect_same_decode(p);
  }
}

TEST(RouteCodecDifferential, RouteAckMatchesTheVectorCodec) {
  Gen g{std::mt19937_64(11)};
  for (int trial = 0; trial < 500; ++trial) {
    const ref::Ack old{g.pick_extreme<std::uint32_t>(),
                       g.below(3) == 0 ? kProbeChunk
                                       : g.pick_extreme<std::uint16_t>(),
                       g.pick_extreme<std::uint32_t>(), g.below(2) == 0};
    const RouteAck now{old.epoch, old.chunk, old.installed_epoch,
                       old.announce};
    const auto bytes = now.encode();
    ASSERT_EQ(bytes, old.encode());
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      const std::vector<std::byte> p(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      const ref::Ack want = ref::Ack::decode(p);
      const RouteAck got = RouteAck::decode(p);
      ASSERT_EQ(got.epoch, want.epoch);
      ASSERT_EQ(got.chunk, want.chunk);
      ASSERT_EQ(got.installed_epoch, want.installed_epoch);
      ASSERT_EQ(got.announce, want.announce);
    }
  }
}

TEST(RouteCodecDifferential, MapReplyInfoMatchesTheVectorCodec) {
  Gen g{std::mt19937_64(13)};
  for (int trial = 0; trial < 300; ++trial) {
    ref::Reply old;
    old.kind = g.below(2) == 0 ? DeviceKind::kSwitch : DeviceKind::kInterface;
    old.id = g.pick_extreme<std::uint16_t>();
    old.ports = g.pick_extreme<std::uint8_t>();
    old.walked = g.route();
    const MapReplyInfo now{old.kind, old.id, old.ports, Route(old.walked)};
    const auto bytes = now.encode();
    ASSERT_EQ(bytes, old.encode());
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      const std::vector<std::byte> p(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      const ref::Reply want = ref::Reply::decode(p);
      const MapReplyInfo got = MapReplyInfo::decode(p);
      ASSERT_EQ(got.kind, want.kind);
      ASSERT_EQ(got.id, want.id);
      ASSERT_EQ(got.ports, want.ports);
      ASSERT_EQ(got.walked, want.walked);
    }
  }
}

}  // namespace
}  // namespace myri::net
