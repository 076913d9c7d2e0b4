// Myrinet source routes as inline values.
//
// A source route is one output-port byte per switch on the way; a scout's
// walked list is one input-port byte per switch it entered. Both are a
// net::Route: a 24-byte value, the size of the std::vector it replaces,
// that keeps up to kInline bytes in place and spills longer routes to the
// heap the way std::string does. Every route the mapper probes with fits
// in place, so packets, route tables and the MAP_ROUTE codecs copy routes
// without touching the allocator (DESIGN.md section 16).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <stdexcept>

namespace myri::net {

/// Longest probe route the mapper sends (Mapper::Config::max_depth).
inline constexpr std::size_t kMaxProbeDepth = 16;

class Route {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  /// Bytes kept in place: a full-depth probe's walked list (one input
  /// port per switch plus the answering device's), rounded up so the
  /// bytes, the 16-bit length and the 16-bit capacity fill 8-byte words.
  static constexpr std::size_t kInline =
      (kMaxProbeDepth + 1 + 2 * sizeof(std::uint16_t) + 7) / 8 * 8 -
      2 * sizeof(std::uint16_t);
  /// Longest route: MAP_ROUTE and MAP_REPLY carry the length in one byte.
  /// Growing a route past it throws std::length_error.
  static constexpr std::size_t kMaxHops = 255;

  Route() noexcept = default;
  Route(std::initializer_list<std::uint8_t> bytes) {
    assign({bytes.begin(), bytes.size()});
  }
  explicit Route(std::span<const std::uint8_t> bytes) { assign(bytes); }

  Route(const Route& o) {
    if (o.cap_ == 0) {
      std::memcpy(buf_, o.buf_, kInline);
      len_ = o.len_;
    } else {
      assign({o.data(), o.size()});
    }
  }
  /// noexcept: a Packet closure stays inside the event slab only if every
  /// member moves without throwing (sim::InlineCallback::fits_inline).
  Route(Route&& o) noexcept { steal(o); }
  Route& operator=(const Route& o) {
    if (this == &o) return *this;
    if (cap_ == 0 && o.cap_ == 0) {
      std::memcpy(buf_, o.buf_, kInline);
      len_ = o.len_;
    } else {
      assign({o.data(), o.size()});
    }
    return *this;
  }
  Route& operator=(Route&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~Route() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return cap_ == 0 ? kInline : cap_;
  }
  [[nodiscard]] std::uint8_t* data() noexcept {
    return cap_ == 0 ? buf_ : heap();
  }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return cap_ == 0 ? buf_ : heap();
  }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + len_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + len_; }
  [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept {
    return data()[i];
  }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] std::uint8_t& front() noexcept { return data()[0]; }
  [[nodiscard]] std::uint8_t front() const noexcept { return data()[0]; }
  [[nodiscard]] std::uint8_t back() const noexcept { return data()[len_ - 1]; }

  /// Replace the contents; keeps a heap buffer that is big enough.
  void assign(std::span<const std::uint8_t> bytes) {
    reserve(bytes.size());
    if (!bytes.empty()) std::memmove(data(), bytes.data(), bytes.size());
    len_ = static_cast<std::uint16_t>(bytes.size());
  }
  /// New bytes are zero.
  void resize(std::size_t n) {
    reserve(n);
    if (n > len_) std::memset(data() + len_, 0, n - len_);
    len_ = static_cast<std::uint16_t>(n);
  }
  void push_back(std::uint8_t b) {
    reserve(len_ + std::size_t{1});
    data()[len_++] = b;
  }
  /// Remove one byte; erase(begin()) is a switch consuming its hop.
  iterator erase(const_iterator pos) noexcept {
    std::uint8_t* p = data() + (pos - data());
    std::memmove(p, p + 1, static_cast<std::size_t>(end() - p - 1));
    --len_;
    return p;
  }
  void clear() noexcept { len_ = 0; }

  friend bool operator==(const Route& a, const Route& b) noexcept {
    return equal(a, b.data(), b.size());
  }
  /// Byte-wise equality with any contiguous byte sequence (a
  /// std::vector<std::uint8_t>, an array, a span of a payload).
  friend bool operator==(const Route& a,
                         std::span<const std::uint8_t> b) noexcept {
    return equal(a, b.data(), b.size());
  }

 private:
  void reserve(std::size_t n) {
    if (n > capacity()) grow(n);
  }

  static bool equal(const Route& a, const std::uint8_t* b,
                    std::size_t n) noexcept {
    return a.len_ == n && (n == 0 || std::memcmp(a.data(), b, n) == 0);
  }

  [[nodiscard]] std::uint8_t* heap() const noexcept {
    std::uint8_t* p;
    std::memcpy(&p, buf_, sizeof p);
    return p;
  }

  void grow(std::size_t n) {
    if (n > kMaxHops) throw std::length_error("net::Route over 255 hops");
    std::size_t cap = 2 * capacity();
    if (cap > kMaxHops) cap = kMaxHops;
    if (cap < n) cap = n;
    auto* p = new std::uint8_t[cap];
    if (len_ != 0) std::memcpy(p, data(), len_);
    release();
    std::memcpy(buf_, &p, sizeof p);
    cap_ = static_cast<std::uint16_t>(cap);
  }

  void release() noexcept {
    if (cap_ != 0) delete[] heap();
    cap_ = 0;
  }

  /// Takes o's bytes or its heap buffer; o is left empty and in place.
  void steal(Route& o) noexcept {
    std::memcpy(buf_, o.buf_, kInline);
    len_ = o.len_;
    cap_ = o.cap_;
    o.len_ = 0;
    o.cap_ = 0;
  }

  // In place: the bytes. On the heap: the buffer pointer in the first
  // eight bytes.
  alignas(std::uint8_t*) std::uint8_t buf_[kInline] = {};
  std::uint16_t len_ = 0;
  std::uint16_t cap_ = 0;  // heap buffer size; 0 while the bytes are in place
};

static_assert(sizeof(Route) == 24);
static_assert(Route::kInline == 20);
static_assert(Route::kInline >= kMaxProbeDepth + 1,
              "a full-depth scout's walked list must stay in place");

}  // namespace myri::net
