// Byte buffers and fixed-layout binary serialization.
//
// Meter messages and daemon protocol messages are defined by *byte layout*
// (the filter locates fields by offset/length, exactly as the paper's
// description files do), so serialization is explicit little-endian with
// fixed widths — never memcpy of structs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace dpm::util {

using Bytes = std::vector<std::uint8_t>;

/// Appends fixed-width little-endian values to a byte vector. Three modes:
/// the default constructor writes into an internal buffer (take() moves it
/// out); the Bytes& constructor appends to a caller-owned buffer in place
/// (zero-copy serialization into an existing batch); the span constructor
/// encodes into a caller-owned fixed region (a record pre-sized into its
/// batch by MeterMsg::serialize_into). In the latter two modes size() and
/// patch_u32() are relative to where this writer started, so back-patched
/// size words work identically in all modes.
///
/// The span mode never writes past the given capacity: an oversized write
/// is diverted to an internal discard buffer, ok() turns false, and the
/// caller must abandon the output — a record is encoded whole or not at
/// all, never truncated at the capacity edge.
class BinaryWriter {
 public:
  BinaryWriter() : out_(&own_) {}
  /// Appends to `out` (which must outlive the writer); take() is invalid.
  explicit BinaryWriter(Bytes& out) : out_(&out), base_(out.size()) {}
  /// Encodes into the fixed region [data, data+cap); take()/bytes() are
  /// invalid. size() keeps counting attempted bytes past `cap`, so after
  /// an overflow it reports the capacity the encode would have needed.
  BinaryWriter(std::uint8_t* data, std::size_t cap)
      : out_(&own_), fixed_(data), fixed_cap_(cap) {}

  // The value writers are inline: they run per field on the meter's
  // per-event encode path, where the call itself would dominate the store.

  /// One value: an integer at its own width, little-endian; an enum at its
  /// underlying type's; a std::string as an lstring. The field-list codecs
  /// write every field through it.
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      lstring(v);
    } else {
      static_assert(std::is_integral_v<T>, "no wire encoding for this type");
      auto u = static_cast<std::make_unsigned_t<T>>(v);
      std::uint8_t* p = grow(sizeof(T));
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        p[i] = static_cast<std::uint8_t>(u & 0xff);
        u = static_cast<decltype(u)>(u >> 8);
      }
    }
  }
  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  /// Raw bytes, no length prefix.
  void raw(const std::uint8_t* data, std::size_t n) {
    if (n != 0) std::memcpy(grow(n), data, n);
  }
  void raw(const Bytes& b) { raw(b.data(), b.size()); }
  /// u32 length prefix followed by the bytes of `s`.
  void lstring(std::string_view s) {
    std::uint8_t* p = grow(4 + s.size());
    auto len = static_cast<std::uint32_t>(s.size());
    for (int i = 0; i < 4; ++i) {
      p[i] = static_cast<std::uint8_t>(len & 0xff);
      len >>= 8;
    }
    if (!s.empty()) std::memcpy(p + 4, s.data(), s.size());
  }

  /// Overwrites a previously written u32 at `at` (for back-patched sizes).
  /// `at` counts from where this writer started appending.
  void patch_u32(std::size_t at, std::uint32_t v);

  /// Bytes written by this writer (not the whole target buffer).
  std::size_t size() const {
    return fixed_ != nullptr ? fixed_pos_ : out_->size() - base_;
  }
  /// False only in span mode after a write would have passed capacity.
  bool ok() const { return !overflow_; }
  const Bytes& bytes() const& { return *out_; }
  Bytes take();

 private:
  /// Extends the buffer by `n` bytes and returns a pointer to the new
  /// region: one capacity check per value/span instead of one per byte
  /// (this writer sits on the meter's per-event encode path).
  std::uint8_t* grow(std::size_t n) {
    if (fixed_ != nullptr) {
      if (overflow_ || n > fixed_cap_ - fixed_pos_ || fixed_pos_ > fixed_cap_) {
        return grow_overflow(n);
      }
      std::uint8_t* p = fixed_ + fixed_pos_;
      fixed_pos_ += n;
      return p;
    }
    const std::size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }
  /// Span-overflow slow path: fail safe into a discard buffer.
  std::uint8_t* grow_overflow(std::size_t n);

  Bytes own_;
  Bytes* out_;
  std::size_t base_ = 0;
  std::uint8_t* fixed_ = nullptr;
  std::size_t fixed_cap_ = 0;
  std::size_t fixed_pos_ = 0;
  bool overflow_ = false;
};

/// Bounds-checked reader over a byte span. All getters return nullopt past
/// the end; once a read fails the reader stays failed (`ok()` is false).
class BinaryReader {
 public:
  explicit BinaryReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::optional<std::uint8_t> u8() { return read<std::uint8_t>(); }
  std::optional<std::uint16_t> u16() { return read<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return read<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return read<std::uint64_t>(); }
  std::optional<std::int32_t> i32() { return read<std::int32_t>(); }
  std::optional<std::int64_t> i64() { return read<std::int64_t>(); }
  std::optional<Bytes> raw(std::size_t n);
  std::optional<std::string> lstring();

  /// Reads one value written by BinaryWriter::put into `out`; false (and
  /// `out` untouched) past the end.
  template <typename T>
  bool get(T& out) {
    if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> v{};
      if (!get(v)) return false;
      out = static_cast<T>(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      auto v = lstring();
      if (!v) return false;
      out = std::move(*v);
    } else {
      static_assert(std::is_integral_v<T>, "no wire encoding for this type");
      if (!need(sizeof(T))) return false;
      std::make_unsigned_t<T> v = 0;
      for (std::size_t i = sizeof(T); i-- > 0;) {
        v = static_cast<decltype(v)>(v << 8 | data_[pos_ + i]);
      }
      pos_ += sizeof(T);
      out = static_cast<T>(v);
    }
    return true;
  }
  /// Marks the reader failed: a field decoded but broke a rule of its
  /// message (a count over its cap).
  void fail() { failed_ = true; }

  bool ok() const { return !failed_; }
  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }
  void skip(std::size_t n);

 private:
  template <typename T>
  std::optional<T> read() {
    T v{};
    if (!get(v)) return std::nullopt;
    return v;
  }
  bool need(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// The little-endian u32 at `p`: a frame's size word, read in place.
inline std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// A default-built alternative of the message variant `V` whose static
/// kType is `t` (a wire type word); nullopt when no alternative has it.
template <typename V, typename T>
std::optional<V> alternative_of(T t) {
  std::optional<V> out;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (void)((std::variant_alternative_t<I, V>::kType == t &&
            (out.emplace(std::in_place_index<I>), true)) ||
           ...);
  }(std::make_index_sequence<std::variant_size_v<V>>{});
  return out;
}

/// Hex dump ("de ad be ef") of at most `max_bytes` bytes, for diagnostics.
std::string hex_dump(const Bytes& b, std::size_t max_bytes = 64);

Bytes to_bytes(std::string_view s);
std::string to_string(const Bytes& b);

}  // namespace dpm::util
