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
  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) {
    std::uint8_t* p = grow(2);
    p[0] = static_cast<std::uint8_t>(v & 0xff);
    p[1] = static_cast<std::uint8_t>(v >> 8);
  }
  void u32(std::uint32_t v) {
    std::uint8_t* p = grow(4);
    for (int i = 0; i < 4; ++i) {
      p[i] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
  }
  void u64(std::uint64_t v) {
    std::uint8_t* p = grow(8);
    for (int i = 0; i < 8; ++i) {
      p[i] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
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
  /// Exactly `width` bytes: `s` truncated or zero-padded (fixed-layout field).
  void fixed_string(std::string_view s, std::size_t width);

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

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::int32_t> i32();
  std::optional<std::int64_t> i64();
  std::optional<Bytes> raw(std::size_t n);
  std::optional<std::string> lstring();
  /// Reads `width` bytes and strips trailing NULs (fixed-layout field).
  std::optional<std::string> fixed_string(std::size_t width);

  bool ok() const { return !failed_; }
  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }
  void skip(std::size_t n);

 private:
  bool need(std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Hex dump ("de ad be ef") of at most `max_bytes` bytes, for diagnostics.
std::string hex_dump(const Bytes& b, std::size_t max_bytes = 64);

Bytes to_bytes(std::string_view s);
std::string to_string(const Bytes& b);

}  // namespace dpm::util
