#include "util/bytes.h"

#include <cassert>
#include <cstdio>
#include <cstring>

namespace dpm::util {

std::uint8_t* BinaryWriter::grow_overflow(std::size_t n) {
  // Span overflow: fail safe into a discard buffer. fixed_pos_ keeps
  // advancing so size() reports the capacity the encode needed.
  overflow_ = true;
  fixed_pos_ += n;
  if (own_.size() < n) own_.resize(n);
  return own_.data();
}

void BinaryWriter::patch_u32(std::size_t at, std::uint32_t v) {
  if (fixed_ != nullptr) {
    if (overflow_ || at + 4 > fixed_pos_ || at + 4 > fixed_cap_) return;
    for (int i = 0; i < 4; ++i) {
      fixed_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
    return;
  }
  for (int i = 0; i < 4; ++i) {
    out_->at(base_ + at + i) = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
}

Bytes BinaryWriter::take() {
  assert(out_ == &own_ && fixed_ == nullptr &&
         "take() is only valid for an owned buffer");
  return std::move(own_);
}

std::optional<Bytes> BinaryReader::raw(std::size_t n) {
  if (!need(n)) return std::nullopt;
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

std::optional<std::string> BinaryReader::lstring() {
  auto n = u32();
  if (!n || !need(*n)) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(data_ + pos_), *n);
  pos_ += *n;
  return s;
}

void BinaryReader::skip(std::size_t n) {
  if (need(n)) pos_ += n;
}

std::string hex_dump(const Bytes& b, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = b.size() < max_bytes ? b.size() : max_bytes;
  char buf[4];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof buf, "%02x", b[i]);
    if (i) out.push_back(' ');
    out += buf;
  }
  if (n < b.size()) out += " ...";
  return out;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s.data()),
               reinterpret_cast<const std::uint8_t*>(s.data()) + s.size());
}

std::string to_string(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace dpm::util
