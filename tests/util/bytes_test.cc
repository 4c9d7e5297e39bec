#include "util/bytes.h"

#include <gtest/gtest.h>

namespace dpm::util {
namespace {

TEST(BinaryWriter, LittleEndianLayout) {
  BinaryWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 0xab);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0x12);
  EXPECT_EQ(b[3], 0xef);
  EXPECT_EQ(b[4], 0xbe);
  EXPECT_EQ(b[5], 0xad);
  EXPECT_EQ(b[6], 0xde);
}

TEST(BinaryRoundTrip, AllWidths) {
  BinaryWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(4000000000u);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.lstring("hello");

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 7);
  EXPECT_EQ(r.u16().value(), 65535);
  EXPECT_EQ(r.u32().value(), 4000000000u);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32().value(), -42);
  EXPECT_EQ(r.i64().value(), -1234567890123LL);
  EXPECT_EQ(r.lstring().value(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

TEST(BinaryReader, FailsPastEndAndStaysFailed) {
  BinaryWriter w;
  w.u16(9);
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.u8().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.u8().has_value());  // stays failed
}

TEST(BinaryReader, LstringLengthBeyondBufferFails) {
  BinaryWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8('x');
  BinaryReader r(w.bytes());
  EXPECT_FALSE(r.lstring().has_value());
}

TEST(BinaryWriter, PatchU32) {
  BinaryWriter w;
  w.u32(0);
  w.lstring("payload");
  w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u32().value(), w.size());
}

TEST(BinaryWriter, SpanWriterRefusesOverflowInsteadOfTruncating) {
  // The span-mode contract MeterMsg::serialize_into relies on: a writer
  // that runs out of capacity flips ok() to false, keeps counting the
  // bytes the encode would have needed, and never writes past the region.
  auto encode = [](BinaryWriter& w) {
    w.u32(0);  // size word, back-patched
    w.u16(7);
    w.i64(-3);
    w.lstring("123456");
    w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
  };
  BinaryWriter reference;
  encode(reference);
  const Bytes wire = reference.take();
  ASSERT_GT(wire.size(), 8u);

  Bytes region(wire.size(), 0xcd);
  BinaryWriter short_w(region.data(), 8);
  encode(short_w);
  EXPECT_FALSE(short_w.ok());
  EXPECT_EQ(short_w.size(), wire.size());  // needed capacity, not clipped
  for (std::size_t i = 8; i < region.size(); ++i) {
    ASSERT_EQ(region[i], 0xcd) << "wrote past capacity at " << i;
  }

  BinaryWriter exact_w(region.data(), region.size());
  encode(exact_w);
  EXPECT_TRUE(exact_w.ok());
  EXPECT_EQ(exact_w.size(), wire.size());
  EXPECT_EQ(region, wire);  // back-patched size word included
}

TEST(BinaryRoundTrip, PutAndGetMatchTheNamedWidths) {
  // The field-list codecs write every field through put(): each type must
  // land at its own width, an enum at its underlying type's, a string as
  // an lstring with its bytes kept exactly.
  enum class Tag : std::uint32_t { x = 0xa1b2c3d4 };
  const std::string name("a\0b\0", 4);
  BinaryWriter named;
  named.u8(7);
  named.u16(0x1234);
  named.i32(-5);
  named.u64(0x0123456789abcdefULL);
  named.i64(-1234567890123LL);
  named.u32(0xa1b2c3d4);
  named.lstring(name);
  BinaryWriter w;
  w.put(std::uint8_t{7});
  w.put(std::uint16_t{0x1234});
  w.put(std::int32_t{-5});
  w.put(std::uint64_t{0x0123456789abcdefULL});
  w.put(std::int64_t{-1234567890123LL});
  w.put(Tag::x);
  w.put(name);
  EXPECT_EQ(w.bytes(), named.bytes());

  BinaryReader r(w.bytes());
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::int32_t c = 0;
  std::uint64_t d = 0;
  std::int64_t e = 0;
  Tag t{};
  std::string s;
  EXPECT_TRUE(r.get(a) && r.get(b) && r.get(c) && r.get(d) && r.get(e) &&
              r.get(t) && r.get(s));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 0x1234);
  EXPECT_EQ(c, -5);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  EXPECT_EQ(e, -1234567890123LL);
  EXPECT_EQ(t, Tag::x);
  EXPECT_EQ(s, name);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.get(a));
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, StringConversionRoundTrip) {
  const std::string s = "some\0binary\ndata";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(HexDump, TruncatesLongBuffers) {
  Bytes b(100, 0xaa);
  const std::string d = hex_dump(b, 4);
  EXPECT_EQ(d, "aa aa aa aa ...");
}

}  // namespace
}  // namespace dpm::util
