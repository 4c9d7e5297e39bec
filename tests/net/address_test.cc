#include "net/address.h"

#include <gtest/gtest.h>

namespace dpm::net {
namespace {

TEST(SockAddr, InetTextIsPaperStyleNumber) {
  // Fig 3.3 matches destinations numerically ("destName=228320140"):
  // internet names render as host*65536 + port.
  SockAddr a = SockAddr::inet(0, 3484, 31500);
  EXPECT_EQ(a.text(), "228358924");  // 3484*65536 + 31500
  EXPECT_EQ(a.numeric().value(), 228358924);
}

TEST(SockAddr, InetTextAtTheEndsOfItsRange) {
  EXPECT_EQ(SockAddr::inet(0, 0, 0).text(), "0");
  // The largest name: host 2^32-1, port 65535, i.e. 2^48 - 1.
  EXPECT_EQ(SockAddr::inet(0, 0xffffffffu, 65535).text(), "281474976710655");
}

TEST(SockAddr, UnixTextIsPath) {
  SockAddr a = SockAddr::unix_name("/tmp/sock");
  EXPECT_EQ(a.text(), "/tmp/sock");
  EXPECT_FALSE(a.numeric().has_value());
}

TEST(SockAddr, InternalNamesAreUnique) {
  SockAddr a = SockAddr::internal(1);
  SockAddr b = SockAddr::internal(2);
  EXPECT_NE(a.text(), b.text());
  EXPECT_EQ(a.text(), "#1");
}

TEST(SockAddr, ComparisonAndUnspec) {
  SockAddr a = SockAddr::inet(0, 1, 2);
  SockAddr b = SockAddr::inet(0, 1, 2);
  SockAddr c = SockAddr::inet(0, 1, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(SockAddr{}.is_unspec());
  EXPECT_FALSE(a.is_unspec());
}

TEST(SockAddr, DebugRendering) {
  EXPECT_EQ(SockAddr::inet(2, 7, 99).debug(), "inet(net2,7:99)");
  EXPECT_EQ(SockAddr::unix_name("/x").debug(), "unix(/x)");
}

}  // namespace
}  // namespace dpm::net
