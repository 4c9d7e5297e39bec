// select() semantics: readability across socket kinds, timeouts, child
// events — the syscall the monitor's own daemons and filters rely on.
#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "testing.h"

namespace dpm::kernel {
namespace {

class SelectTest : public ::testing::Test {
 protected:
  SelectTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red"});
    world_.add_account_everywhere(100);
  }
  World world_;
  std::vector<MachineId> machines_;
};

TEST_F(SelectTest, TimesOutWhenNothingReady) {
  bool timed_out = false;
  std::int64_t waited = 0;
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*fd, 6001);
    const auto t0 = sys.clock_us();
    auto sel = sys.select({*fd}, false, util::msec(50));
    ASSERT_TRUE(sel.ok());
    timed_out = sel->timed_out;
    waited = sys.clock_us() - t0;
  });
  world_.run();
  EXPECT_TRUE(timed_out);
  EXPECT_GE(waited, 45000);
}

TEST_F(SelectTest, WakesOnDatagramArrival) {
  bool readable = false;
  (void)world_.spawn(machines_[0], "rx", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*fd, 6002);
    auto sel = sys.select({*fd}, false, util::sec(5));
    ASSERT_TRUE(sel.ok());
    readable = !sel->readable.empty() && !sel->timed_out;
  });
  (void)world_.spawn(machines_[0], "tx", 100, [&](Sys& sys) {
    sys.sleep(util::msec(20));
    auto addr = sys.resolve("red", 6002);
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    ASSERT_TRUE(sys.sendto(*fd, util::to_bytes("ping"), *addr).ok());
  });
  world_.run();
  EXPECT_TRUE(readable);
}

TEST_F(SelectTest, ListenerReadableWhenConnectionPending) {
  bool listener_ready = false;
  (void)world_.spawn(machines_[0], "srv", 100, [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 6003);
    (void)sys.listen(*ls, 4);
    auto sel = sys.select({*ls}, false, util::sec(5));
    ASSERT_TRUE(sel.ok());
    listener_ready = !sel->readable.empty();
    if (listener_ready) {
      ASSERT_TRUE(sys.accept(*ls).ok());
    }
  });
  (void)world_.spawn(machines_[0], "cli", 100, [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 6003);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
  });
  world_.run();
  EXPECT_TRUE(listener_ready);
}

TEST_F(SelectTest, ChildEventWakesSelect) {
  bool got_child_event = false;
  (void)world_.spawn(machines_[0], "parent", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*fd, 6004);
    auto child = sys.fork([](Sys& csys) {
      csys.sleep(util::msec(30));
      csys.exit(0);
    });
    ASSERT_TRUE(child.ok());
    auto sel = sys.select({*fd}, /*child_events=*/true, util::sec(5));
    ASSERT_TRUE(sel.ok());
    got_child_event = sel->child_event;
  });
  world_.run();
  EXPECT_TRUE(got_child_event);
}

TEST_F(SelectTest, MultipleFdsReportOnlyReadyOnes) {
  std::vector<Fd> ready_fds;
  Fd quiet_fd = -1, busy_fd = -1;
  (void)world_.spawn(machines_[0], "rx", 100, [&](Sys& sys) {
    auto a = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*a, 6005);
    auto b = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*b, 6006);
    quiet_fd = *a;
    busy_fd = *b;
    auto sel = sys.select({*a, *b}, false, util::sec(5));
    ASSERT_TRUE(sel.ok());
    ready_fds = sel->readable;
  });
  (void)world_.spawn(machines_[0], "tx", 100, [&](Sys& sys) {
    sys.sleep(util::msec(10));
    auto addr = sys.resolve("red", 6006);
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    ASSERT_TRUE(sys.sendto(*fd, util::to_bytes("x"), *addr).ok());
  });
  world_.run();
  ASSERT_EQ(ready_fds.size(), 1u);
  EXPECT_EQ(ready_fds[0], busy_fd);
  EXPECT_NE(ready_fds[0], quiet_fd);
}

TEST_F(SelectTest, BadFdIsError) {
  util::Err result = util::Err::ok;
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    result = sys.select({55}, false, util::msec(1)).error();
  });
  world_.run();
  EXPECT_EQ(result, util::Err::ebadf);
}

TEST_F(SelectTest, ZeroTimeoutPolls) {
  bool timed_out = false;
  std::int64_t elapsed = -1;
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*fd, 6007);
    const auto t0 = sys.clock_us();
    auto sel = sys.select({*fd}, false, util::Duration{0});
    ASSERT_TRUE(sel.ok());
    timed_out = sel->timed_out;
    elapsed = sys.clock_us() - t0;
  });
  world_.run();
  EXPECT_TRUE(timed_out);
  EXPECT_LT(elapsed, 5000);  // effectively immediate
}

}  // namespace
}  // namespace dpm::kernel
