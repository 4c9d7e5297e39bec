// Resource limits and edge semantics of the substrate.
#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "meter/metermsgs.h"
#include "testing.h"

namespace dpm::kernel {
namespace {

using util::Err;

class LimitsTest : public ::testing::Test {
 protected:
  LimitsTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red", "green"});
    world_.add_account_everywhere(100);
  }
  World world_;
  std::vector<MachineId> machines_;
};

TEST_F(LimitsTest, DescriptorTableExhaustion) {
  Err result = Err::ok;
  std::size_t opened = 0;
  (void)world_.spawn(machines_[0], "hog", 100, [&](Sys& sys) {
    for (;;) {
      auto fd = sys.socket(SockDomain::internet, SockType::dgram);
      if (!fd.ok()) {
        result = fd.error();
        break;
      }
      ++opened;
    }
    // Closing one slot makes creation possible again.
    ASSERT_TRUE(sys.close(3).ok());
    EXPECT_TRUE(sys.socket(SockDomain::internet, SockType::dgram).ok());
  });
  world_.run();
  EXPECT_EQ(result, Err::emfile);
  // 64 slots minus 3 stdio.
  EXPECT_EQ(opened, world_.config().max_descriptors - 3);
}

TEST_F(LimitsTest, DatagramQueueOverflowDropsSilently) {
  const std::size_t qmax = kDgramQueueMax;
  std::size_t received = 0;
  (void)world_.spawn(machines_[0], "sink", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*fd, 6100);
    sys.sleep(util::msec(200));  // let the flood overflow the queue
    for (;;) {
      auto sel = sys.select({*fd}, false, util::msec(10));
      if (!sel.ok() || sel->timed_out) break;
      if (sys.recvfrom(*fd).ok()) ++received;
    }
  });
  (void)world_.spawn(machines_[1], "flood", 100, [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 6100);
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    util::Bytes m(16, 1);
    for (std::size_t i = 0; i < qmax * 3; ++i) {
      ASSERT_TRUE(sys.sendto(*fd, m, *addr).ok());  // sender never errors
    }
  });
  world_.run();
  EXPECT_EQ(received, qmax);  // the excess was dropped at the full queue
}

TEST_F(LimitsTest, OversizeDatagramIsEmsgsize) {
  Err result = Err::ok;
  (void)world_.spawn(machines_[0], "big", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    auto addr = sys.resolve("green", 6101);
    util::Bytes huge(64 * 1024, 0);
    result = sys.sendto(*fd, huge, *addr).error();
  });
  world_.run();
  EXPECT_EQ(result, Err::emsgsize);
}

TEST_F(LimitsTest, DatagramToUnboundPortVanishes) {
  bool sent_ok = false;
  (void)world_.spawn(machines_[0], "lost", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    auto addr = sys.resolve("green", 9999);  // nobody bound
    sent_ok = sys.sendto(*fd, util::to_bytes("void"), *addr).ok();
  });
  world_.run();
  EXPECT_TRUE(sent_ok);  // UDP semantics: the sender never learns
}

TEST_F(LimitsTest, UnixNamesAreMachineLocal) {
  // The same path binds independently on two machines; a connect resolves
  // only on the caller's machine.
  bool red_accepted = false;
  (void)world_.spawn(machines_[0], "red-srv", 100, [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::unix_path, SockType::stream);
    ASSERT_TRUE(sys.bind(*ls, net::SockAddr::unix_name("/tmp/s")).ok());
    ASSERT_TRUE(sys.listen(*ls, 1).ok());
    red_accepted = sys.accept(*ls).ok();
  });
  bool green_bound = false;
  (void)world_.spawn(machines_[1], "green-srv", 100, [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::unix_path, SockType::stream);
    green_bound = sys.bind(*ls, net::SockAddr::unix_name("/tmp/s")).ok();
    sys.sleep(util::msec(50));
  });
  (void)world_.spawn(machines_[0], "red-cli", 100, [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto fd = sys.socket(SockDomain::unix_path, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, net::SockAddr::unix_name("/tmp/s")).ok());
  });
  world_.run();
  EXPECT_TRUE(green_bound);   // no cross-machine name conflict
  EXPECT_TRUE(red_accepted);  // the local connect reached the local server
}

TEST_F(LimitsTest, DoubleBindIsEinval) {
  Err result = Err::ok;
  (void)world_.spawn(machines_[0], "binder", 100, [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    ASSERT_TRUE(sys.bind_port(*fd, 6102).ok());
    result = sys.bind_port(*fd, 6103).error();
  });
  world_.run();
  EXPECT_EQ(result, Err::einval);
}

TEST_F(LimitsTest, StopWhileBlockedInAcceptThenContinue) {
  bool accepted = false;
  Pid server_pid = 0;
  {
    auto r = world_.spawn(machines_[0], "server", 100, [&](Sys& sys) {
      auto ls = sys.socket(SockDomain::internet, SockType::stream);
      (void)sys.bind_port(*ls, 6104);
      (void)sys.listen(*ls, 1);
      accepted = sys.accept(*ls).ok();
    });
    ASSERT_TRUE(r.ok());
    server_pid = *r;
  }
  world_.run_for(util::msec(10));
  // Stop it while it blocks in accept; then a client connects; then
  // continue: the accept must complete.
  ASSERT_TRUE(world_.proc_stop(machines_[0], server_pid, 100).ok());
  world_.run_for(util::msec(10));
  (void)world_.spawn(machines_[1], "client", 100, [&](Sys& sys) {
    auto addr = sys.resolve("red", 6104);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    sys.sleep(util::msec(500));
  });
  world_.run_for(util::msec(100));
  EXPECT_FALSE(accepted);  // still stopped
  ASSERT_TRUE(world_.proc_continue(machines_[0], server_pid, 100).ok());
  world_.run();
  EXPECT_TRUE(accepted);
}

TEST_F(LimitsTest, PcTagFlowsIntoMeterRecords) {
  // Fig 4.1: the message body includes "the address of the instruction
  // that called the system routine"; apps tag call sites with set_pc.
  util::Bytes collected;
  (void)world_.spawn(machines_[1], "sink", 100, [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4500);
    (void)sys.listen(*ls, 2);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto data = sys.recv(*conn, 65536);
      if (!data.ok() || data->empty()) break;
      collected.insert(collected.end(), data->begin(), data->end());
    }
  });
  (void)world_.spawn(machines_[0], "app", 100, [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("green", 4500);
    auto ms = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*ms, *addr).ok());
    ASSERT_TRUE(sys.setmeter(meter::SETMETER_SELF,
                             static_cast<std::int32_t>(meter::M_SOCKET), *ms)
                    .ok());
    sys.set_pc(0xbeef);
    (void)sys.socket(SockDomain::internet, SockType::dgram);
    sys.set_pc(0xcafe);
    (void)sys.socket(SockDomain::internet, SockType::dgram);
  });
  world_.run();
  std::vector<std::uint32_t> pcs;
  std::size_t pos = 0;
  while (auto m = meter::MeterMsg::parse_stream(collected, pos)) {
    pcs.push_back(std::get<meter::MeterSockCrt>(m->body).pc);
  }
  ASSERT_EQ(pcs.size(), 2u);
  EXPECT_EQ(pcs[0], 0xbeefu);
  EXPECT_EQ(pcs[1], 0xcafeu);
}

}  // namespace
}  // namespace dpm::kernel
