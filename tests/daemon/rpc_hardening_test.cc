// RPC hardening: bounded receive against stalled or truncating peers,
// deadline/retry accounting on unreachable daemons, the at-most-once
// replay cache (a retried create must not spawn a second process), and
// the pipeline every controller RPC runs through: its in-flight window,
// nonce matching, and per-call failure isolation.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "control/session.h"
#include "daemon/protocol.h"
#include "daemon/rpc_pipeline.h"
#include "kernel/syscalls.h"
#include "testing.h"

namespace dpm::daemon {
namespace {

using kernel::Fd;
using kernel::MachineId;
using kernel::Pid;
using kernel::SockDomain;
using kernel::SockType;
using kernel::Sys;
using util::Err;

class RpcHardeningTest : public ::testing::Test {
 protected:
  RpcHardeningTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red", "green"});
    world_.add_account_everywhere(100);
    control::install_monitor(world_);
    apps::install_everywhere(world_);
  }

  void with_daemons() { control::spawn_meterdaemons(world_); }

  /// Runs `body` as a uid-100 process on red.
  void as_controller(std::function<void(Sys&)> body) {
    (void)world_.spawn(machines_[0], "mini-controller", 100,
                       [body = std::move(body)](Sys& sys) {
                         sys.sleep(util::msec(5));
                         body(sys);
                       });
    world_.run();
  }

  kernel::World world_;
  std::vector<MachineId> machines_;
};

/// A fake daemon: accepts `conns` connections one after another and hands
/// each to `serve`.
static void spawn_fake_daemon(kernel::World& world, MachineId m,
                              net::Port port,
                              std::function<void(Sys&, Fd)> serve,
                              int conns = 1) {
  (void)world.spawn(m, "fake-daemon", kernel::kSuperUser,
                    [port, conns, serve = std::move(serve)](Sys& sys) {
                      auto ls = sys.socket(SockDomain::internet,
                                           SockType::stream);
                      ASSERT_TRUE(ls.ok());
                      ASSERT_TRUE(sys.bind_port(*ls, port).ok());
                      ASSERT_TRUE(sys.listen(*ls, 64).ok());
                      for (int k = 0; k < conns; ++k) {
                        auto conn = sys.accept(*ls);
                        ASSERT_TRUE(conn.ok());
                        serve(sys, *conn);
                      }
                    });
}

/// A status ping (no nonce, SimpleReply expected).
static PipelinedCall ping_call(const net::SockAddr& to) {
  PipelinedCall c;
  c.to = to;
  ProcRequest ping;
  ping.what = MsgType::status_request;
  c.request = ping;
  return c;
}

TEST_F(RpcHardeningTest, StalledReplyTimesOutInsteadOfWedging) {
  // The fake daemon sends a frame header promising 64 bytes, then stalls.
  spawn_fake_daemon(world_, machines_[1], 6100, [](Sys& sys, Fd conn) {
    (void)sys.send(conn, util::Bytes{64, 0, 0, 0});
    sys.sleep(util::sec(10));  // never sends the rest
    (void)sys.close(conn);
  });

  Err got = Err::ok;
  std::int64_t waited_us = 0;
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", 6100);
    ASSERT_TRUE(addr.has_value());
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    const auto t0 = sys.world().now();
    auto reply = recv_msg(sys, *fd, util::msec(100));
    waited_us = util::count_us(sys.world().now() - t0);
    ASSERT_FALSE(reply.ok());
    got = reply.error();
    (void)sys.close(*fd);
  });
  EXPECT_EQ(got, Err::etimedout);
  EXPECT_GE(waited_us, 100'000);
  EXPECT_LT(waited_us, 200'000);  // bounded: not the fake daemon's 10s nap
}

TEST_F(RpcHardeningTest, ReplyTruncatedMidMessageIsConnReset) {
  // Header promises 64 bytes but the daemon closes after 8.
  spawn_fake_daemon(world_, machines_[1], 6101, [](Sys& sys, Fd conn) {
    (void)sys.send(conn, util::Bytes{64, 0, 0, 0, 21, 0, 0, 0});
    (void)sys.close(conn);
  });

  Err got = Err::ok;
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", 6101);
    ASSERT_TRUE(addr.has_value());
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    auto reply = recv_msg(sys, *fd, util::msec(100));
    ASSERT_FALSE(reply.ok());
    got = reply.error();
    (void)sys.close(*fd);
  });
  EXPECT_EQ(got, Err::econnreset);
}

TEST_F(RpcHardeningTest, HardenedRpcRetriesThenReportsFailure) {
  // No daemon anywhere: every attempt is refused, the call backs off and
  // retries its full budget, and the failure counters account for it.
  Err got = Err::ok;
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", kDaemonPort);
    ASSERT_TRUE(addr.has_value());
    ProcRequest ping;
    ping.what = MsgType::status_request;
    RpcOptions opts;
    opts.max_attempts = 3;
    opts.deadline = util::msec(50);
    auto reply = rpc_call(sys, *addr, ping, opts);
    ASSERT_FALSE(reply.ok());
    got = reply.error();
  });
  EXPECT_EQ(got, Err::econnrefused);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_retries").value(), 2u);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_failures").value(), 1u);
}

TEST_F(RpcHardeningTest, CreateNonceReplayDoesNotDoubleSpawn) {
  with_daemons();
  Pid first = 0, second = 0;
  as_controller([&](Sys& sys) {
    auto ns = sys.socket(SockDomain::internet, SockType::stream);
    auto bound = sys.bind_port(*ns, 0);
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE(sys.listen(*ns, 8).ok());

    CreateRequest req;
    req.uid = 100;
    req.filename = "hello";
    req.params = {"hi"};
    req.control_port = bound->port;
    req.control_host = "red";
    req.nonce = 0xbeef0001;
    auto addr = sys.resolve("green", kDaemonPort);
    ASSERT_TRUE(addr.has_value());

    auto r1 = rpc_call(sys, *addr, req, RpcOptions{});
    ASSERT_TRUE(r1.ok());
    auto* c1 = std::get_if<CreateReply>(&*r1);
    ASSERT_NE(c1, nullptr);
    ASSERT_EQ(c1->status, 0);
    first = c1->pid;

    // The "lost reply" retry: identical request, identical nonce. The
    // daemon must answer from its replay cache, not spawn again.
    auto r2 = rpc_call(sys, *addr, req, RpcOptions{});
    ASSERT_TRUE(r2.ok());
    auto* c2 = std::get_if<CreateReply>(&*r2);
    ASSERT_NE(c2, nullptr);
    second = c2->pid;
  });
  EXPECT_NE(first, 0);
  EXPECT_EQ(first, second);

  // Exactly one 'hello' process exists on green.
  int hellos = 0;
  for (auto& [pid, p] : world_.machine(machines_[1]).procs) {
    if (p->name == "hello") ++hellos;
  }
  EXPECT_EQ(hellos, 1);
}

TEST_F(RpcHardeningTest, StatusProbeDistinguishesLiveAndDeadPids) {
  with_daemons();
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", kDaemonPort);
    ASSERT_TRUE(addr.has_value());

    // pid=0: pure liveness ping.
    ProcRequest ping;
    ping.what = MsgType::status_request;
    auto r = rpc_call(sys, *addr, ping, RpcOptions{});
    ASSERT_TRUE(r.ok());
    auto* ok = std::get_if<SimpleReply>(&*r);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->status, 0);

    // A pid the daemon never created: gone.
    ProcRequest probe;
    probe.what = MsgType::status_request;
    probe.pid = 4242;
    auto r2 = rpc_call(sys, *addr, probe, RpcOptions{});
    ASSERT_TRUE(r2.ok());
    auto* gone = std::get_if<SimpleReply>(&*r2);
    ASSERT_NE(gone, nullptr);
    EXPECT_EQ(gone->status, static_cast<std::int32_t>(Err::esrch));
  });
}

TEST_F(RpcHardeningTest, PipelineNeverExceedsItsWindow) {
  // More calls than the window: the first kRpcWindow go in flight at
  // once, the rest wait for a slot, and every one completes.
  constexpr int kCalls = kRpcWindow + 8;
  spawn_fake_daemon(
      world_, machines_[1], 6102,
      [](Sys& sys, Fd conn) {
        auto req = recv_msg(sys, conn, util::msec(100));
        ASSERT_TRUE(req.ok());
        (void)send_msg(sys, conn, SimpleReply{0});
        (void)sys.close(conn);
      },
      kCalls);

  std::size_t ok = 0;
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", 6102);
    ASSERT_TRUE(addr.has_value());
    std::vector<PipelinedCall> calls(kCalls, ping_call(*addr));
    ok = run_pipeline(sys, calls);
  });
  EXPECT_EQ(ok, static_cast<std::size_t>(kCalls));
  EXPECT_EQ(world_.obs().gauge("shard.inflight").high_water(), kRpcWindow);
  EXPECT_EQ(world_.obs().gauge("shard.inflight").value(), 0);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_calls").value(),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(world_.obs().histogram("daemon.rpc_status_us").count(),
            static_cast<std::uint64_t>(kCalls));
}

TEST_F(RpcHardeningTest, WrongNonceReplyIsRetriedOnAFreshConnection) {
  // The first connection answers with another exchange's nonce; the retry
  // gets the right one.
  int served = 0;
  spawn_fake_daemon(
      world_, machines_[1], 6103,
      [&served](Sys& sys, Fd conn) {
        auto req = recv_msg(sys, conn, util::msec(100));
        ASSERT_TRUE(req.ok());
        const auto* b = std::get_if<BatchProcRequest>(&*req);
        ASSERT_NE(b, nullptr);
        BatchProcReply reply;
        reply.nonce = served++ == 0 ? b->nonce + 1 : b->nonce;
        reply.statuses.assign(b->pids.size(), 0);
        (void)send_msg(sys, conn, reply);
        (void)sys.close(conn);
      },
      2);

  util::SysResult<DaemonMsg> got = Err::einval;
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", 6103);
    ASSERT_TRUE(addr.has_value());
    BatchProcRequest req;
    req.what = MsgType::start_request;
    req.nonce = 0x5eed;
    req.pids = {7, 8};
    got = rpc_call(sys, *addr, req, RpcOptions{});
  });
  ASSERT_TRUE(got.ok());
  const auto* reply = std::get_if<BatchProcReply>(&*got);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->nonce, 0x5eedu);
  EXPECT_EQ(served, 2);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_nonce_mismatch").value(), 1u);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_retries").value(), 1u);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_failures").value(), 0u);
}

TEST_F(RpcHardeningTest, StalledDestinationFailsAloneInItsRound) {
  // Real daemons on red and green answer; a server on green accepts every
  // attempt and never replies. Only the stalled call fails, on its own
  // deadline, and the round still returns the other replies.
  with_daemons();
  spawn_fake_daemon(
      world_, machines_[1], 6104,
      [](Sys& sys, Fd) { sys.sleep(util::sec(10)); }, 2);

  std::vector<PipelinedCall> calls;
  std::size_t ok = 0;
  as_controller([&](Sys& sys) {
    auto red = sys.resolve("red", kDaemonPort);
    auto green = sys.resolve("green", kDaemonPort);
    auto stall = sys.resolve("green", 6104);
    ASSERT_TRUE(red && green && stall);
    calls = {ping_call(*red), ping_call(*stall), ping_call(*green)};
    calls[1].opts.deadline = util::msec(50);
    calls[1].opts.max_attempts = 2;
    ok = run_pipeline(sys, calls);
  });
  EXPECT_EQ(ok, 2u);
  ASSERT_TRUE(calls[0].reply.ok());
  EXPECT_EQ(std::get<SimpleReply>(*calls[0].reply).status, 0);
  ASSERT_FALSE(calls[1].reply.ok());
  EXPECT_EQ(calls[1].reply.error(), Err::etimedout);
  ASSERT_TRUE(calls[2].reply.ok());
  EXPECT_EQ(std::get<SimpleReply>(*calls[2].reply).status, 0);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_timeouts").value(), 2u);
  EXPECT_EQ(world_.obs().counter("daemon.rpc_failures").value(), 1u);
}

}  // namespace
}  // namespace dpm::daemon
