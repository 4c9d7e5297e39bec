// Socket layer semantics (§3.1): streams are reliable ordered byte
// streams with read-what-is-available semantics; datagrams are whole
// messages; connections follow the client-server bind/listen/connect/
// accept dance; sockets outlive descriptors only while referenced.
#include "kernel/socket.h"

#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "testing.h"
#include "util/strings.h"

namespace dpm::kernel {
namespace {

using util::Err;

class SocketTest : public ::testing::Test {
 protected:
  SocketTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red", "green"});
    world_.add_account_everywhere(100);
  }

  Pid spawn(MachineId m, const std::string& name, ProcessMain main) {
    auto r = world_.spawn(m, name, 100, std::move(main));
    EXPECT_TRUE(r.ok());
    return r.value_or(-1);
  }

  World world_;
  std::vector<MachineId> machines_;
};

TEST_F(SocketTest, StreamConnectAcceptTransfer) {
  std::string received;
  net::SockAddr server_name;

  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(ls.ok());
    auto bound = sys.bind_port(*ls, 4000);
    ASSERT_TRUE(bound.ok());
    server_name = *bound;
    ASSERT_TRUE(sys.listen(*ls, 4).ok());
    auto conn = sys.accept(*ls);
    ASSERT_TRUE(conn.ok());
    auto data = sys.recv_exact(*conn, 11);
    ASSERT_TRUE(data.ok());
    received = util::to_string(*data);
    ASSERT_TRUE(sys.send(*conn, "pong").ok());
  });

  std::string reply;
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));  // let the server bind
    auto addr = sys.resolve("red", 4000);
    ASSERT_TRUE(addr.has_value());
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    ASSERT_TRUE(sys.send(*fd, "hello world").ok());
    auto data = sys.recv_exact(*fd, 4);
    ASSERT_TRUE(data.ok());
    reply = util::to_string(*data);
  });

  world_.run();
  EXPECT_EQ(received, "hello world");
  EXPECT_EQ(reply, "pong");
  EXPECT_EQ(server_name.port, 4000);
}

TEST_F(SocketTest, ConnectWithoutListenerRefused) {
  Err result = Err::ok;
  spawn(machines_[0], "client", [&](Sys& sys) {
    auto addr = sys.resolve("green", 4999);
    ASSERT_TRUE(addr.has_value());
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    result = sys.connect(*fd, *addr).error();
  });
  world_.run();
  EXPECT_EQ(result, Err::econnrefused);
}

TEST_F(SocketTest, SettledBoundedConnectCancelsItsDeadline) {
  // A bounded connect that succeeds early must not leave its deadline
  // wakeup behind: run() would otherwise idle out to the deadline.
  spawn(machines_[1], "server", [](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.bind_port(*ls, 4001).ok());
    ASSERT_TRUE(sys.listen(*ls, 4).ok());
    auto conn = sys.accept(*ls);
    ASSERT_TRUE(conn.ok());
  });
  bool connected = false;
  spawn(machines_[0], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));  // let the server bind
    auto addr = sys.resolve("green", 4001);
    ASSERT_TRUE(addr.has_value());
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    connected = sys.connect(*fd, *addr, util::sec(30)).ok();
  });
  world_.run();
  EXPECT_TRUE(connected);
  EXPECT_LT(util::count_us(world_.now()), 1'000'000);  // deadline: 30 s
}

TEST_F(SocketTest, StreamDeliversBytesInOrder) {
  // Many small sends arrive as one ordered stream (§3.1: "as many bytes
  // as possible are delivered for each read without regard for whether or
  // not the bytes originated from the same message").
  std::string collected;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4001);
    (void)sys.listen(*ls, 4);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto data = sys.recv(*conn, 4096);
      if (!data.ok() || data->empty()) break;
      collected += util::to_string(*data);
    }
  });
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 4001);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(sys.send(*fd, util::strprintf("%02d,", i)).ok());
    }
    ASSERT_TRUE(sys.close(*fd).ok());
  });
  world_.run();
  std::string expect;
  for (int i = 0; i < 50; ++i) expect += util::strprintf("%02d,", i);
  EXPECT_EQ(collected, expect);
}

TEST_F(SocketTest, DatagramWholeMessages) {
  std::vector<std::string> got;
  net::SockAddr source_seen;
  spawn(machines_[0], "sink", [&](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.bind_port(*fd, 5001);
    for (int i = 0; i < 3; ++i) {
      auto d = sys.recvfrom(*fd);
      ASSERT_TRUE(d.ok());
      got.push_back(util::to_string(d->data));
      source_seen = d->source;
    }
  });
  spawn(machines_[1], "sender", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 5001);
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(sys.sendto(*fd, util::to_bytes(util::strprintf("msg%d", i)),
                             *addr).ok());
    }
  });
  world_.run();
  ASSERT_EQ(got.size(), 3u);
  // Each read returns one whole message (no concatenation).
  EXPECT_EQ(got[0], "msg0");
  EXPECT_EQ(got[1], "msg1");
  EXPECT_EQ(got[2], "msg2");
  EXPECT_EQ(source_seen.family, net::Family::internet);
}

TEST_F(SocketTest, SocketpairBidirectional) {
  std::string a_got, b_got;
  spawn(machines_[0], "pair", [&](Sys& sys) {
    auto pair = sys.socketpair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(sys.send(pair->first, "to-b").ok());
    ASSERT_TRUE(sys.send(pair->second, "to-a").ok());
    a_got = util::to_string(*sys.recv_exact(pair->first, 4));
    b_got = util::to_string(*sys.recv_exact(pair->second, 4));
  });
  world_.run();
  EXPECT_EQ(a_got, "to-a");
  EXPECT_EQ(b_got, "to-b");
}

TEST_F(SocketTest, CloseGivesEofToPeer) {
  bool got_eof = false;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4002);
    (void)sys.listen(*ls, 1);
    auto conn = sys.accept(*ls);
    auto data = sys.recv(*conn, 100);  // "bye"
    ASSERT_TRUE(data.ok());
    auto eof = sys.recv(*conn, 100);  // peer closed
    got_eof = eof.ok() && eof->empty();
  });
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 4002);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    ASSERT_TRUE(sys.send(*fd, "bye").ok());
    ASSERT_TRUE(sys.close(*fd).ok());
  });
  world_.run();
  EXPECT_TRUE(got_eof);
}

TEST_F(SocketTest, EofArrivesAfterInFlightData) {
  // Close must never overtake data on the same connection.
  std::string got;
  bool clean_eof = false;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4003);
    (void)sys.listen(*ls, 1);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto data = sys.recv(*conn, 4096);
      if (!data.ok()) break;
      if (data->empty()) {
        clean_eof = true;
        break;
      }
      got += util::to_string(*data);
    }
  });
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 4003);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    ASSERT_TRUE(sys.send(*fd, std::string(10000, 'x')).ok());
    ASSERT_TRUE(sys.close(*fd).ok());  // immediately after a large send
  });
  world_.run();
  EXPECT_TRUE(clean_eof);
  EXPECT_EQ(got.size(), 10000u);
}

TEST_F(SocketTest, SendToClosedPeerIsEpipe) {
  Err result = Err::ok;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4004);
    (void)sys.listen(*ls, 1);
    auto conn = sys.accept(*ls);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(sys.close(*conn).ok());
  });
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 4004);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    sys.sleep(util::msec(50));  // let the close land
    auto r = sys.send(*fd, "anyone there?");
    result = r.error();
  });
  world_.run();
  EXPECT_EQ(result, Err::epipe);
}

TEST_F(SocketTest, BindConflictsAddrInUse) {
  Err second = Err::ok;
  spawn(machines_[0], "binder", [&](Sys& sys) {
    auto a = sys.socket(SockDomain::internet, SockType::dgram);
    ASSERT_TRUE(sys.bind_port(*a, 6000).ok());
    auto b = sys.socket(SockDomain::internet, SockType::dgram);
    second = sys.bind_port(*b, 6000).error();
  });
  world_.run();
  EXPECT_EQ(second, Err::eaddrinuse);
}

TEST_F(SocketTest, UnixDomainStreamOnSameMachine) {
  std::string got;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::unix_path, SockType::stream);
    ASSERT_TRUE(sys.bind(*ls, net::SockAddr::unix_name("/tmp/srv")).ok());
    ASSERT_TRUE(sys.listen(*ls, 1).ok());
    auto conn = sys.accept(*ls);
    got = util::to_string(*sys.recv_exact(*conn, 5));
  });
  spawn(machines_[0], "client", [&](Sys& sys) {
    sys.sleep(util::msec(2));
    auto fd = sys.socket(SockDomain::unix_path, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, net::SockAddr::unix_name("/tmp/srv")).ok());
    ASSERT_TRUE(sys.send(*fd, "local").ok());
  });
  world_.run();
  EXPECT_EQ(got, "local");
}

TEST_F(SocketTest, FlowControlBlocksSenderUntilReaderDrains) {
  // Window is 64 KiB; pushing 256 KiB must interleave with reads.
  std::size_t received = 0;
  bool send_finished = false;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4005);
    (void)sys.listen(*ls, 1);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto data = sys.recv(*conn, 8192);
      if (!data.ok() || data->empty()) break;
      received += data->size();
      sys.compute(util::usec(50));  // slow reader
    }
  });
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 4005);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    util::Bytes big(256 * 1024, 0x7f);
    ASSERT_TRUE(sys.send(*fd, big).ok());
    send_finished = true;
    ASSERT_TRUE(sys.close(*fd).ok());
  });
  world_.run();
  EXPECT_TRUE(send_finished);
  EXPECT_EQ(received, 256u * 1024u);
}

TEST_F(SocketTest, ListenBacklogLimitsPendingConnections) {
  int refused = 0, accepted_ok = 0;
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4006);
    (void)sys.listen(*ls, 1);    // queue of one
    sys.sleep(util::msec(100));  // let clients pile up
    for (;;) {
      auto sel = sys.select({*ls}, false, util::msec(1));
      if (!sel.ok() || sel->timed_out) break;
      if (sys.accept(*ls).ok()) ++accepted_ok;
    }
  });
  for (int i = 0; i < 3; ++i) {
    spawn(machines_[1], "client", [&](Sys& sys) {
      sys.sleep(util::msec(5));
      auto addr = sys.resolve("red", 4006);
      auto fd = sys.socket(SockDomain::internet, SockType::stream);
      auto r = sys.connect(*fd, *addr);
      if (!r.ok() && r.error() == Err::econnrefused) ++refused;
    });
  }
  world_.run();
  EXPECT_EQ(accepted_ok, 1);
  EXPECT_EQ(refused, 2);
}

TEST_F(SocketTest, DescriptorErrors) {
  spawn(machines_[0], "errs", [&](Sys& sys) {
    EXPECT_EQ(sys.send(42, "x").error(), Err::ebadf);
    EXPECT_EQ(sys.close(42).error(), Err::ebadf);
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    EXPECT_EQ(sys.listen(*fd, 1).error(), Err::eopnotsupp);
    EXPECT_EQ(sys.send(*fd, "x").error(), Err::enotconn);  // no default dest
    auto sfd = sys.socket(SockDomain::internet, SockType::stream);
    EXPECT_EQ(sys.recv(*sfd, 10).error(), Err::enotconn);
    EXPECT_EQ(sys.recvfrom(*sfd).error(), Err::eopnotsupp);
  });
  world_.run();
}

TEST_F(SocketTest, DupSharesSocket) {
  std::string got;
  spawn(machines_[0], "duper", [&](Sys& sys) {
    auto pair = sys.socketpair();
    ASSERT_TRUE(pair.ok());
    auto dup_fd = sys.dup(pair->first);
    ASSERT_TRUE(dup_fd.ok());
    ASSERT_TRUE(sys.close(pair->first).ok());  // original gone, dup lives
    ASSERT_TRUE(sys.send(*dup_fd, "via-dup").ok());
    got = util::to_string(*sys.recv_exact(pair->second, 7));
  });
  world_.run();
  EXPECT_EQ(got, "via-dup");
}

TEST_F(SocketTest, GetsocknameAndPeername) {
  spawn(machines_[0], "server", [&](Sys& sys) {
    auto ls = sys.socket(SockDomain::internet, SockType::stream);
    (void)sys.bind_port(*ls, 4007);
    (void)sys.listen(*ls, 1);
    (void)sys.accept(*ls);
  });
  spawn(machines_[1], "client", [&](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("red", 4007);
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    EXPECT_EQ(sys.getpeername(*fd).error(), Err::enotconn);
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    auto self = sys.getsockname(*fd);
    auto peer = sys.getpeername(*fd);
    ASSERT_TRUE(self.ok());
    ASSERT_TRUE(peer.ok());
    EXPECT_EQ(peer->port, 4007);
    EXPECT_NE(self->port, 0);
  });
  world_.run();
}

}  // namespace
}  // namespace dpm::kernel
