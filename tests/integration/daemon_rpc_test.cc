// Controller-side protocol exercised directly against live meterdaemons
// (Fig 3.5: the controller steps over to another machine through its
// daemon).
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

/// Status of a request whose reply is a SimpleReply.
int simple_status(Sys& sys, const net::SockAddr& to, const DaemonMsg& req) {
  return std::get<SimpleReply>(*rpc_call(sys, to, req, RpcOptions{})).status;
}

class DaemonRpcTest : public ::testing::Test {
 protected:
  DaemonRpcTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red", "green"});
    world_.add_account_everywhere(100);
    control::install_monitor(world_);
    apps::install_everywhere(world_);
    control::spawn_meterdaemons(world_);
  }

  /// Runs `body` as a uid-100 process on red acting as a mini controller.
  void as_controller(std::function<void(Sys&)> body) {
    (void)world_.spawn(machines_[0], "mini-controller", 100,
                       [body = std::move(body)](Sys& sys) {
                         sys.sleep(util::msec(5));  // daemons boot
                         body(sys);
                       });
    world_.run();
  }

  kernel::World world_;
  std::vector<MachineId> machines_;
};

TEST_F(DaemonRpcTest, CreateStartsSuspendedThenRuns) {
  Pid created = 0;
  bool exited_note = false;
  as_controller([&](Sys& sys) {
    // Notification socket for state-change reports.
    auto ns = sys.socket(SockDomain::internet, SockType::stream);
    auto bound = sys.bind_port(*ns, 0);
    ASSERT_TRUE(bound.ok());
    ASSERT_TRUE(sys.listen(*ns, 8).ok());

    CreateRequest req;
    req.uid = 100;
    req.filename = "hello";
    req.params = {"hi-there"};
    req.control_port = bound->port;
    req.control_host = "red";
    auto daemon_addr = sys.resolve("green", kDaemonPort);
    ASSERT_TRUE(daemon_addr.has_value());
    auto reply = rpc_call(sys, *daemon_addr, req, RpcOptions{});
    ASSERT_TRUE(reply.ok());
    auto* cr = std::get_if<CreateReply>(&*reply);
    ASSERT_NE(cr, nullptr);
    ASSERT_EQ(cr->status, 0);
    created = cr->pid;

    // The process is in the "new" state: suspended before its first
    // instruction.
    kernel::Process* p = sys.world().find_process(2, created);
    ASSERT_NE(p, nullptr);
    sys.sleep(util::msec(50));
    EXPECT_NE(p->status, kernel::ProcStatus::dead);

    // Start it.
    ProcRequest start;
    start.what = MsgType::start_request;
    start.uid = 100;
    start.pid = created;
    auto sr = rpc_call(sys, *daemon_addr, start, RpcOptions{});
    ASSERT_TRUE(sr.ok());
    EXPECT_EQ(std::get<SimpleReply>(*sr).status, 0);

    // The daemon reports the termination by initiating a connection.
    auto conn = sys.accept(*ns);
    ASSERT_TRUE(conn.ok());
    auto note = recv_msg(sys, *conn);
    ASSERT_TRUE(note.ok());
    if (auto* io = std::get_if<IoNote>(&*note)) {
      // The hello program's output may arrive first.
      EXPECT_EQ(io->data, "hi-there\n");
      (void)sys.close(*conn);
      conn = sys.accept(*ns);
      ASSERT_TRUE(conn.ok());
      note = recv_msg(sys, *conn);
      ASSERT_TRUE(note.ok());
    }
    auto* sn = std::get_if<StateNote>(&*note);
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(sn->machine, "green");
    EXPECT_EQ(sn->pid, created);
    EXPECT_EQ(static_cast<kernel::ChildEvent>(sn->event),
              kernel::ChildEvent::exited);
    exited_note = true;
    (void)sys.close(*conn);
  });
  EXPECT_NE(created, 0);
  EXPECT_TRUE(exited_note);
}

TEST_F(DaemonRpcTest, CreateOfMissingFileFails) {
  as_controller([&](Sys& sys) {
    CreateRequest req;
    req.uid = 100;
    req.filename = "no-such-program";
    auto addr = sys.resolve("green", kDaemonPort);
    auto reply = rpc_call(sys, *addr, req, RpcOptions{});
    ASSERT_TRUE(reply.ok());
    auto* cr = std::get_if<CreateReply>(&*reply);
    ASSERT_NE(cr, nullptr);
    EXPECT_EQ(static_cast<Err>(cr->status), Err::enoent);
  });
}

TEST_F(DaemonRpcTest, FilterCreationReportsMeterPort) {
  as_controller([&](Sys& sys) {
    FilterRequest req;
    req.uid = 100;
    req.filterfile = "filter";
    req.logfile = "/usr/tmp/f1.log";
    req.descriptions = "descriptions";
    req.templates = "templates";
    auto addr = sys.resolve("green", kDaemonPort);
    auto reply = rpc_call(sys, *addr, req, RpcOptions{});
    ASSERT_TRUE(reply.ok());
    auto* fr = std::get_if<FilterReply>(&*reply);
    ASSERT_NE(fr, nullptr);
    ASSERT_EQ(fr->status, 0);
    EXPECT_GT(fr->meter_port, 0);

    // The filter is connectable on its meter port once it boots.
    sys.sleep(util::msec(50));
    auto fd = sys.socket(SockDomain::internet, SockType::stream);
    auto faddr = sys.resolve("green", fr->meter_port);
    EXPECT_TRUE(sys.connect(*fd, *faddr).ok());
  });
}

TEST_F(DaemonRpcTest, StopAndContinueThroughDaemon) {
  as_controller([&](Sys& sys) {
    CreateRequest req;
    req.uid = 100;
    req.filename = "pingpong_server";  // blocks in accept forever
    req.params = {"4900", "1"};
    auto addr = sys.resolve("red", kDaemonPort);
    auto reply = rpc_call(sys, *addr, req, RpcOptions{});
    auto* cr = std::get_if<CreateReply>(&*reply);
    ASSERT_NE(cr, nullptr);
    ASSERT_EQ(cr->status, 0);

    ProcRequest start{MsgType::start_request, 100, cr->pid};
    ASSERT_EQ(simple_status(sys, *addr, start), 0);
    ProcRequest stop{MsgType::stop_request, 100, cr->pid};
    ASSERT_EQ(simple_status(sys, *addr, stop), 0);
    ProcRequest cont{MsgType::start_request, 100, cr->pid};
    ASSERT_EQ(simple_status(sys, *addr, cont), 0);
    ProcRequest kill{MsgType::kill_request, 100, cr->pid};
    ASSERT_EQ(simple_status(sys, *addr, kill), 0);
  });
}

TEST_F(DaemonRpcTest, PermissionEnforcedPerRequestUid) {
  // uid 555 has no account anywhere: the daemon, impersonating it, is
  // denied by the kernel (§3.5.5: "a user is granted no special
  // privileges").
  as_controller([&](Sys& sys) {
    CreateRequest req;
    req.uid = 555;
    req.filename = "hello";
    auto addr = sys.resolve("green", kDaemonPort);
    auto reply = rpc_call(sys, *addr, req, RpcOptions{});
    ASSERT_TRUE(reply.ok());
    auto* cr = std::get_if<CreateReply>(&*reply);
    ASSERT_NE(cr, nullptr);
    EXPECT_EQ(static_cast<Err>(cr->status), Err::eacces);
  });
}

TEST_F(DaemonRpcTest, SignalingForeignProcessDenied) {
  Pid victim = 0;
  {
    auto r = world_.spawn(machines_[1], "victim", 0,  // owned by root
                          [](Sys& sys) { sys.sleep(util::sec(10)); });
    ASSERT_TRUE(r.ok());
    victim = *r;
  }
  as_controller([&](Sys& sys) {
    auto addr = sys.resolve("green", kDaemonPort);
    ProcRequest kill{MsgType::kill_request, 100, victim};
    auto reply = rpc_call(sys, *addr, kill, RpcOptions{});
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(static_cast<Err>(std::get<SimpleReply>(*reply).status),
              Err::eperm);
  });
}

TEST_F(DaemonRpcTest, StdinFileRedirection) {
  // §3.5.2: "In the case where standard input is coming from a file ...
  // The file is then opened by the meterdaemon, which redirects to it the
  // standard input of the process."
  world_.machine(machines_[1]).fs.put_text("input.txt", "from-a-file\n", 100);
  world_.programs().register_program(
      "stdin-echo", [](const std::vector<std::string>&) -> kernel::ProcessMain {
        return [](Sys& sys) {
          auto line = sys.read_line();
          if (line.ok() && line->has_value()) (void)sys.print("read: " + **line + "\n");
        };
      });
  world_.machine(machines_[1]).fs.put_executable("stdin-echo", "stdin-echo");

  std::string output;
  as_controller([&](Sys& sys) {
    auto ns = sys.socket(SockDomain::internet, SockType::stream);
    auto bound = sys.bind_port(*ns, 0);
    (void)sys.listen(*ns, 8);

    CreateRequest req;
    req.uid = 100;
    req.filename = "stdin-echo";
    req.stdin_file = "input.txt";
    req.control_port = bound->port;
    req.control_host = "red";
    auto addr = sys.resolve("green", kDaemonPort);
    auto reply = rpc_call(sys, *addr, req, RpcOptions{});
    auto* cr = std::get_if<CreateReply>(&*reply);
    ASSERT_NE(cr, nullptr);
    ASSERT_EQ(cr->status, 0);
    ProcRequest start{MsgType::start_request, 100, cr->pid};
    ASSERT_EQ(simple_status(sys, *addr, start), 0);

    // Collect io notes until the exit note arrives.
    for (;;) {
      auto conn = sys.accept(*ns);
      ASSERT_TRUE(conn.ok());
      auto note = recv_msg(sys, *conn);
      (void)sys.close(*conn);
      ASSERT_TRUE(note.ok());
      if (auto* io = std::get_if<IoNote>(&*note)) {
        output += io->data;
        continue;
      }
      break;  // state note
    }
  });
  EXPECT_EQ(output, "read: from-a-file\n");
}

TEST_F(DaemonRpcTest, IoSendReachesProcessStdin) {
  // §3.5.2's reverse path: user input travels controller -> daemon ->
  // gateway -> process standard input.
  world_.programs().register_program(
      "stdin-echo2", [](const std::vector<std::string>&) -> kernel::ProcessMain {
        return [](Sys& sys) {
          auto line = sys.read_line();
          if (line.ok() && line->has_value()) {
            (void)sys.print("heard: " + **line + "\n");
          }
        };
      });
  world_.machine(machines_[1]).fs.put_executable("stdin-echo2", "stdin-echo2");

  std::string output;
  as_controller([&](Sys& sys) {
    auto ns = sys.socket(SockDomain::internet, SockType::stream);
    auto bound = sys.bind_port(*ns, 0);
    (void)sys.listen(*ns, 8);

    CreateRequest req;
    req.uid = 100;
    req.filename = "stdin-echo2";
    req.control_port = bound->port;
    req.control_host = "red";
    auto addr = sys.resolve("green", kDaemonPort);
    auto reply = rpc_call(sys, *addr, req, RpcOptions{});
    auto* cr = std::get_if<CreateReply>(&*reply);
    ASSERT_NE(cr, nullptr);
    ASSERT_EQ(cr->status, 0);
    ProcRequest start{MsgType::start_request, 100, cr->pid};
    ASSERT_EQ(simple_status(sys, *addr, start), 0);

    IoSend input;
    input.uid = 100;
    input.pid = cr->pid;
    input.data = "type this\n";
    ASSERT_EQ(simple_status(sys, *addr, input), 0);

    for (;;) {
      auto conn = sys.accept(*ns);
      ASSERT_TRUE(conn.ok());
      auto note = recv_msg(sys, *conn);
      (void)sys.close(*conn);
      ASSERT_TRUE(note.ok());
      if (auto* io = std::get_if<IoNote>(&*note)) {
        output += io->data;
        continue;
      }
      break;
    }
  });
  EXPECT_EQ(output, "heard: type this\n");
}

}  // namespace
}  // namespace dpm::daemon
