// Sys — the system-call interface handed to every simulated process.
//
// This is the programmer's view the monitor must stay consistent with
// (§2.1): socket(), bind(), listen(), connect(), accept(), the write()
// family (write/writev/send/sendmsg are "all variations of write()", so a
// single send entry point), the read() family, sendto/recvfrom for
// datagrams, socketpair(), dup(), close(), fork(), select(), plus
// setmeter() (Appendix C) and a few process/file calls the monitor's own
// components need.
//
// Blocking calls park the calling task; a killed process unwinds via
// sim::TaskAborted from inside any blocking call.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kernel/process.h"
#include "kernel/socket.h"
#include "kernel/types.h"
#include "kernel/world.h"
#include "net/address.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/time.h"

namespace dpm::kernel {

/// Thrown by Sys::exit; caught by the process wrapper.
struct ProcessExit {
  int status;
};

/// Datagrams queued per socket; one arriving at a full queue is dropped.
inline constexpr std::size_t kDgramQueueMax = 64;

struct SelectResult {
  std::vector<Fd> readable;
  std::vector<Fd> writable;
  bool child_event = false;
  bool timed_out = false;
};

class Sys {
 public:
  Sys(World& world, std::shared_ptr<Process> proc)
      : world_(world), proc_(std::move(proc)) {}

  // ---- identity & environment ----
  Pid getpid() const { return proc_->pid; }
  Uid getuid() const { return proc_->euid; }
  MachineId machine_id() const { return proc_->machine; }
  const std::string& hostname() const;
  const std::vector<std::string>& args() const { return args_; }
  void set_args(std::vector<std::string> a) { args_ = std::move(a); }

  /// Local (skewed, quantized) clock reading in microseconds — gettimeofday.
  std::int64_t clock_us() const;
  /// CPU time charged to this process, at the accounting grain (§4.1).
  std::int64_t proctime_us() const;

  /// Tags subsequent meter events with a call-site id ("pc").
  void set_pc(std::uint32_t pc) { proc_->pc = pc; }

  // ---- computation ----
  /// Consumes CPU for `d` (contends with other local processes).
  void compute(util::Duration d);
  /// Blocks without consuming CPU.
  void sleep(util::Duration d);
  /// Yields to other runnable activity at the current instant.
  void yield();

  // ---- sockets ----
  util::SysResult<Fd> socket(SockDomain domain, SockType type);
  util::SysResult<void> bind(Fd fd, const net::SockAddr& name);
  /// Binds an internet socket to a specific or ephemeral (port 0) port on
  /// the machine's primary interface; returns the bound name.
  util::SysResult<net::SockAddr> bind_port(Fd fd, net::Port port);
  util::SysResult<void> listen(Fd fd, int backlog);
  util::SysResult<Fd> accept(Fd fd);
  util::SysResult<void> connect(Fd fd, const net::SockAddr& name);
  /// connect with a bounded wait: a target that never answers (crashed
  /// machine, partitioned link) yields etimedout after `deadline`. The
  /// socket is returned to idle; close the fd and retry on a fresh one.
  util::SysResult<void> connect(Fd fd, const net::SockAddr& name,
                                util::Duration deadline);
  /// Non-blocking connect (stream sockets): sends the SYN and returns at
  /// once. The socket shows up writable in select() when the attempt
  /// completes (success or failure); connect_finish() reaps the result.
  /// The BSD idiom for many concurrent connects from one process — the
  /// pipelined RPC layer is built on it.
  util::SysResult<void> connect_begin(Fd fd, const net::SockAddr& name);
  /// Reaps a connect_begin: ewouldblock while still in flight, otherwise
  /// the connect result (the socket is connected on ok).
  util::SysResult<void> connect_finish(Fd fd);
  /// Stream write: blocks until all bytes are queued. Returns byte count.
  util::SysResult<std::size_t> send(Fd fd, const util::Bytes& data);
  util::SysResult<std::size_t> send(Fd fd, std::string_view data);
  /// Datagram send to an explicit destination.
  util::SysResult<std::size_t> sendto(Fd fd, const util::Bytes& data,
                                      const net::SockAddr& dest);
  /// Stream read: up to `max` bytes; empty result means EOF.
  util::SysResult<util::Bytes> recv(Fd fd, std::size_t max);
  /// Reads exactly `n` bytes or fails with econnreset on early EOF.
  util::SysResult<util::Bytes> recv_exact(Fd fd, std::size_t n);
  /// Datagram receive: one whole message (§3.1).
  util::SysResult<Datagram> recvfrom(Fd fd);

  // §3.1: write(), writev(), send() and sendmsg() "may all be thought of
  // as variations of write()", and the five read routines of read(); the
  // variants share one implementation and thus one meter event ("it is
  // not important to distinguish between the varieties", §3.2).
  util::SysResult<std::size_t> sendmsg(Fd fd, const util::Bytes& data) {
    return send(fd, data);
  }
  util::SysResult<std::size_t> writev(Fd fd,
                                      const std::vector<util::Bytes>& iov);
  util::SysResult<util::Bytes> readv(Fd fd, std::size_t max) {
    return recv(fd, max);
  }
  util::SysResult<util::Bytes> recvmsg(Fd fd, std::size_t max) {
    return recv(fd, max);
  }
  util::SysResult<std::pair<Fd, Fd>> socketpair();
  util::SysResult<Fd> dup(Fd fd);
  util::SysResult<void> close(Fd fd);
  util::SysResult<net::SockAddr> getsockname(Fd fd);
  util::SysResult<net::SockAddr> getpeername(Fd fd);

  /// select(): blocks until an fd in `read_fds` is readable, a child
  /// state-change is queued (if `child_events`), or the timeout expires.
  util::SysResult<SelectResult> select(const std::vector<Fd>& read_fds,
                                       bool child_events,
                                       std::optional<util::Duration> timeout);
  /// select() with a write set: a stream socket is writable when a pending
  /// connect has completed (connect_begin), when it is connected, or when
  /// a send would fail fast (closed/reset) — the 4.2BSD contract the
  /// pipelined RPC client relies on. Listening sockets are never writable.
  util::SysResult<SelectResult> select(const std::vector<Fd>& read_fds,
                                       const std::vector<Fd>& write_fds,
                                       bool child_events,
                                       std::optional<util::Duration> timeout);

  // ---- processes ----
  /// fork(): the child runs `child_main` with an inherited descriptor
  /// table, uid, and meter state (§3.2). Returns the child pid.
  util::SysResult<Pid> fork(ProcessMain child_main);

  /// fork+exec: creates a child from an executable file on this machine.
  /// stdio descriptors name slots in the *caller's* table (-1 = null
  /// device); the child inherits copies, plus the caller's meter state —
  /// as the paper notes for the rexec server, a process created by a
  /// monitored server is itself monitored (§3.2).
  struct SpawnArgs {
    std::string path;
    std::vector<std::string> args;
    bool suspended = false;
    Fd stdin_fd = -1;
    Fd stdout_fd = -1;
    Fd stderr_fd = -1;
  };
  util::SysResult<Pid> spawn(const SpawnArgs& sa);

  /// seteuid(): root only (eperm otherwise); the meterdaemon uses it to
  /// carry out each request with the requesting user's privileges.
  util::SysResult<void> seteuid(Uid uid);
  [[noreturn]] void exit(int status);
  /// Oldest queued child state change; blocks if `block` and none queued.
  util::SysResult<ChildChange> waitchange(bool block);
  /// Stop / continue / kill another local process (signal stand-ins).
  util::SysResult<void> kill_stop(Pid pid);
  util::SysResult<void> kill_continue(Pid pid);
  util::SysResult<void> kill_kill(Pid pid);

  // ---- the paper's system call (Appendix C) ----
  /// proc: pid or SETMETER_SELF. flags: mask, SETMETER_NO_CHANGE or
  /// SETMETER_NONE. sock: descriptor of a connected internet stream
  /// socket, SETMETER_NO_CHANGE, or SETMETER_NONE (closes the meter
  /// socket). Errors: eperm (foreign process), esrch (no such process),
  /// einval (socket not an internet stream socket).
  util::SysResult<void> setmeter(std::int32_t proc, std::int32_t flags,
                                 std::int32_t sock);

  // ---- fan-in tier (monitor-internal; not part of the 4.2BSD surface) ----
  /// Marks a connected internet stream socket (and its peer) as a tier-1
  /// meter edge: a local-filter→aggregator or aggregator→session-filter
  /// hop of the fan-in tree. Records moving over it are accounted in the
  /// tier-1 conservation ledger (World::fanin_conservation), never the
  /// process-edge one. Called by the downstream node after connecting to
  /// its parent.
  util::SysResult<void> metertap(Fd fd);
  /// Ships a frame-aligned batch of `records` accepted meter records up a
  /// metertap'd edge. Charged like a send; bypasses the stream window (the
  /// fan-in backpressure policy is the receiver-side accounted drop, see
  /// kFaninQueueBytes in socket.cc). Returns epipe when the edge is dead
  /// — the records are then already booked fanin.lost_records, so the
  /// caller may reconnect but must not re-send the batch. `samples` are
  /// the batch's provenance samples: they ride the batch to delivery, and
  /// die with it on any error return.
  util::SysResult<void> meter_forward(
      Fd fd, const util::Bytes& batch, std::uint32_t records,
      std::vector<obs::ProvenanceTracker::ForwardSample> samples = {});

  // ---- files ----
  enum class OpenMode { read, write_trunc, append };
  util::SysResult<Fd> open(const std::string& path, OpenMode mode);
  util::SysResult<util::Bytes> read(Fd fd, std::size_t max);
  util::SysResult<std::size_t> write(Fd fd, const util::Bytes& data);
  util::SysResult<std::size_t> write(Fd fd, std::string_view data);
  util::SysResult<void> unlink(const std::string& path);
  /// Simulated `rcp host1:path1 host2:path2` (§3.5.3). Either host may be
  /// the local one. Charged transfer latency proportional to size.
  util::SysResult<void> rcp(const std::string& src_host, const std::string& src,
                            const std::string& dst_host, const std::string& dst);

  // ---- stdio convenience ----
  util::SysResult<std::size_t> print(std::string_view s);  // fd 1
  /// Reads one '\n'-terminated line from fd 0 (blocking); nullopt on EOF.
  util::SysResult<std::optional<std::string>> read_line();

  // ---- escape hatches for the harness/tools (not part of the 4.2BSD
  //      surface; used by programs that must resolve host names) ----
  World& world() { return world_; }
  Process& process() { return *proc_; }
  /// Kernel socket id behind a descriptor (0 when the fd is not a socket).
  /// Filter programs use it as the provenance edge key — the conservation
  /// identity's edge is the consuming socket, and only the kernel knows it.
  SocketId socket_id(Fd fd);
  /// Resolves `host:port` from this machine's point of view (§3.5.4).
  std::optional<net::SockAddr> resolve(const std::string& host, net::Port port);

 private:
  friend class World;

  // Syscall prologue: stop-gate checkpoint + base CPU charge + accounting.
  void enter(util::Duration extra_cost = util::Duration{0});
  void charge(util::Duration d);
  void stop_checkpoint();
  /// Parks until `cond` is true; registers on `chan` each iteration.
  void wait_on(WaitChannel& chan, const std::function<bool()>& cond);

  util::SysResult<Socket*> sock_of(Fd fd);
  util::SysResult<void> auto_bind(Socket& s);
  Machine& mach() const { return world_.machine(proc_->machine); }

  util::SysResult<void> connect_impl(Fd fd, const net::SockAddr& name,
                                     std::optional<util::Duration> deadline);
  /// Shared connect launch: binds, resolves the target, flips the socket
  /// to `connecting` and ships the SYN. Blocking connect waits afterwards;
  /// connect_begin returns to the caller.
  util::SysResult<void> connect_launch(Socket& s, const net::SockAddr& name);
  util::SysResult<std::size_t> send_impl(Fd fd, const util::Bytes& data,
                                         const net::SockAddr* dest);
  util::SysResult<std::size_t> stream_send(Socket& s, const util::Bytes& data);
  util::SysResult<std::size_t> dgram_send(Socket& s, const util::Bytes& data,
                                          const net::SockAddr& dest);
  /// recvfrom body without the syscall prologue (read() on dgram sockets).
  util::SysResult<Datagram> recvfrom_unlogged(Fd fd);
  /// write() body for both overloads; `owned` is the caller's Bytes when
  /// it has them, so a socket send copies nothing more.
  util::SysResult<std::size_t> write_bytes(Fd fd, const std::uint8_t* data,
                                           std::size_t n,
                                           const util::Bytes* owned);

  World& world_;
  std::shared_ptr<Process> proc_;
  std::vector<std::string> args_;
  std::string stdin_buf_;  // read_line() carry-over
};

}  // namespace dpm::kernel
