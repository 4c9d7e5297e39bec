// The controller ↔ meterdaemon communication protocol (§3.5.1, Fig 3.6).
//
// "This format includes a message type and a message body. ... The
// exchange is structured as a remote procedure call. ... the controller
// sends a request message to the meterdaemon over this connection, and
// then waits for the meterdaemon's reply. ... the meterdaemon carries out
// the requested function, sends a reply message back to the controller
// over the connection, closes the connection, and then waits for a new
// connection request."
//
// The one protocol exception is reproduced too: state-change reports are
// connections *initiated by the daemon* to the controller's notification
// socket. The wire format is: u32 total size, u32 type, body. Types 11
// (create request) and 18 (create reply) match Fig 3.6.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "kernel/syscalls.h"
#include "net/address.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dpm::daemon {

/// Well-known port every meterdaemon listens on.
inline constexpr net::Port kDaemonPort = 577;

enum class MsgType : std::uint32_t {
  create_request = 11,   // Fig 3.6
  create_reply = 18,     // Fig 3.6
  filter_request = 12,
  filter_reply = 19,
  setflags_request = 13,
  start_request = 14,
  stop_request = 15,
  kill_request = 16,
  acquire_request = 17,
  release_request = 20,
  simple_reply = 21,     // status-only reply (setflags/start/stop/kill/...)
  status_request = 22,   // liveness probe: pid=0 pings the daemon itself
  state_note = 30,       // daemon → controller: child state change
  io_note = 31,          // daemon → controller: process stdout data
  io_send = 32,          // controller → daemon: data for process stdin
  // Batched forms: one RPC carries a machine's share of a job's creates or
  // process ops, so a job op costs one RPC per machine, not per process.
  batch_create_request = 33,
  batch_create_reply = 34,
  batch_proc_request = 35,
  batch_proc_reply = 36,
};

// Every message states its wire layout once: fields(b, f) calls f with the
// message's fields in wire order, and protocol.cc's one writer and one
// reader visit that list. Integers and enums go at their own width,
// little-endian; a std::string is a u32 length and its bytes; a capped
// list is a u32 count and its elements. kType is the message's type word.
// Adding a field means adding it to the struct and to its list.

/// Count caps the reader enforces before reading a list's elements.
inline constexpr std::uint32_t kMaxParams = 1024;     // per create
inline constexpr std::uint32_t kMaxBatchItems = 4096;  // creates per batch
inline constexpr std::uint32_t kMaxPids = 65536;       // pids or statuses

/// A counted list field: u32 count, then each element. The reader rejects
/// a count above `Cap`. `V` is the vector, const for writing.
template <std::uint32_t Cap, typename V>
struct Capped {
  static constexpr std::uint32_t kCap = Cap;
  V& items;
};
template <std::uint32_t Cap, typename V>
Capped<Cap, V> capped(V& items) {
  return {items};
}

/// start / stop / kill / release / status: the process ops a ProcRequest
/// or BatchProcRequest carries.
constexpr bool is_proc_op(MsgType t) {
  return t == MsgType::start_request || t == MsgType::stop_request ||
         t == MsgType::kill_request || t == MsgType::release_request ||
         t == MsgType::status_request;
}

/// Fig 3.6 "create request": filename, parameters, the filter's socket
/// name as (host, port) per §3.5.4, meter flags, and the controller's
/// notification socket name. `uid` identifies the requesting account
/// (§3.5.5); `stdin_file` is the optional input file the daemon opens and
/// redirects (§3.5.2).
struct CreateRequest {
  static constexpr MsgType kType = MsgType::create_request;
  std::int32_t uid = 0;
  std::string filename;
  std::vector<std::string> params;
  std::uint16_t filter_port = 0;
  std::string filter_host;
  std::uint32_t meter_flags = 0;
  std::uint16_t control_port = 0;
  std::string control_host;
  std::string stdin_file;  // empty: gateway stdio
  /// Request identity for at-most-once semantics: a retried create carrying
  /// the same nonce returns the daemon's cached reply instead of spawning a
  /// second process. 0 disables the replay cache.
  std::uint64_t nonce = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, b.filename, capped<kMaxParams>(b.params), b.filter_port,
      b.filter_host, b.meter_flags, b.control_port, b.control_host,
      b.stdin_file, b.nonce);
  }
};

struct CreateReply {
  static constexpr MsgType kType = MsgType::create_reply;
  std::int32_t pid = 0;
  std::int32_t status = 0;  // 0 ok, else util::Err value

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.pid, b.status);
  }
};

/// Create a filter process from `filterfile` with its support files; the
/// reply reports the meter port the filter bound.
struct FilterRequest {
  static constexpr MsgType kType = MsgType::filter_request;
  std::int32_t uid = 0;
  std::string filterfile;
  std::string logfile;
  std::string descriptions;
  std::string templates;
  std::uint16_t control_port = 0;
  std::string control_host;
  /// At-most-once identity, as for CreateRequest.
  std::uint64_t nonce = 0;
  /// Fan-in tier placement: 0 = session (root) filter, 1 = per-machine
  /// local filter, 2 = aggregator. Modes 1 and 2 name the node's parent
  /// in the fan-in tree — the daemon passes it to the spawned program,
  /// which connects upward and metertap()s the edge.
  std::uint8_t mode = 0;
  std::string parent_host;
  std::uint16_t parent_port = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, b.filterfile, b.logfile, b.descriptions, b.templates,
      b.control_port, b.control_host, b.nonce, b.mode, b.parent_host,
      b.parent_port);
  }
  bool valid() const { return mode <= 2; }
};

struct FilterReply {
  static constexpr MsgType kType = MsgType::filter_reply;
  std::int32_t pid = 0;
  std::int32_t status = 0;
  std::uint16_t meter_port = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.pid, b.status, b.meter_port);
  }
};

struct SetFlagsRequest {
  static constexpr MsgType kType = MsgType::setflags_request;
  std::int32_t uid = 0;
  std::int32_t pid = 0;
  std::uint32_t flags = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, b.pid, b.flags);
  }
};

/// start / stop / kill / release / status share a body; `what`, one of
/// the process ops, is the type word on the wire (kType is only its
/// default). status_request with pid=0 is a pure liveness ping (the
/// controller's reconciliation probe); with a pid it asks whether that
/// created process is still alive (0 ok, esrch gone).
struct ProcRequest {
  static constexpr MsgType kType = MsgType::start_request;
  MsgType what = kType;
  std::int32_t uid = 0;
  std::int32_t pid = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, b.pid);
  }
};

struct AcquireRequest {
  static constexpr MsgType kType = MsgType::acquire_request;
  std::int32_t uid = 0;
  std::int32_t pid = 0;
  std::uint16_t filter_port = 0;
  std::string filter_host;
  std::uint32_t meter_flags = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, b.pid, b.filter_port, b.filter_host, b.meter_flags);
  }
};

struct SimpleReply {
  static constexpr MsgType kType = MsgType::simple_reply;
  std::int32_t status = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.status);
  }
};

/// Daemon → controller: a created process changed state.
struct StateNote {
  static constexpr MsgType kType = MsgType::state_note;
  std::string machine;  // literal host name of the daemon's machine
  std::int32_t pid = 0;
  std::uint8_t event = 0;  // kernel::ChildEvent value
  std::int32_t status = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.machine, b.pid, b.event, b.status);
  }
};

/// Daemon → controller: output the process wrote to its redirected stdio.
struct IoNote {
  static constexpr MsgType kType = MsgType::io_note;
  std::string machine;
  std::int32_t pid = 0;
  std::string data;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.machine, b.pid, b.data);
  }
};

/// Controller → daemon: input for a process's stdin.
struct IoSend {
  static constexpr MsgType kType = MsgType::io_send;
  std::int32_t uid = 0;
  std::int32_t pid = 0;
  std::string data;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, b.pid, b.data);
  }
};

/// N creates in one RPC. The items share the job's wiring (filter socket,
/// meter flags, controller notification socket) — exactly the fields that
/// are identical across a job's processes on one machine. The nonce keys
/// the whole batch in the daemon's replay cache: a retried batch returns
/// the cached reply, never a second wave of processes.
struct BatchCreateRequest {
  static constexpr MsgType kType = MsgType::batch_create_request;
  std::int32_t uid = 0;
  struct Item {
    std::string filename;
    std::vector<std::string> params;

    template <typename B, typename F>
    static void fields(B& b, F&& f) {
      f(b.filename, capped<kMaxParams>(b.params));
    }
  };
  std::vector<Item> items;
  std::uint16_t filter_port = 0;
  std::string filter_host;
  std::uint32_t meter_flags = 0;
  std::uint16_t control_port = 0;
  std::string control_host;
  std::uint64_t nonce = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.uid, capped<kMaxBatchItems>(b.items), b.filter_port, b.filter_host,
      b.meter_flags, b.control_port, b.control_host, b.nonce);
  }
};

/// Per-item results, parallel to the request's items. `nonce` echoes the
/// request so a pipelined client can match replies to in-flight calls.
struct BatchCreateReply {
  static constexpr MsgType kType = MsgType::batch_create_reply;
  std::uint64_t nonce = 0;
  std::vector<std::int32_t> pids;      // -1 where the create failed
  std::vector<std::int32_t> statuses;  // 0 ok, else util::Err value

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.nonce, capped<kMaxPids>(b.pids), capped<kMaxPids>(b.statuses));
  }
  bool valid() const { return pids.size() == statuses.size(); }
};

/// One process op (start/stop/kill/release — `what` disambiguates, as for
/// ProcRequest) applied to a pid list in one RPC.
struct BatchProcRequest {
  static constexpr MsgType kType = MsgType::batch_proc_request;
  MsgType what = MsgType::start_request;
  std::int32_t uid = 0;
  std::uint64_t nonce = 0;
  std::vector<std::int32_t> pids;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.what, b.uid, b.nonce, capped<kMaxPids>(b.pids));
  }
  bool valid() const { return is_proc_op(what); }
};

struct BatchProcReply {
  static constexpr MsgType kType = MsgType::batch_proc_reply;
  std::uint64_t nonce = 0;
  std::vector<std::int32_t> statuses;  // parallel to the request's pids

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f(b.nonce, capped<kMaxPids>(b.statuses));
  }
};

using DaemonMsg =
    std::variant<CreateRequest, CreateReply, FilterRequest, FilterReply,
                 SetFlagsRequest, ProcRequest, AcquireRequest, SimpleReply,
                 StateNote, IoNote, IoSend, BatchCreateRequest,
                 BatchCreateReply, BatchProcRequest, BatchProcReply>;

/// The message's type word: its kType, or a ProcRequest's `what`.
MsgType msg_type(const DaemonMsg& m);
util::Bytes serialize(const DaemonMsg& m);
/// One whole frame; nullopt if it is short, names no message type, breaks
/// a count cap or fails the message's valid(). Bytes after the last field
/// are not read.
std::optional<DaemonMsg> parse(const util::Bytes& wire);

/// The size word of a frame whose first four bytes are at `head`; nullopt
/// when no frame has that size (less than its size and type words, or
/// more than 1 MiB).
std::optional<std::uint32_t> frame_size(const std::uint8_t* head);

/// Sends one framed message on a connected stream socket.
util::SysResult<void> send_msg(kernel::Sys& sys, kernel::Fd fd,
                               const DaemonMsg& m);

/// Receives one framed message (blocking). econnreset on truncation.
util::SysResult<DaemonMsg> recv_msg(kernel::Sys& sys, kernel::Fd fd);

/// Bounded-wait variant: etimedout if a whole message has not arrived
/// within `deadline`. A truncated message (peer died mid-frame) still
/// fails fast with econnreset — the reader never blocks on a short read.
util::SysResult<DaemonMsg> recv_msg(kernel::Sys& sys, kernel::Fd fd,
                                    util::Duration deadline);

/// One-shot notification (no reply expected): connect, send, close. The
/// connect is bounded (~250ms) so a dead controller cannot wedge a daemon.
util::SysResult<void> notify(kernel::Sys& sys, const net::SockAddr& to,
                             const DaemonMsg& note);

}  // namespace dpm::daemon
