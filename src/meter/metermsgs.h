// Meter message formats — the reproduction of the paper's <metermsgs.h>
// (Appendix A).
//
// Every metered event produces one message: a fixed header followed by a
// body whose layout depends on the event type. The wire layout is fixed
// little-endian so that filter *description files* (Fig 3.2) can locate
// fields by byte offset. Divergences from the 1984 struct layout: times
// are 64-bit microseconds and socket identifiers are 64-bit (documented in
// DESIGN.md); socket names are carried as canonical text preceded by a
// 32-bit length, with internet names rendered as the paper's single
// decimal number.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/bytes.h"

namespace dpm::meter {

/// traceType values. Chosen so the paper's example selection rules hold:
/// Fig 3.3 matches a send with "type=1"; Fig 3.4 matches accepts with
/// "type=8, sockName=peerName".
enum class EventType : std::uint32_t {
  send = 1,
  recv = 2,
  recvcall = 3,
  sockcrt = 4,
  dup = 5,
  destsock = 6,
  fork = 7,
  accept = 8,
  connect = 9,
  termproc = 10,
};

/// The canonical lowercase name of `t` ("send", "recv"); "unknown" for a
/// number that is no event type.
std::string_view event_name(EventType t);
/// The type a name spells, ignoring case: a canonical name, or one of the
/// standard description file's (RECEIVE, SOCKET). No allocation.
std::optional<EventType> event_by_name(std::string_view name);

using Pid = std::int32_t;
using SocketId = std::uint64_t;  // "file table entry address" in the paper

// Every struct below states its wire layout once: fields(b, f) calls
// f(label, field) for each field in wire order, and the codecs in
// metermsgs.cc (encode, size, parse, print) are visitors over that list.
// Integers and enums go at their own width, little-endian; a std::string is
// a u32 length and its bytes. Labels are the field names of the standard
// description file (Fig 3.2). Adding a field means adding it to the struct
// and to its list, nothing else.

/// Common header (paper: struct MeterHeader): size u32 @0, machine u16 @4,
/// cpuTime i64 @6, procTime i64 @14, traceType u32 @22.
struct MeterHeader {
  std::uint32_t size = 0;     // total message size including header
  std::uint16_t machine = 0;  // machine on which the process runs
  std::int64_t cpu_time = 0;  // local clock reading, microseconds (§4.1)
  std::int64_t proc_time = 0; // CPU time charged to the process, 10ms grain
  EventType trace_type = EventType::send;

  // constexpr so the filter can derive its header table at compile time.
  template <typename B, typename F>
  static constexpr void fields(B& b, F&& f) {
    f("size", b.size);
    f("machine", b.machine);
    f("cpuTime", b.cpu_time);
    f("procTime", b.proc_time);
    f("traceType", b.trace_type);
  }
};

constexpr std::size_t kHeaderSize = 26;

/// Accept's and connect's two socket names: both u32 lengths come before
/// both names' bytes, as in the paper's structs, so that description files
/// find the lengths at fixed offsets. `S` is std::string or const
/// std::string.
template <typename S>
struct NamePair {
  S& sock_name;
  S& peer_name;
};
template <typename S>
NamePair(S&, S&) -> NamePair<S>;

struct MeterSend {
  static constexpr EventType kType = EventType::send;
  Pid pid = 0;
  std::uint32_t pc = 0;     // call-site tag ("PC when system call was made")
  SocketId sock = 0;        // socket the message was sent through
  std::uint32_t msg_length = 0;
  std::string dest_name;    // empty when unknown (e.g. connected stream)

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
    f("msgLength", b.msg_length);
    f("destName", b.dest_name);
  }
};

struct MeterRecv {
  static constexpr EventType kType = EventType::recv;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;
  std::uint32_t msg_length = 0;
  std::string source_name;  // empty when unknown

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
    f("msgLength", b.msg_length);
    f("sourceName", b.source_name);
  }
};

struct MeterRecvCall {
  static constexpr EventType kType = EventType::recvcall;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
  }
};

struct MeterSockCrt {
  static constexpr EventType kType = EventType::sockcrt;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;
  std::uint32_t domain = 0;
  std::uint32_t type = 0;
  std::uint32_t protocol = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
    f("domain", b.domain);
    f("socktype", b.type);
    f("protocol", b.protocol);
  }
};

struct MeterDup {
  static constexpr EventType kType = EventType::dup;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;
  SocketId new_sock = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
    f("newSock", b.new_sock);
  }
};

struct MeterDestSock {
  static constexpr EventType kType = EventType::destsock;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
  }
};

struct MeterFork {
  static constexpr EventType kType = EventType::fork;
  Pid pid = 0;   // parent
  std::uint32_t pc = 0;
  Pid new_pid = 0;  // child

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("newPid", b.new_pid);
  }
};

struct MeterAccept {
  static constexpr EventType kType = EventType::accept;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;        // socket accepting the connection
  SocketId new_sock = 0;    // connection socket created by the accept
  std::string sock_name;    // name bound to the accepting socket
  std::string peer_name;    // name bound to the connecting socket

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
    f("newSock", b.new_sock);
    f("sockName", NamePair{b.sock_name, b.peer_name});
  }
};

struct MeterConnect {
  static constexpr EventType kType = EventType::connect;
  Pid pid = 0;
  std::uint32_t pc = 0;
  SocketId sock = 0;        // socket requesting the connection
  std::string sock_name;    // name bound to the connecting socket
  std::string peer_name;    // name bound to the accepting socket

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("sock", b.sock);
    f("sockName", NamePair{b.sock_name, b.peer_name});
  }
};

struct MeterTermProc {
  static constexpr EventType kType = EventType::termproc;
  Pid pid = 0;
  std::uint32_t pc = 0;
  std::int32_t status = 0;  // 0 = normal termination

  template <typename B, typename F>
  static void fields(B& b, F&& f) {
    f("pid", b.pid);
    f("pc", b.pc);
    f("status", b.status);
  }
};

using MeterBody =
    std::variant<MeterSend, MeterRecv, MeterRecvCall, MeterSockCrt, MeterDup,
                 MeterDestSock, MeterFork, MeterAccept, MeterConnect,
                 MeterTermProc>;

/// One meter message (paper: struct MeterMsg). The header's size and
/// trace_type fields are filled in by serialize().
struct MeterMsg {
  MeterHeader header;
  MeterBody body;

  EventType type() const;
  Pid pid() const;

  /// Serializes to the fixed wire layout; the wire's size and traceType
  /// words are derived from the body during encoding.
  util::Bytes serialize() const;

  /// Appends the wire encoding to `out` in place — no intermediate buffer;
  /// the size word is back-patched after the body is written. This is the
  /// meter's hot path (meter_emit encodes straight into the process's
  /// pending batch). Byte-identical to serialize().
  void serialize_into(util::Bytes& out) const;

  /// Encodes through an already-positioned writer — the shared core of
  /// serialize() and serialize_into(). The size word is back-patched; in
  /// span mode the writer refuses to pass capacity (w.ok() turns false)
  /// rather than truncate.
  void encode_into(util::BinaryWriter& w) const;

  /// Exact wire size in bytes without encoding, so serialize_into can
  /// size its span encode up front.
  /// Invariant: wire_size() == serialize().size().
  std::size_t wire_size() const;

  /// Parses one message; nullopt on malformed input.
  static std::optional<MeterMsg> parse(const util::Bytes& wire);

  /// Parses one message from `wire` starting at `pos` if a complete message
  /// is present; advances `pos` past it (a concatenated batch parses by
  /// repeated calls). The body must end exactly where the size word says,
  /// so an accepted message re-serializes to exactly its bytes.
  static std::optional<MeterMsg> parse_stream(const util::Bytes& wire,
                                              std::size_t& pos);

  /// One-line human-readable rendering: the event name, the header, then
  /// every body field as label=value, e.g. "send     machine=0
  /// cpuTime=12000 procTime=0 pid=7 pc=0 sock=3 msgLength=64
  /// destName=328140".
  std::string pretty() const;
};

/// A message with a default body of type `t`, header left for the meter.
MeterMsg make_msg(EventType t);

}  // namespace dpm::meter
