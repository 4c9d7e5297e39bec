// Socket objects.
//
// §3.1: "A socket, once created, exists independent of the creating
// process. Several processes might have access to the same socket at the
// same time. A socket disappears when it is no longer referenced by any
// process." Sockets are therefore reference-counted: each descriptor-table
// slot and each process-table *meter-socket* slot holds one reference; the
// World destroys a socket when its count reaches zero.
//
// Socket objects are passive data; the connection/transfer logic lives in
// syscalls.cc and world.cc (it needs the executive, fabric and registry).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "kernel/types.h"
#include "kernel/wait.h"
#include "net/address.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dpm::kernel {

struct Datagram {
  net::SockAddr source;
  util::Bytes data;
};

class Socket {
 public:
  Socket(SocketId id, MachineId machine, SockDomain domain, SockType type)
      : id(id), machine(machine), domain(domain), type(type) {}

  SocketId id;
  MachineId machine;
  SockDomain domain;
  SockType type;

  /// References held by descriptor slots and meter-socket slots.
  int refs = 0;

  /// Local name, set by bind() or auto-bound on first use.
  net::SockAddr name;
  bool bound = false;

  // ---- Stream state ----
  enum class StreamState { idle, listening, connecting, connected, closed };
  StreamState sstate = StreamState::idle;
  SocketId peer = 0;            // connected peer (0 = none)
  net::SockAddr peer_name;      // name of the peer socket
  std::deque<std::uint8_t> rbuf;  // received, not-yet-read stream bytes
  std::size_t in_flight = 0;      // bytes en route toward this socket
  bool eof = false;               // peer closed its end
  int backlog = 0;
  std::deque<SocketId> accept_queue;  // connection sockets awaiting accept()
  std::optional<util::Err> connect_result;  // set when a connect completes
  std::uint64_t tx_channel = 0;  // fabric ordered channel toward the peer
  net::NetworkId net_hint = 0;   // network this connection runs over

  // ---- Datagram state ----
  std::deque<Datagram> dgrams;
  net::SockAddr default_dest;  // set by connect() on a datagram socket

  // ---- Wakeup channels ----
  WaitChannel readers;     // data/connection/EOF arrived
  WaitChannel writers;     // window opened / peer vanished
  WaitChannel connectors;  // connect completed

  /// Marks sockets created by setmeter plumbing (kept out of app stats).
  bool is_meter_conn = false;

  /// Which conservation ledger a meter conn's records belong to: tier 0 is
  /// the process→filter edge (setmeter), tier 1 the fan-in tier — local
  /// filter → aggregator → session filter edges marked by metertap().
  /// Records are counted per tier so each ledger balances on its own.
  std::uint8_t meter_tier = 0;

  // Incremental frame cursor over *consumed* bytes (meter conns only):
  // tracks how far the reader has advanced through the framed record
  // stream, so record consumption is counted exactly and teardown can
  // split the remainder into complete (stranded) vs cut-short (malformed)
  // records. frame_hdr accumulates a partially-read size word;
  // frame_need is the body remainder of the frame being read.
  std::uint32_t frame_need = 0;
  std::uint8_t frame_hdr[4] = {};
  std::uint8_t frame_hdr_have = 0;

  bool stream_readable() const {
    return !rbuf.empty() || eof ||
           (sstate == StreamState::listening && !accept_queue.empty());
  }
  bool readable() const {
    return type == SockType::stream ? stream_readable() : !dgrams.empty() || eof;
  }
};

}  // namespace dpm::kernel
