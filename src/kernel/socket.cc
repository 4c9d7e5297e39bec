// Socket lifecycle and stream delivery (World methods).
//
// Sockets are never deallocated during a run: destruction marks the object
// closed ("zombie"), releases its names, drains its queues and wakes every
// waiter. This guarantees that syscall code blocked on a socket can safely
// re-examine it after waking, with no dangling references.
#include "kernel/socket.h"

#include <cassert>

#include "kernel/world.h"
#include "util/logging.h"

namespace dpm::kernel {
namespace {

/// Fan-in tier backpressure bound: a forwarded batch arriving at an
/// aggregation-tier socket whose receive buffer already holds this many
/// bytes is dropped whole, with every record booked to the tier's overflow
/// counter (batches are frame-aligned, so drops never cut a record in
/// half). Keeps aggregator occupancy bounded under storms while the
/// conservation ledger stays exact.
constexpr std::size_t kFaninQueueBytes = 256 * 1024;

/// Framed records remaining in a meter conn's rbuf past the read cursor:
/// `head` = 1 if a frame was partially consumed at the cursor (its
/// remainder — possibly the whole buffer — is skipped), `complete` = full
/// frames after it, `tail` = 1 if trailing bytes do not form a whole
/// frame.
struct FrameRemainder {
  std::uint64_t head = 0;
  std::uint64_t complete = 0;
  std::uint64_t tail = 0;
};

FrameRemainder count_remaining_frames(const Socket& s) {
  const std::deque<std::uint8_t>& buf = s.rbuf;
  const std::size_t n = buf.size();
  FrameRemainder out;
  std::size_t pos = 0;
  std::uint8_t hdr[4] = {s.frame_hdr[0], s.frame_hdr[1], s.frame_hdr[2],
                         s.frame_hdr[3]};
  std::uint8_t hdr_have = s.frame_hdr_have;
  std::uint32_t need = s.frame_need;
  if (hdr_have > 0 || need > 0) {
    out.head = 1;
    if (need == 0) {
      while (hdr_have < 4 && pos < n) hdr[hdr_have++] = buf[pos++];
      if (hdr_have < 4) return out;  // remainder all belongs to the head
      const std::uint32_t size = util::load_u32(hdr);
      need = size > 4 ? size - 4 : 0;
    }
    if (n - pos < need) return out;  // head frame swallows the rest
    pos += need;
  }
  while (n - pos >= 4) {
    const std::uint32_t size =
        static_cast<std::uint32_t>(buf[pos]) |
        static_cast<std::uint32_t>(buf[pos + 1]) << 8 |
        static_cast<std::uint32_t>(buf[pos + 2]) << 16 |
        static_cast<std::uint32_t>(buf[pos + 3]) << 24;
    if (size < 4 || n - pos < size) break;  // cut-short (or garbage) tail
    pos += size;
    ++out.complete;
  }
  if (pos < n) out.tail = 1;
  return out;
}

}  // namespace

SocketId World::create_socket(MachineId m, SockDomain domain, SockType type) {
  const SocketId id = sockets_.size();
  sockets_.push_back(std::make_unique<Socket>(id, m, domain, type));
  return id;
}

Socket* World::socket_object(SocketId id) {
  return id < sockets_.size() ? sockets_[id].get() : nullptr;
}

Socket* World::find_socket(SocketId id) {
  Socket* s = socket_object(id);
  if (s && s->sstate == Socket::StreamState::closed && s->refs == 0) {
    return nullptr;  // destroyed; object kept only for parked waiters
  }
  return s;
}

Socket& World::socket(SocketId id) {
  Socket* s = socket_object(id);
  assert(s);
  return *s;
}

void World::socket_ref(SocketId id) {
  if (id == 0) return;
  Socket* s = find_socket(id);
  assert(s);
  ++s->refs;
}

void World::socket_unref(SocketId id) {
  if (id == 0) return;
  Socket& s = socket(id);
  assert(s.refs > 0);
  if (--s.refs == 0) destroy_socket(id);
}

void World::destroy_socket(SocketId id) {
  Socket& s = socket(id);

  // Release name bindings.
  Machine& m = machine(s.machine);
  if (s.bound) {
    if (s.name.family == net::Family::internet) {
      auto it = m.inet_bound.find(s.name.port);
      if (it != m.inet_bound.end() && it->second == id) m.inet_bound.erase(it);
    } else if (s.name.family == net::Family::unix_path) {
      auto it = m.unix_bound.find(s.name.path);
      if (it != m.unix_bound.end() && it->second == id) m.unix_bound.erase(it);
    }
  }

  // A dying listener destroys its queued, not-yet-accepted connections.
  for (SocketId conn_id : s.accept_queue) {
    Socket* conn = find_socket(conn_id);
    if (conn && conn->refs == 0) {
      close_stream(*conn);
      conn->sstate = Socket::StreamState::closed;
      conn->readers.wake_all(exec_);
      conn->writers.wake_all(exec_);
    }
  }
  s.accept_queue.clear();

  if (s.sstate == Socket::StreamState::connected) close_stream(s);
  s.sstate = Socket::StreamState::closed;
  if (s.is_meter_conn &&
      (!s.rbuf.empty() || s.frame_hdr_have > 0 || s.frame_need > 0)) {
    // Undelivered meter bytes die with the socket. Frame them the way the
    // filter would have: complete unread records are stranded, records cut
    // short (a partially-consumed head, a partial tail) are malformed —
    // the loss is counted record by record, not silent. The loss lands in
    // the ledger the conn belongs to: tier 0 (process→filter) or tier 1
    // (fan-in), never both.
    const FrameRemainder rem = count_remaining_frames(s);
    obs::Counter* stranded =
        s.meter_tier == 0 ? mobs_.stranded_records : fobs_.stranded;
    obs::Counter* malformed =
        s.meter_tier == 0 ? mobs_.malformed_records : fobs_.malformed;
    if (rem.complete) stranded->add(rem.complete);
    if (rem.head + rem.tail) malformed->add(rem.head + rem.tail);
    s.frame_hdr_have = 0;
    s.frame_need = 0;
  }
  if (s.is_meter_conn && s.meter_tier == 1) {
    fobs_.queue_bytes->sub(static_cast<std::int64_t>(s.rbuf.size()));
  }
  mobs_.rbuf_bytes->sub(static_cast<std::int64_t>(s.rbuf.size()));
  s.rbuf.clear();
  s.dgrams.clear();
  if (prov_ && s.is_meter_conn) {
    // Provenance edges are keyed on the consuming socket id; entries on a
    // dead edge can never reach a filter. Harmless for the producer
    // endpoint (no entries are keyed there).
    prov_->on_edge_closed(id);
  }
  s.readers.wake_all(exec_);
  s.writers.wake_all(exec_);
  s.connectors.wake_all(exec_);
}

void World::close_stream(Socket& s) {
  if (s.sstate != Socket::StreamState::connected || s.peer == 0) return;
  const SocketId peer_id = s.peer;
  Socket* peer = find_socket(peer_id);
  s.sstate = Socket::StreamState::closed;
  s.peer = 0;
  if (!peer) return;
  // EOF must arrive after any data still in flight: ship it on the same
  // ordered channel.
  fabric_.send(s.net_hint, s.machine, peer->machine, s.tx_channel,
               /*droppable=*/false, 1, [this, peer_id] { deliver_eof(peer_id); });
}

void World::kernel_stream_send(SocketId from, util::Bytes data,
                               std::uint32_t meter_msgs,
                               std::vector<std::int64_t> prov_emit_us) {
  Socket* s = find_socket(from);
  // Appendix C: "Meter messages are lost if they are sent on an
  // unconnected socket." For meter batches the loss is accounted, not
  // silent.
  if (!s || s->sstate != Socket::StreamState::connected || s->peer == 0) {
    if (meter_msgs) mobs_.lost_records->add(meter_msgs);
    return;
  }
  Socket* peer = find_socket(s->peer);
  if (!peer) {
    if (meter_msgs) mobs_.lost_records->add(meter_msgs);
    return;
  }
  const SocketId peer_id = peer->id;
  const std::size_t n = data.size();
  const std::int64_t flush_us = util::count_us(exec_.now());
  fabric_.send(s->net_hint, s->machine, peer->machine, s->tx_channel,
               /*droppable=*/false, n,
               [this, peer_id, meter_msgs, flush_us, data = std::move(data),
                prov_emit_us = std::move(prov_emit_us)]() mutable {
                 if (!find_socket(peer_id)) {
                   // The connection died while the batch was in flight.
                   if (meter_msgs) mobs_.lost_records->add(meter_msgs);
                   return;
                 }
                 if (prov_ && !prov_emit_us.empty()) {
                   // Indices are assigned here, at delivery: a batch that
                   // died above (or was never sent) consumes none, keeping
                   // the consumer-side record count aligned with the
                   // tracker's per-edge index.
                   prov_->on_batch_deliver(peer_id, prov_emit_us, flush_us,
                                           util::count_us(exec_.now()));
                 }
                 deliver_stream(peer_id, std::move(data), /*accounted=*/false);
               });
}

void World::meter_consume(Socket& s, const std::uint8_t* data, std::size_t n) {
  // Consumption counts into the conn's own tier ledger: records a local
  // filter reads off process edges are tier 0; records an aggregator or
  // the session filter reads off fan-in edges are tier 1.
  obs::Counter* consumed_ctr =
      s.meter_tier == 0 ? mobs_.consumed_records : fobs_.consumed;
  std::uint64_t consumed = 0;
  while (n > 0) {
    if (s.frame_need == 0) {
      std::uint32_t size;
      if (s.frame_hdr_have == 0 && n >= 4) {
        // Whole size word available in place — the steady state for every
        // record after the first of a chunk.
        size = util::load_u32(data);
        data += 4;
        n -= 4;
      } else {
        while (s.frame_hdr_have < 4 && n > 0) {
          s.frame_hdr[s.frame_hdr_have++] = *data++;
          --n;
        }
        if (s.frame_hdr_have < 4) {
          consumed_ctr->add(consumed);
          return;
        }
        size = util::load_u32(s.frame_hdr);
        s.frame_hdr_have = 0;
      }
      if (size <= 4) {  // degenerate frame: complete at its header
        ++consumed;
        continue;
      }
      s.frame_need = size - 4;
    }
    const std::size_t take = n < s.frame_need ? n : s.frame_need;
    s.frame_need -= static_cast<std::uint32_t>(take);
    data += take;
    n -= take;
    if (s.frame_need == 0) ++consumed;
  }
  consumed_ctr->add(consumed);
}

MeterConservation World::meter_conservation() const {
  MeterConservation c;
  c.emitted = mobs_.events->value();
  c.consumed = mobs_.consumed_records->value();
  c.dropped = mobs_.dropped_records->value();
  c.lost = mobs_.lost_records->value();
  c.stranded = mobs_.stranded_records->value();
  c.malformed = mobs_.malformed_records->value();
  for (const auto& m : all_machines()) {
    for (const auto& [pid, p] : m->procs) c.pending += p->meter_pending_count;
  }
  for (const auto& sp : sockets_) {
    if (!sp) continue;
    const Socket& s = *sp;
    if (!s.is_meter_conn || s.meter_tier != 0) continue;
    if (s.sstate == Socket::StreamState::closed && s.refs == 0) continue;
    const FrameRemainder rem = count_remaining_frames(s);
    c.buffered += rem.head + rem.complete + rem.tail;
  }
  return c;
}

FanInConservation World::fanin_conservation() const {
  FanInConservation c;
  c.forwarded = fobs_.forwarded->value();
  c.consumed = fobs_.consumed->value();
  c.lost = fobs_.lost->value();
  c.overflow = fobs_.overflow_records->value();
  c.stranded = fobs_.stranded->value();
  c.malformed = fobs_.malformed->value();
  for (const auto& sp : sockets_) {
    if (!sp) continue;
    const Socket& s = *sp;
    if (!s.is_meter_conn || s.meter_tier != 1) continue;
    if (s.sstate == Socket::StreamState::closed && s.refs == 0) continue;
    const FrameRemainder rem = count_remaining_frames(s);
    c.buffered += rem.head + rem.complete + rem.tail;
  }
  return c;
}

bool World::kernel_fanin_forward(
    SocketId from, util::Bytes data, std::uint32_t records,
    std::vector<obs::ProvenanceTracker::ForwardSample> samples) {
  // Every record entering the tier is counted here; the branches below put
  // each one in exactly one terminal or in-transit bucket, and the batch's
  // provenance samples follow it there.
  fobs_.forwarded->add(records);
  Socket* s = find_socket(from);
  if (!s || s->sstate != Socket::StreamState::connected || s->peer == 0 ||
      s->eof) {
    fobs_.lost->add(records);
    if (prov_) prov_->on_fanin_drop(samples);
    return false;
  }
  Socket* peer = find_socket(s->peer);
  if (!peer) {
    fobs_.lost->add(records);
    if (prov_) prov_->on_fanin_drop(samples);
    return false;
  }
  const SocketId peer_id = peer->id;
  const std::size_t n = data.size();
  if (prov_) prov_->on_fanin_send(samples);
  fabric_.send(
      s->net_hint, s->machine, peer->machine, s->tx_channel,
      /*droppable=*/false, n,
      [this, peer_id, records, data = std::move(data),
       samples = std::move(samples)]() mutable {
        Socket* p = find_socket(peer_id);
        if (!p) {
          // The edge died while the batch was in flight.
          fobs_.lost->add(records);
          if (prov_) prov_->on_fanin_drop(samples);
          return;
        }
        if (p->rbuf.size() >= kFaninQueueBytes) {
          // Backpressure by accounted drop: the receiver is not draining.
          // Batches are frame-aligned, so the whole batch goes — records
          // are never cut in half by overflow.
          fobs_.overflow_records->add(records);
          fobs_.overflow_bytes->add(data.size());
          if (prov_) prov_->on_fanin_drop(samples);
          return;
        }
        if (prov_) {
          // Even an unsampled batch advances the out-edge index: the
          // consumer counts every record it reads, so the tracker's
          // per-edge index must count every record delivered.
          prov_->on_fanin_deliver(peer_id, records, samples,
                                  util::count_us(exec_.now()));
        }
        deliver_stream(peer_id, std::move(data), /*accounted=*/false);
      });
  return true;
}

void World::deliver_stream(SocketId to, util::Bytes data, bool accounted) {
  Socket* sp = socket_object(to);
  if (!sp) return;
  Socket& s = *sp;
  if (accounted) {
    assert(s.in_flight >= data.size());
    s.in_flight -= data.size();
  }
  if (s.sstate == Socket::StreamState::closed && s.refs == 0) return;
  s.rbuf.insert(s.rbuf.end(), data.begin(), data.end());
  mobs_.rbuf_bytes->add(static_cast<std::int64_t>(data.size()));
  if (s.is_meter_conn && s.meter_tier == 1) {
    // Tier-1 occupancy gauge: its high-water is the aggregator-occupancy
    // instrument the backpressure policy is judged by.
    fobs_.queue_bytes->add(static_cast<std::int64_t>(data.size()));
  }
  s.readers.wake_all(exec_);
}

void World::deliver_eof(SocketId to) {
  Socket* sp = socket_object(to);
  if (!sp) return;
  Socket& s = *sp;
  s.eof = true;
  s.readers.wake_all(exec_);
  s.writers.wake_all(exec_);
}

}  // namespace dpm::kernel
