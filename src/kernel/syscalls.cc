#include "kernel/syscalls.h"

#include <algorithm>
#include <cassert>

#include "kernel/meter_hooks.h"
#include "util/logging.h"

namespace dpm::kernel {

using util::Err;

namespace {
constexpr std::size_t kDgramMax = 16 * 1024;
constexpr std::size_t kStreamWindow = 64 * 1024;  // per-connection window
}

// ---------------------------------------------------------------------------
// Prologue / scheduling primitives
// ---------------------------------------------------------------------------

const std::string& Sys::hostname() const {
  return world_.machine(proc_->machine).name;
}

std::int64_t Sys::clock_us() const {
  return mach().clock.read_us(world_.exec().now());
}

std::int64_t Sys::proctime_us() const {
  const std::int64_t grain = kCpuGrain.count();
  return (proc_->cpu_used.count() / grain) * grain;
}

void Sys::enter(util::Duration extra_cost) {
  stop_checkpoint();
  charge(world_.config().costs.syscall_base + extra_cost);
}

void Sys::charge(util::Duration d) {
  if (d.count() <= 0) return;
  auto& exec = world_.exec();
  Machine& m = mach();
  const util::TimePoint start = std::max(exec.now(), m.cpu_free_at);
  const util::TimePoint end = start + d;
  m.cpu_free_at = end;
  proc_->cpu_used += d;
  if (exec.advance_in_place(end)) return;
  const sim::TaskId me = exec.current_task();
  exec.schedule_at(end, [&exec, me] { exec.make_runnable(me); });
  while (exec.now() < end) exec.park_current();
}

void Sys::stop_checkpoint() {
  auto& exec = world_.exec();
  while (proc_->stop_requested) {
    if (!proc_->in_stop) {
      proc_->in_stop = true;
      if (proc_->parent != 0 && !proc_->initial_suspend) {
        world_.push_child_change(
            mach(), proc_->parent,
            ChildChange{proc_->pid, ChildEvent::stopped, 0});
      }
    }
    proc_->stop_gate.add(exec.current_task());
    exec.park_current();
  }
  if (proc_->in_stop) {
    proc_->in_stop = false;
    if (proc_->parent != 0 && !proc_->initial_suspend) {
      world_.push_child_change(mach(), proc_->parent,
                               ChildChange{proc_->pid, ChildEvent::continued, 0});
    }
    proc_->initial_suspend = false;
  }
}

void Sys::wait_on(WaitChannel& chan, const std::function<bool()>& cond) {
  auto& exec = world_.exec();
  while (!cond()) {
    chan.add(exec.current_task());
    exec.park_current();
    stop_checkpoint();
  }
}

void Sys::compute(util::Duration d) {
  stop_checkpoint();
  charge(d);
}

void Sys::sleep(util::Duration d) {
  stop_checkpoint();
  world_.exec().sleep_for(d);
}

void Sys::yield() {
  auto& exec = world_.exec();
  const sim::TaskId me = exec.current_task();
  exec.schedule_at(exec.now(), [&exec, me] { exec.make_runnable(me); });
  exec.park_current();
  stop_checkpoint();
}

util::SysResult<Socket*> Sys::sock_of(Fd fd) {
  Descriptor* d = proc_->fds.get(fd);
  if (!d) return Err::ebadf;
  if (d->kind != Descriptor::Kind::socket) return Err::enotsock;
  Socket* s = world_.find_socket(d->sock);
  if (!s) return Err::ebadf;
  return s;
}

util::SysResult<void> Sys::auto_bind(Socket& s) {
  if (s.bound) return {};
  Machine& m = mach();
  if (s.domain == SockDomain::internet) {
    net::Interface itf;
    if (!m.primary_interface(&itf)) return Err::eaddrnotavail;
    while (m.inet_bound.count(m.next_port)) ++m.next_port;
    const net::Port port = m.next_port++;
    s.name = net::SockAddr::inet(itf.network, itf.addr, port);
    m.inet_bound[port] = s.id;
  } else {
    s.name = net::SockAddr::internal(world_.next_internal_name_++);
  }
  s.bound = true;
  return {};
}

// ---------------------------------------------------------------------------
// Socket creation / naming
// ---------------------------------------------------------------------------

util::SysResult<Fd> Sys::socket(SockDomain domain, SockType type) {
  enter(world_.config().costs.socket_create);
  const SocketId sid = world_.create_socket(proc_->machine, domain, type);
  world_.socket_ref(sid);
  const Fd fd = proc_->fds.alloc(Descriptor::for_socket(sid));
  if (fd < 0) {
    world_.socket_unref(sid);
    return Err::emfile;
  }
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_SOCKET,
                             meter::MeterSockCrt{
                                 proc_->pid, proc_->pc, sid,
                                 static_cast<std::uint32_t>(domain),
                                 static_cast<std::uint32_t>(type), 0}});
  return fd;
}

util::SysResult<void> Sys::bind(Fd fd, const net::SockAddr& name) {
  enter(world_.config().costs.bind_cost);
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.bound) return Err::einval;
  Machine& m = mach();
  switch (name.family) {
    case net::Family::internet: {
      if (s.domain != SockDomain::internet) return Err::einval;
      net::SockAddr a = name;
      // Fill in the host part from the machine's interface on the
      // requested network (processes bind ports, not foreign addresses).
      bool have = false;
      for (const auto& itf : m.interfaces) {
        if (itf.network == a.network) {
          a.host = itf.addr;
          have = true;
          break;
        }
      }
      if (!have) return Err::eaddrnotavail;
      if (a.port == 0) {
        while (m.inet_bound.count(m.next_port)) ++m.next_port;
        a.port = m.next_port++;
      } else if (m.inet_bound.count(a.port)) {
        return Err::eaddrinuse;
      }
      m.inet_bound[a.port] = s.id;
      s.name = a;
      break;
    }
    case net::Family::unix_path: {
      if (s.domain != SockDomain::unix_path) return Err::einval;
      if (name.path.empty()) return Err::einval;
      if (m.unix_bound.count(name.path)) return Err::eaddrinuse;
      m.unix_bound[name.path] = s.id;
      s.name = name;
      break;
    }
    default:
      return Err::einval;
  }
  s.bound = true;
  return {};
}

util::SysResult<net::SockAddr> Sys::bind_port(Fd fd, net::Port port) {
  net::Interface itf;
  if (!mach().primary_interface(&itf)) return Err::eaddrnotavail;
  auto r = bind(fd, net::SockAddr::inet(itf.network, itf.addr, port));
  if (!r) return r.error();
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  return (*sr)->name;
}

util::SysResult<void> Sys::listen(Fd fd, int backlog) {
  enter();
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.type != SockType::stream) return Err::eopnotsupp;
  if (s.sstate != Socket::StreamState::idle) return Err::einval;
  auto b = auto_bind(s);
  if (!b) return b.error();
  s.sstate = Socket::StreamState::listening;
  s.backlog = std::max(1, backlog);
  return {};
}

// ---------------------------------------------------------------------------
// Connection establishment
// ---------------------------------------------------------------------------

namespace {

/// Runs on the server machine when a connection request arrives.
void syn_arrives(World& w, MachineId server_machine, net::SockAddr dest,
                 SocketId client_id, MachineId client_machine,
                 net::SockAddr client_name, net::NetworkId over_net) {
  Machine& m = w.machine(server_machine);
  // A crashed machine swallows SYNs silently: the caller sees no reply and
  // times out (connect with a deadline) rather than an instant refusal.
  if (!m.up) return;
  SocketId listener_id = 0;
  if (dest.family == net::Family::internet) {
    auto it = m.inet_bound.find(dest.port);
    if (it != m.inet_bound.end()) listener_id = it->second;
  } else if (dest.family == net::Family::unix_path) {
    auto it = m.unix_bound.find(dest.path);
    if (it != m.unix_bound.end()) listener_id = it->second;
  }

  Socket* listener = listener_id ? w.find_socket(listener_id) : nullptr;
  const bool acceptable =
      listener && listener->type == SockType::stream &&
      listener->sstate == Socket::StreamState::listening &&
      listener->accept_queue.size() <
          static_cast<std::size_t>(listener->backlog);

  auto reply = [&w, client_id, server_machine, client_machine, over_net](
                   util::Err result, SocketId conn_id,
                   net::SockAddr listener_name) {
    w.fabric().send(over_net, server_machine, client_machine, /*channel=*/0,
                    /*droppable=*/false, 8,
                    [&w, client_id, result, conn_id, listener_name] {
                      Socket* c = w.find_socket(client_id);
                      if (!c) return;
                      // The client may have given up (connect deadline) or
                      // been reused; a stale SYN-ack must not resurrect it.
                      if (c->sstate != Socket::StreamState::connecting) return;
                      if (result == util::Err::ok) {
                        c->sstate = Socket::StreamState::connected;
                        c->peer = conn_id;
                        c->peer_name = listener_name;
                        c->connect_result = util::Err::ok;
                      } else {
                        c->sstate = Socket::StreamState::idle;
                        c->connect_result = result;
                      }
                      c->connectors.wake_all(w.exec());
                      c->writers.wake_all(w.exec());
                    });
  };

  if (!acceptable) {
    reply(util::Err::econnrefused, 0, {});
    return;
  }

  // Create the connection socket (owned by the accepting side once
  // accept() runs; until then it lives on the listener's queue).
  const SocketId conn_id =
      w.create_socket(server_machine, listener->domain, SockType::stream);
  Socket& conn = w.socket(conn_id);
  conn.sstate = Socket::StreamState::connected;
  conn.bound = true;
  conn.name = listener->name;  // connection sockets share the listener name
  conn.peer = client_id;
  conn.peer_name = client_name;
  conn.net_hint = over_net;
  conn.tx_channel = w.fabric().new_channel();

  listener->accept_queue.push_back(conn_id);
  listener->readers.wake_all(w.exec());

  reply(util::Err::ok, conn_id, listener->name);
}

}  // namespace

util::SysResult<void> Sys::connect(Fd fd, const net::SockAddr& name) {
  return connect_impl(fd, name, std::nullopt);
}

util::SysResult<void> Sys::connect(Fd fd, const net::SockAddr& name,
                                   util::Duration deadline) {
  return connect_impl(fd, name, deadline);
}

util::SysResult<void> Sys::connect_impl(Fd fd, const net::SockAddr& name,
                                        std::optional<util::Duration> deadline) {
  enter(world_.config().costs.connect_cost);
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;

  if (s.type == SockType::dgram) {
    // Predefining the recipient (§3.1): later send() uses this name.
    s.default_dest = name;
    auto b = auto_bind(s);
    if (!b) return b.error();
    meter_emit(world_, *proc_,
               MeterEventDraft{meter::M_CONNECT,
                               meter::MeterConnect{proc_->pid, proc_->pc, s.id,
                                                   s.name.text(), name.text()}});
    return {};
  }

  if (s.sstate == Socket::StreamState::connected) return Err::eisconn;
  if (s.sstate != Socket::StreamState::idle) return Err::einval;
  auto launched = connect_launch(s, name);
  if (!launched) return launched.error();
  const SocketId sid = s.id;

  if (deadline) {
    // Bounded wait: a down machine never answers a SYN, so callers that
    // cannot afford to hang forever pass a deadline and get etimedout.
    auto& exec = world_.exec();
    const util::TimePoint dl = exec.now() + *deadline;
    bool timer_armed = false;
    sim::EventId timer_id = 0;
    for (;;) {
      Socket* sock2 = world_.find_socket(sid);
      if (!sock2 || sock2->connect_result.has_value()) break;
      if (exec.now() >= dl) {
        // Give up: back to idle so a stale SYN-ack cannot resurrect the
        // socket into a connection nobody is waiting for.
        sock2->sstate = Socket::StreamState::idle;
        sock2->connect_result = Err::etimedout;
        break;
      }
      const sim::TaskId me = exec.current_task();
      sock2->connectors.add(me);
      if (!timer_armed) {
        timer_id =
            exec.schedule_at(dl, [&exec, me] { exec.make_runnable(me); });
        timer_armed = true;
      }
      exec.park_current();
      stop_checkpoint();
    }
    // As in select(): a connect settled before its deadline takes its
    // timer with it, or the stale wakeup holds the event queue open until
    // the deadline. now < dl guarantees the timer has not fired.
    if (timer_armed && exec.now() < dl) exec.cancel_event(timer_id, dl);
  } else {
    wait_on(s.connectors, [this, sid] {
      Socket* sock2 = world_.find_socket(sid);
      return !sock2 || sock2->connect_result.has_value();
    });
  }

  Socket* sock = world_.find_socket(sid);
  if (!sock) return Err::ebadf;
  if (*sock->connect_result != Err::ok) return *sock->connect_result;
  sock->tx_channel = world_.fabric().new_channel();

  meter_emit(world_, *proc_,
             MeterEventDraft{
                 meter::M_CONNECT,
                 meter::MeterConnect{proc_->pid, proc_->pc, sock->id,
                                     sock->name.text(), sock->peer_name.text()}});
  return {};
}

util::SysResult<void> Sys::connect_launch(Socket& s, const net::SockAddr& name) {
  auto b = auto_bind(s);
  if (!b) return b.error();

  // Locate the destination machine.
  MachineId target = 0;
  net::NetworkId over_net = 0;
  if (name.family == net::Family::internet) {
    auto tm = world_.hosts().machine_at(name);
    if (!tm) return Err::econnrefused;
    target = *tm;
    over_net = name.network;
  } else if (name.family == net::Family::unix_path) {
    if (s.domain != SockDomain::unix_path) return Err::einval;
    target = proc_->machine;  // UNIX-domain names are machine-local
  } else {
    return Err::einval;
  }

  s.sstate = Socket::StreamState::connecting;
  s.connect_result.reset();
  s.net_hint = over_net;

  const SocketId sid = s.id;
  const net::SockAddr client_name = s.name;
  const MachineId client_machine = proc_->machine;
  World* w = &world_;
  world_.fabric().send(over_net, proc_->machine, target, /*channel=*/0,
                       /*droppable=*/false, 8,
                       [w, target, name, sid, client_machine, client_name,
                        over_net] {
                         syn_arrives(*w, target, name, sid, client_machine,
                                     client_name, over_net);
                       });
  return {};
}

util::SysResult<void> Sys::connect_begin(Fd fd, const net::SockAddr& name) {
  enter(world_.config().costs.connect_cost);
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.type != SockType::stream) return Err::eopnotsupp;
  if (s.sstate == Socket::StreamState::connected) return Err::eisconn;
  if (s.sstate == Socket::StreamState::connecting) return Err::einval;
  if (s.sstate != Socket::StreamState::idle) return Err::einval;
  return connect_launch(s, name);
}

util::SysResult<void> Sys::connect_finish(Fd fd) {
  enter();
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (!s.connect_result.has_value()) {
    return s.sstate == Socket::StreamState::connecting ? Err::ewouldblock
                                                       : Err::einval;
  }
  if (*s.connect_result != Err::ok) return *s.connect_result;
  if (s.sstate != Socket::StreamState::connected) return Err::econnreset;
  if (s.tx_channel == 0) {
    s.tx_channel = world_.fabric().new_channel();
    meter_emit(world_, *proc_,
               MeterEventDraft{
                   meter::M_CONNECT,
                   meter::MeterConnect{proc_->pid, proc_->pc, s.id,
                                       s.name.text(), s.peer_name.text()}});
  }
  return {};
}

util::SysResult<Fd> Sys::accept(Fd fd) {
  enter(world_.config().costs.accept_cost);
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.type != SockType::stream) return Err::eopnotsupp;
  if (s.sstate != Socket::StreamState::listening) return Err::einval;

  const SocketId sid = s.id;
  wait_on(s.readers, [this, sid] {
    Socket* sock = world_.find_socket(sid);
    return !sock || !sock->accept_queue.empty();
  });

  Socket* listener = world_.find_socket(sid);
  if (!listener) return Err::ebadf;
  const SocketId conn_id = listener->accept_queue.front();
  listener->accept_queue.pop_front();

  world_.socket_ref(conn_id);
  const Fd nfd = proc_->fds.alloc(Descriptor::for_socket(conn_id));
  if (nfd < 0) {
    world_.socket_unref(conn_id);
    return Err::emfile;
  }
  Socket& conn = world_.socket(conn_id);
  meter_emit(world_, *proc_,
             MeterEventDraft{
                 meter::M_ACCEPT,
                 meter::MeterAccept{proc_->pid, proc_->pc, listener->id,
                                    conn_id, listener->name.text(),
                                    conn.peer_name.text()}});
  return nfd;
}

util::SysResult<std::pair<Fd, Fd>> Sys::socketpair() {
  enter(world_.config().costs.socket_create * 2);
  const SocketId a = world_.create_socket(proc_->machine, SockDomain::internal,
                                          SockType::stream);
  const SocketId b = world_.create_socket(proc_->machine, SockDomain::internal,
                                          SockType::stream);
  Socket& sa = world_.socket(a);
  Socket& sb = world_.socket(b);
  sa.name = net::SockAddr::internal(world_.next_internal_name_++);
  sb.name = net::SockAddr::internal(world_.next_internal_name_++);
  sa.bound = sb.bound = true;
  sa.sstate = sb.sstate = Socket::StreamState::connected;
  sa.peer = b;
  sb.peer = a;
  sa.peer_name = sb.name;
  sb.peer_name = sa.name;
  sa.tx_channel = world_.fabric().new_channel();
  sb.tx_channel = world_.fabric().new_channel();

  world_.socket_ref(a);
  const Fd fa = proc_->fds.alloc(Descriptor::for_socket(a));
  if (fa < 0) {
    world_.socket_unref(a);
    return Err::emfile;
  }
  world_.socket_ref(b);
  const Fd fb = proc_->fds.alloc(Descriptor::for_socket(b));
  if (fb < 0) {
    world_.socket_unref(b);
    (void)close(fa);
    return Err::emfile;
  }

  // §3.2: "socketpair() is not treated differently from a pair of socket
  // creates followed by separate connects and accepts; all four messages
  // are produced."
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_SOCKET,
                             meter::MeterSockCrt{
                                 proc_->pid, proc_->pc, a,
                                 static_cast<std::uint32_t>(sa.domain),
                                 static_cast<std::uint32_t>(sa.type), 0}});
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_SOCKET,
                             meter::MeterSockCrt{
                                 proc_->pid, proc_->pc, b,
                                 static_cast<std::uint32_t>(sb.domain),
                                 static_cast<std::uint32_t>(sb.type), 0}});
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_CONNECT,
                             meter::MeterConnect{proc_->pid, proc_->pc, a,
                                                 sa.name.text(),
                                                 sb.name.text()}});
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_ACCEPT,
                             meter::MeterAccept{proc_->pid, proc_->pc, b, b,
                                                sb.name.text(),
                                                sa.name.text()}});
  return std::make_pair(fa, fb);
}

// ---------------------------------------------------------------------------
// Data transfer
// ---------------------------------------------------------------------------

util::SysResult<std::size_t> Sys::send(Fd fd, const util::Bytes& data) {
  return send_impl(fd, data, nullptr);
}

util::SysResult<std::size_t> Sys::send(Fd fd, std::string_view data) {
  return send_impl(fd, util::to_bytes(data), nullptr);
}

util::SysResult<std::size_t> Sys::sendto(Fd fd, const util::Bytes& data,
                                         const net::SockAddr& dest) {
  return send_impl(fd, data, &dest);
}

util::SysResult<std::size_t> Sys::send_impl(Fd fd, const util::Bytes& data,
                                            const net::SockAddr* dest) {
  const auto& costs = world_.config().costs;
  enter(costs.send_base +
        util::usec(costs.send_per_kb.count() *
                   static_cast<std::int64_t>(data.size()) / 1024));
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.type == SockType::stream) {
    if (dest) return Err::eisconn;  // sendto on a stream socket
    return stream_send(s, data);
  }
  const net::SockAddr* target = dest;
  if (!target) {
    if (s.default_dest.is_unspec()) return Err::enotconn;
    target = &s.default_dest;
  }
  return dgram_send(s, data, *target);
}

util::SysResult<std::size_t> Sys::stream_send(Socket& s,
                                              const util::Bytes& data) {
  if (s.sstate != Socket::StreamState::connected) return Err::enotconn;
  const SocketId sid = s.id;
  const std::size_t window = kStreamWindow;
  std::size_t sent = 0;

  while (sent < data.size()) {
    Socket* self = world_.find_socket(sid);
    if (!self || self->sstate != Socket::StreamState::connected) return Err::epipe;
    Socket* peer = world_.find_socket(self->peer);
    if (!peer || peer->eof) return Err::epipe;

    const std::size_t used = peer->rbuf.size() + peer->in_flight;
    if (used >= window) {
      // Wait for the reader to drain; senders queue on the *peer's*
      // writers channel (the reader wakes it).
      const SocketId peer_id = peer->id;
      wait_on(peer->writers, [this, peer_id, sid, window] {
        Socket* p = world_.find_socket(peer_id);
        Socket* me = world_.find_socket(sid);
        if (!p || !me || me->sstate != Socket::StreamState::connected ||
            p->eof) {
          return true;  // error surfaced on re-check above
        }
        return p->rbuf.size() + p->in_flight < window;
      });
      continue;
    }

    const std::size_t chunk = std::min(window - used, data.size() - sent);
    util::Bytes payload(data.begin() + static_cast<std::ptrdiff_t>(sent),
                        data.begin() + static_cast<std::ptrdiff_t>(sent + chunk));
    peer->in_flight += chunk;
    const SocketId peer_id = peer->id;
    World* w = &world_;
    world_.fabric().send(self->net_hint, self->machine, peer->machine,
                         self->tx_channel, /*droppable=*/false, chunk,
                         [w, peer_id, payload = std::move(payload)]() mutable {
                           w->deliver_stream(peer_id, std::move(payload),
                                             /*accounted=*/true);
                         });
    sent += chunk;
  }

  // §4.1: when one writes across a connection the recipient's name is not
  // available to the metering software — the name length is zero.
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_SEND,
                             meter::MeterSend{proc_->pid, proc_->pc, sid,
                                              static_cast<std::uint32_t>(
                                                  data.size()),
                                              ""}});
  return sent;
}

util::SysResult<std::size_t> Sys::dgram_send(Socket& s, const util::Bytes& data,
                                             const net::SockAddr& dest) {
  if (data.size() > kDgramMax) return Err::emsgsize;
  auto b = auto_bind(s);
  if (!b) return b.error();

  // Resolve the destination machine; an unresolvable destination behaves
  // like a lost datagram (no error surfaces to the sender).
  MachineId target = 0;
  bool resolvable = false;
  net::NetworkId over_net = 0;
  if (dest.family == net::Family::internet) {
    if (auto tm = world_.hosts().machine_at(dest)) {
      target = *tm;
      over_net = dest.network;
      resolvable = true;
    }
  } else if (dest.family == net::Family::unix_path) {
    target = proc_->machine;
    resolvable = true;
  }

  if (resolvable) {
    const bool local = (target == proc_->machine);
    World* w = &world_;
    const net::SockAddr source = s.name;
    const net::SockAddr to = dest;
    util::Bytes payload = data;
    world_.fabric().send(
        over_net, proc_->machine, target, /*channel=*/0, /*droppable=*/!local,
        data.size(),
        [w, target, to, source, payload = std::move(payload)]() mutable {
          Machine& m = w->machine(target);
          if (!m.up) return;  // a crashed machine loses arriving datagrams
          SocketId sid = 0;
          if (to.family == net::Family::internet) {
            auto it = m.inet_bound.find(to.port);
            if (it != m.inet_bound.end()) sid = it->second;
          } else {
            auto it = m.unix_bound.find(to.path);
            if (it != m.unix_bound.end()) sid = it->second;
          }
          Socket* rs = sid ? w->find_socket(sid) : nullptr;
          if (!rs || rs->type != SockType::dgram) return;   // dropped
          if (rs->dgrams.size() >= kDgramQueueMax) return;  // queue overflow
          rs->dgrams.push_back(Datagram{source, std::move(payload)});
          rs->readers.wake_all(w->exec());
        });
  }

  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_SEND,
                             meter::MeterSend{proc_->pid, proc_->pc, s.id,
                                              static_cast<std::uint32_t>(
                                                  data.size()),
                                              dest.text()}});
  return data.size();
}

util::SysResult<std::size_t> Sys::writev(Fd fd,
                                         const std::vector<util::Bytes>& iov) {
  util::Bytes all;
  for (const auto& part : iov) all.insert(all.end(), part.begin(), part.end());
  return send(fd, all);
}

util::SysResult<util::Bytes> Sys::recv(Fd fd, std::size_t max) {
  enter(world_.config().costs.recv_base);
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.type != SockType::stream) {
    // read() on a datagram socket returns one whole message (§3.1).
    auto d = recvfrom_unlogged(fd);
    if (!d) return d.error();
    return std::move(d->data);
  }
  if (s.sstate == Socket::StreamState::listening) return Err::einval;
  if (s.sstate != Socket::StreamState::connected &&
      s.sstate != Socket::StreamState::closed && !s.eof) {
    if (s.rbuf.empty()) return Err::enotconn;
  }

  const SocketId sid = s.id;
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_RECEIVECALL,
                             meter::MeterRecvCall{proc_->pid, proc_->pc, sid}});

  wait_on(s.readers, [this, sid] {
    Socket* sock = world_.find_socket(sid);
    return !sock || !sock->rbuf.empty() || sock->eof ||
           sock->sstate != Socket::StreamState::connected;
  });

  Socket* sock = world_.find_socket(sid);
  if (!sock) return Err::ebadf;
  const std::size_t n = std::min(max, sock->rbuf.size());
  util::Bytes out(sock->rbuf.begin(),
                  sock->rbuf.begin() + static_cast<std::ptrdiff_t>(n));
  sock->rbuf.erase(sock->rbuf.begin(),
                   sock->rbuf.begin() + static_cast<std::ptrdiff_t>(n));
  world_.mobs_.rbuf_bytes->sub(static_cast<std::int64_t>(n));
  if (n > 0 && sock->is_meter_conn && sock->meter_tier == 1) {
    world_.fobs_.queue_bytes->sub(static_cast<std::int64_t>(n));
  }
  if (n > 0 && sock->is_meter_conn) {
    // Advance the conservation frame cursor: these bytes are now the
    // reader's problem; whole records crossing the cursor count consumed.
    world_.meter_consume(*sock, out.data(), n);
  }
  if (n > 0) sock->writers.wake_all(world_.exec());  // window opened

  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_RECEIVE,
                             meter::MeterRecv{proc_->pid, proc_->pc, sid,
                                              static_cast<std::uint32_t>(n),
                                              ""}});
  return out;
}

util::SysResult<util::Bytes> Sys::recv_exact(Fd fd, std::size_t n) {
  util::Bytes out;
  while (out.size() < n) {
    auto chunk = recv(fd, n - out.size());
    if (!chunk) return chunk.error();
    if (chunk->empty()) return Err::econnreset;  // EOF mid-message
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  return out;
}

util::SysResult<Datagram> Sys::recvfrom(Fd fd) {
  enter(world_.config().costs.recv_base);
  return recvfrom_unlogged(fd);
}

util::SysResult<Datagram> Sys::recvfrom_unlogged(Fd fd) {
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.type != SockType::dgram) return Err::eopnotsupp;
  auto b = auto_bind(s);
  if (!b) return b.error();

  const SocketId sid = s.id;
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_RECEIVECALL,
                             meter::MeterRecvCall{proc_->pid, proc_->pc, sid}});

  wait_on(s.readers, [this, sid] {
    Socket* sock = world_.find_socket(sid);
    return !sock || !sock->dgrams.empty();
  });

  Socket* sock = world_.find_socket(sid);
  if (!sock) return Err::ebadf;
  Datagram d = std::move(sock->dgrams.front());
  sock->dgrams.pop_front();

  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_RECEIVE,
                             meter::MeterRecv{proc_->pid, proc_->pc, sid,
                                              static_cast<std::uint32_t>(
                                                  d.data.size()),
                                              d.source.text()}});
  return d;
}

// ---------------------------------------------------------------------------
// Descriptor management
// ---------------------------------------------------------------------------

util::SysResult<Fd> Sys::dup(Fd fd) {
  enter();
  Descriptor* d = proc_->fds.get(fd);
  if (!d) return Err::ebadf;
  Descriptor copy = *d;
  if (copy.kind == Descriptor::Kind::socket) world_.socket_ref(copy.sock);
  const SocketId sock_id = copy.kind == Descriptor::Kind::socket ? copy.sock : 0;
  const Fd nfd = proc_->fds.alloc(std::move(copy));
  if (nfd < 0) {
    if (sock_id) world_.socket_unref(sock_id);
    return Err::emfile;
  }
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_DUP,
                             meter::MeterDup{proc_->pid, proc_->pc, sock_id,
                                             sock_id}});
  return nfd;
}

util::SysResult<void> Sys::close(Fd fd) {
  enter();
  auto released = proc_->fds.release(fd);
  if (!released) return Err::ebadf;
  if (released->kind == Descriptor::Kind::socket) {
    meter_emit(world_, *proc_,
               MeterEventDraft{meter::M_DESTSOCKET,
                               meter::MeterDestSock{proc_->pid, proc_->pc,
                                                    released->sock}});
  }
  world_.release_descriptor(*released);
  return {};
}

util::SysResult<net::SockAddr> Sys::getsockname(Fd fd) {
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  return (*sr)->name;
}

util::SysResult<net::SockAddr> Sys::getpeername(Fd fd) {
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  if ((*sr)->sstate != Socket::StreamState::connected) return Err::enotconn;
  return (*sr)->peer_name;
}

// ---------------------------------------------------------------------------
// select / waitchange
// ---------------------------------------------------------------------------

util::SysResult<SelectResult> Sys::select(const std::vector<Fd>& read_fds,
                                          bool child_events,
                                          std::optional<util::Duration> timeout) {
  return select(read_fds, {}, child_events, timeout);
}

namespace {

/// 4.2BSD writability: a completed (or failed) connect attempt, an
/// established connection, or a socket where a send would fail fast. A
/// vanished socket counts writable so the error surfaces on use.
bool sock_writable(const Socket* s) {
  if (!s) return true;
  if (s->type != SockType::stream) return true;
  switch (s->sstate) {
    case Socket::StreamState::connecting:
      return s->connect_result.has_value();
    case Socket::StreamState::listening:
      return false;
    case Socket::StreamState::idle:
    case Socket::StreamState::connected:
    case Socket::StreamState::closed:
      return true;
  }
  return true;
}

}  // namespace

util::SysResult<SelectResult> Sys::select(const std::vector<Fd>& read_fds,
                                          const std::vector<Fd>& write_fds,
                                          bool child_events,
                                          std::optional<util::Duration> timeout) {
  enter();
  auto& exec = world_.exec();
  std::optional<util::TimePoint> deadline;
  if (timeout) deadline = exec.now() + *timeout;
  bool timer_armed = false;
  sim::EventId timer_id = 0;
  // A select satisfied before its deadline must take its timer with it:
  // a stale timeout event would hold the event queue open and stretch
  // every run-to-quiescence (and any sim-time measurement) out to the
  // full deadline. now < deadline guarantees the timer has not fired.
  const auto disarm = [&] {
    if (timer_armed && exec.now() < *deadline) {
      exec.cancel_event(timer_id, *deadline);
    }
  };

  for (;;) {
    SelectResult out;
    for (Fd fd : read_fds) {
      const Descriptor* d = proc_->fds.get(fd);
      if (!d) {
        disarm();
        return Err::ebadf;
      }
      bool ready = false;
      switch (d->kind) {
        case Descriptor::Kind::socket: {
          Socket* s = world_.find_socket(d->sock);
          ready = !s || s->readable();
          break;
        }
        case Descriptor::Kind::pipe:
          ready = !d->pipe->buf.empty() || d->pipe->closed;
          break;
        case Descriptor::Kind::file:
          ready = true;
          break;
        case Descriptor::Kind::null:
          ready = true;  // reads return EOF immediately
          break;
      }
      if (ready) out.readable.push_back(fd);
    }
    for (Fd fd : write_fds) {
      const Descriptor* d = proc_->fds.get(fd);
      if (!d) {
        disarm();
        return Err::ebadf;
      }
      const bool ready = d->kind != Descriptor::Kind::socket ||
                         sock_writable(world_.find_socket(d->sock));
      if (ready) out.writable.push_back(fd);
    }
    if (child_events && !proc_->child_changes.empty()) out.child_event = true;

    if (!out.readable.empty() || !out.writable.empty() || out.child_event) {
      disarm();
      return out;
    }
    if (deadline && exec.now() >= *deadline) {
      out.timed_out = true;
      return out;
    }

    // Register for wakeups, then park.
    const sim::TaskId me = exec.current_task();
    for (Fd fd : read_fds) {
      const Descriptor* d = proc_->fds.get(fd);
      if (d->kind == Descriptor::Kind::socket) {
        if (Socket* s = world_.find_socket(d->sock)) s->readers.add(me);
      } else if (d->kind == Descriptor::Kind::pipe) {
        d->pipe->readers.add(me);
      }
    }
    for (Fd fd : write_fds) {
      const Descriptor* d = proc_->fds.get(fd);
      if (d->kind == Descriptor::Kind::socket) {
        if (Socket* s = world_.find_socket(d->sock)) {
          // A connecting socket completes through its connectors channel;
          // window/teardown wakeups ride writers.
          s->connectors.add(me);
          s->writers.add(me);
        }
      }
    }
    if (child_events) proc_->child_wait.add(me);
    if (deadline && !timer_armed) {
      timer_id =
          exec.schedule_at(*deadline, [&exec, me] { exec.make_runnable(me); });
      timer_armed = true;
    }
    exec.park_current();
    stop_checkpoint();
  }
}

util::SysResult<ChildChange> Sys::waitchange(bool block) {
  enter();
  if (proc_->child_changes.empty() && !block) return Err::ewouldblock;
  wait_on(proc_->child_wait, [this] { return !proc_->child_changes.empty(); });
  ChildChange c = proc_->child_changes.front();
  proc_->child_changes.pop_front();
  return c;
}

// ---------------------------------------------------------------------------
// Processes
// ---------------------------------------------------------------------------

util::SysResult<Pid> Sys::fork(ProcessMain child_main) {
  enter(world_.config().costs.fork_cost);
  SpawnOpts opts;
  opts.parent = proc_->pid;
  auto r = world_.spawn(proc_->machine, proc_->name + "'", proc_->euid,
                        std::move(child_main), opts);
  if (!r) return r.error();
  Process* child = world_.find_process(proc_->machine, *r);
  assert(child);

  // Inherit the descriptor table (§3.1: a forked child gains access to the
  // parent's sockets and open files).
  for (auto& [fd, d] : proc_->fds.entries()) {
    if (d.kind == Descriptor::Kind::socket) world_.socket_ref(d.sock);
    child->fds.install(fd, d);
  }

  // §3.2: "When a process forks, the child process inherits the meter
  // socket and the meter flags of the parent."
  child->meter_flags = proc_->meter_flags;
  if (proc_->meter_sock != 0) {
    world_.socket_ref(proc_->meter_sock);
    child->meter_sock = proc_->meter_sock;
  }

  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_FORK,
                             meter::MeterFork{proc_->pid, proc_->pc, *r}});
  return *r;
}

util::SysResult<Pid> Sys::spawn(const SpawnArgs& sa) {
  enter(world_.config().costs.fork_cost);

  auto stdio = [this](Fd fd) -> util::SysResult<Descriptor> {
    if (fd < 0) return Descriptor::null_dev();
    Descriptor* d = proc_->fds.get(fd);
    if (!d) return Err::ebadf;
    return *d;  // World::spawn refs sockets when installing stdio
  };
  auto in = stdio(sa.stdin_fd);
  if (!in) return in.error();
  auto out = stdio(sa.stdout_fd);
  if (!out) return out.error();
  auto err = stdio(sa.stderr_fd);
  if (!err) return err.error();

  SpawnOpts opts;
  opts.suspended = sa.suspended;
  opts.parent = proc_->pid;
  opts.stdin_fd = *in;
  opts.stdout_fd = *out;
  opts.stderr_fd = *err;
  auto r = world_.spawn_file(proc_->machine, sa.path, proc_->euid, sa.args,
                             std::move(opts));
  if (!r) return r.error();

  // Meter inheritance, as for fork (§3.2: a process created by a monitored
  // server is itself monitored).
  Process* child = world_.find_process(proc_->machine, *r);
  assert(child);
  child->meter_flags = proc_->meter_flags;
  if (proc_->meter_sock != 0) {
    world_.socket_ref(proc_->meter_sock);
    child->meter_sock = proc_->meter_sock;
  }
  meter_emit(world_, *proc_,
             MeterEventDraft{meter::M_FORK,
                             meter::MeterFork{proc_->pid, proc_->pc, *r}});
  return *r;
}

util::SysResult<void> Sys::seteuid(Uid uid) {
  enter();
  if (proc_->uid != kSuperUser) return Err::eperm;
  proc_->euid = uid;
  return {};
}

void Sys::exit(int status) { throw ProcessExit{status}; }

util::SysResult<void> Sys::kill_stop(Pid pid) {
  enter();
  return world_.proc_stop(proc_->machine, pid, proc_->euid);
}

util::SysResult<void> Sys::kill_continue(Pid pid) {
  enter();
  return world_.proc_continue(proc_->machine, pid, proc_->euid);
}

util::SysResult<void> Sys::kill_kill(Pid pid) {
  enter();
  if (pid == proc_->pid) exit(-1);
  return world_.proc_kill(proc_->machine, pid, proc_->euid);
}

// ---------------------------------------------------------------------------
// setmeter (Appendix C)
// ---------------------------------------------------------------------------

util::SysResult<void> Sys::setmeter(std::int32_t proc, std::int32_t flags,
                                    std::int32_t sock) {
  enter();
  Process* target;
  if (proc == meter::SETMETER_SELF) {
    target = proc_.get();
  } else {
    target = world_.find_process(proc_->machine, proc);
  }
  if (!target || target->status == ProcStatus::dead) return Err::esrch;
  // "A user can request metering only for processes belonging to that
  // user. ... A superuser process can set metering for any process."
  if (target->uid != proc_->euid && proc_->euid != kSuperUser) return Err::eperm;

  // Validate the socket argument before changing anything.
  SocketId new_sock = 0;
  bool change_sock = false;
  bool close_sock = false;
  if (sock == meter::SETMETER_NO_CHANGE) {
    // keep
  } else if (sock == meter::SETMETER_NONE) {
    change_sock = true;
    close_sock = true;
  } else {
    Descriptor* d = proc_->fds.get(sock);
    if (!d) return Err::esrch;  // man page: ESRCH "the socket does not exist"
    if (d->kind != Descriptor::Kind::socket) return Err::enotsock;
    Socket* s = world_.find_socket(d->sock);
    if (!s) return Err::esrch;
    // "The socket provided must be a stream socket in the Internet
    // domain." Connectedness is deliberately NOT checked.
    if (s->domain != SockDomain::internet || s->type != SockType::stream) {
      return Err::einval;
    }
    new_sock = s->id;
    change_sock = true;
  }

  if (change_sock) {
    if (target->meter_sock != 0) {
      // "If setmeter() is called specifying a new meter socket for a
      // process already having one, the old socket is closed."
      meter_flush(world_, *target);
      world_.socket_unref(target->meter_sock);
      target->meter_sock = 0;
    }
    if (!close_sock) {
      // The descriptor is duplicated for the metered process but not
      // placed in its descriptor table (§3.2) — just take a reference.
      world_.socket_ref(new_sock);
      target->meter_sock = new_sock;
      Socket& ms = world_.socket(new_sock);
      ms.is_meter_conn = true;
      // Mark the filter-side end too: its receive buffer carries meter
      // records, so a teardown with a partial record pending is a counted
      // loss (MeterStats::malformed_records).
      if (Socket* peer = world_.find_socket(ms.peer)) {
        peer->is_meter_conn = true;
      }
    }
  }

  if (flags == meter::SETMETER_NO_CHANGE) {
    // keep
  } else if (flags == meter::SETMETER_NONE) {
    target->meter_flags = 0;
  } else {
    // Appendix C: the mask *replaces* the previous mask (the controller's
    // union semantics are implemented above the kernel).
    target->meter_flags = static_cast<meter::Flags>(flags);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Fan-in tier (local filter / aggregator plumbing)
// ---------------------------------------------------------------------------

util::SysResult<void> Sys::metertap(Fd fd) {
  enter();
  auto sr = sock_of(fd);
  if (!sr) return sr.error();
  Socket& s = **sr;
  if (s.domain != SockDomain::internet || s.type != SockType::stream) {
    return Err::einval;
  }
  if (s.sstate != Socket::StreamState::connected) return Err::enotconn;
  s.is_meter_conn = true;
  s.meter_tier = 1;
  if (Socket* peer = world_.find_socket(s.peer)) {
    // The upstream end is where records are buffered and consumed; marking
    // it routes its frame cursor and teardown residue into the tier-1
    // ledger.
    peer->is_meter_conn = true;
    peer->meter_tier = 1;
  }
  return {};
}

util::SysResult<void> Sys::meter_forward(
    Fd fd, const util::Bytes& batch, std::uint32_t records,
    std::vector<obs::ProvenanceTracker::ForwardSample> samples) {
  const auto& costs = world_.config().costs;
  enter(costs.send_base +
        util::usec(costs.send_per_kb.count() *
                   static_cast<std::int64_t>(batch.size()) / 1024));
  // Not a fan-in edge: nothing is sent, so the samples die here.
  const auto refuse = [&](Err e) {
    if (obs::ProvenanceTracker* prov = world_.provenance()) {
      prov->on_fanin_drop(samples);
    }
    return e;
  };
  auto sr = sock_of(fd);
  if (!sr) return refuse(sr.error());
  Socket& s = **sr;
  if (!s.is_meter_conn || s.meter_tier != 1) return refuse(Err::einval);
  if (!world_.kernel_fanin_forward(s.id, batch, records, std::move(samples))) {
    return Err::epipe;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Files, pipes and stdio
// ---------------------------------------------------------------------------

util::SysResult<Fd> Sys::open(const std::string& path, OpenMode mode) {
  enter(world_.config().costs.file_io_base);
  Machine& m = mach();
  auto of = std::make_shared<OpenFile>();
  if (mode == OpenMode::read) {
    auto f = m.fs.open_read(path, proc_->euid);
    if (!f) return f.error();
  } else {
    auto f = m.fs.open_write(path, proc_->euid, mode == OpenMode::write_trunc);
    if (!f) return f.error();
    if (mode == OpenMode::append) of->offset = (*f)->content.size();
  }
  of->machine = proc_->machine;
  of->path = path;
  of->writable = mode != OpenMode::read;
  of->append = mode == OpenMode::append;
  const Fd fd = proc_->fds.alloc(Descriptor::for_file(std::move(of)));
  if (fd < 0) return Err::emfile;
  return fd;
}

util::SysResult<util::Bytes> Sys::read(Fd fd, std::size_t max) {
  Descriptor* d = proc_->fds.get(fd);
  if (!d) return Err::ebadf;
  switch (d->kind) {
    case Descriptor::Kind::socket:
      return recv(fd, max);
    case Descriptor::Kind::file: {
      const auto& costs = world_.config().costs;
      enter(costs.file_io_base);
      const FileData* f = world_.machine(d->file->machine).fs.find(d->file->path);
      if (!f) return Err::enoent;
      util::Bytes out = f->content.read(d->file->offset, max);  // empty at EOF
      d->file->offset += out.size();
      charge(util::usec(costs.file_io_per_kb.count() *
                        static_cast<std::int64_t>(out.size()) / 1024));
      return out;
    }
    case Descriptor::Kind::pipe: {
      enter();
      auto pipe = d->pipe;
      wait_on(pipe->readers,
              [pipe] { return !pipe->buf.empty() || pipe->closed; });
      const std::size_t n = std::min(max, pipe->buf.size());
      util::Bytes out(pipe->buf.begin(),
                      pipe->buf.begin() + static_cast<std::ptrdiff_t>(n));
      pipe->buf.erase(pipe->buf.begin(),
                      pipe->buf.begin() + static_cast<std::ptrdiff_t>(n));
      return out;
    }
    case Descriptor::Kind::null:
      enter();
      return util::Bytes{};  // EOF
  }
  return Err::ebadf;
}

util::SysResult<std::size_t> Sys::write(Fd fd, const util::Bytes& data) {
  return write_bytes(fd, data.data(), data.size(), &data);
}

util::SysResult<std::size_t> Sys::write(Fd fd, std::string_view data) {
  return write_bytes(fd, reinterpret_cast<const std::uint8_t*>(data.data()),
                     data.size(), nullptr);
}

util::SysResult<std::size_t> Sys::write_bytes(Fd fd, const std::uint8_t* data,
                                              std::size_t n,
                                              const util::Bytes* owned) {
  Descriptor* d = proc_->fds.get(fd);
  if (!d) return Err::ebadf;
  switch (d->kind) {
    case Descriptor::Kind::socket:
      return owned ? send(fd, *owned) : send(fd, util::Bytes(data, data + n));
    case Descriptor::Kind::file: {
      const auto& costs = world_.config().costs;
      enter(costs.file_io_base +
            util::usec(costs.file_io_per_kb.count() *
                       static_cast<std::int64_t>(n) / 1024));
      if (!d->file->writable) return Err::eacces;
      Machine& fm = world_.machine(d->file->machine);
      auto f = fm.fs.open_write(d->file->path, proc_->euid, /*truncate=*/false);
      if (!f) return f.error();
      FileContent& content = (*f)->content;
      if (d->file->offset > content.size()) d->file->offset = content.size();
      content.write(d->file->offset, data, n);
      d->file->offset += n;
      return n;
    }
    case Descriptor::Kind::pipe: {
      enter();
      auto pipe = d->pipe;
      pipe->buf.insert(pipe->buf.end(), data, data + n);
      pipe->readers.wake_all(world_.exec());
      return n;
    }
    case Descriptor::Kind::null:
      enter();
      return n;  // discarded
  }
  return Err::ebadf;
}

util::SysResult<void> Sys::unlink(const std::string& path) {
  enter(world_.config().costs.file_io_base);
  return mach().fs.remove(path, proc_->euid);
}

util::SysResult<void> Sys::rcp(const std::string& src_host,
                               const std::string& src,
                               const std::string& dst_host,
                               const std::string& dst) {
  enter(world_.config().costs.file_io_base);
  auto sm = world_.hosts().machine_of(src_host);
  auto dm = world_.hosts().machine_of(dst_host);
  if (!sm || !dm) return Err::enoent;
  auto r = world_.copy_file(*sm, src, *dm, dst, proc_->euid);
  if (!r) return r.error();
  // Network transfer time: a simple size-proportional sleep.
  const std::int64_t bytes = static_cast<std::int64_t>(*r);
  if (*sm != *dm) sleep(util::msec(5) + util::usec(bytes));
  return {};
}

util::SysResult<std::size_t> Sys::print(std::string_view s) {
  return write(1, s);
}

util::SysResult<std::optional<std::string>> Sys::read_line() {
  for (;;) {
    auto nl = stdin_buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = stdin_buf_.substr(0, nl);
      stdin_buf_.erase(0, nl + 1);
      return std::optional<std::string>(std::move(line));
    }
    auto chunk = read(0, 512);
    if (!chunk) return chunk.error();
    if (chunk->empty()) {
      if (stdin_buf_.empty()) return std::optional<std::string>{};
      std::string line = std::move(stdin_buf_);
      stdin_buf_.clear();
      return std::optional<std::string>(std::move(line));
    }
    stdin_buf_ += util::to_string(*chunk);
  }
}

std::optional<net::SockAddr> Sys::resolve(const std::string& host,
                                          net::Port port) {
  return world_.hosts().resolve_from(hostname(), host, port);
}

SocketId Sys::socket_id(Fd fd) {
  Descriptor* d = proc_->fds.get(fd);
  if (!d || d->kind != Descriptor::Kind::socket) return 0;
  return d->sock;
}

}  // namespace dpm::kernel
