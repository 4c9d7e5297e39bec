#include "daemon/protocol.h"

#include "kernel/world.h"
#include "util/bytes.h"

namespace dpm::daemon {

using util::BinaryReader;
using util::BinaryWriter;
using util::Bytes;
using util::Err;

MsgType msg_type(const DaemonMsg& m) {
  if (const auto* p = std::get_if<ProcRequest>(&m)) return p->what;
  return std::visit([](const auto& b) { return b.kType; }, m);
}

namespace {

// The one writer and the one reader: visitors over a message's fields().
// A field is a capped list (it has a kCap), a struct with its own fields()
// (a batch item), or a value BinaryWriter::put encodes.

struct Put {
  BinaryWriter& w;

  template <typename... T>
  void operator()(const T&... v) const {
    (one(v), ...);
  }
  template <typename T>
  void one(const T& v) const {
    if constexpr (requires { T::kCap; }) {
      w.u32(static_cast<std::uint32_t>(v.items.size()));
      for (const auto& e : v.items) one(e);
    } else if constexpr (requires { T::fields(v, *this); }) {
      T::fields(v, *this);
    } else {
      w.put(v);
    }
  }
};

struct Get {
  BinaryReader& r;

  template <typename... T>
  void operator()(T&&... v) const {
    (void)(one(v) && ...);
  }
  template <typename T>
  bool one(T& v) const {
    if constexpr (requires { T::kCap; }) {
      std::uint32_t n = 0;
      if (!r.get(n)) return false;
      if (n > T::kCap) {
        r.fail();
        return false;
      }
      v.items.resize(n);
      for (auto& e : v.items) {
        if (!one(e)) return false;
      }
      return true;
    } else if constexpr (requires { T::fields(v, *this); }) {
      T::fields(v, *this);
      return r.ok();
    } else {
      return r.get(v);
    }
  }
};

/// A default message of wire type `t`; nullopt for an unknown type.
std::optional<DaemonMsg> message_of(MsgType t) {
  if (is_proc_op(t)) return ProcRequest{.what = t};
  return util::alternative_of<DaemonMsg>(t);
}

}  // namespace

Bytes serialize(const DaemonMsg& m) {
  BinaryWriter w;
  w.u32(0);  // size back-patched
  w.put(msg_type(m));
  std::visit([&](const auto& b) { b.fields(b, Put{w}); }, m);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
  return w.take();
}

std::optional<DaemonMsg> parse(const Bytes& wire) {
  BinaryReader r(wire);
  std::uint32_t size = 0;
  MsgType type{};
  if (!r.get(size) || !r.get(type) || size != wire.size()) return std::nullopt;
  auto msg = message_of(type);
  if (!msg) return std::nullopt;
  // A frame holds exactly its fields: the last one must end it, so that
  // every accepted frame re-serializes to its own bytes.
  const bool ok = std::visit(
      [&](auto& b) {
        b.fields(b, Get{r});
        const bool whole = r.ok() && r.remaining() == 0;
        if constexpr (requires { b.valid(); }) return whole && b.valid();
        return whole;
      },
      *msg);
  if (!ok) return std::nullopt;
  return msg;
}

util::SysResult<void> send_msg(kernel::Sys& sys, kernel::Fd fd,
                               const DaemonMsg& m) {
  auto r = sys.send(fd, serialize(m));
  if (!r) return r.error();
  return {};
}

std::optional<std::uint32_t> frame_size(const std::uint8_t* head) {
  const std::uint32_t size = util::load_u32(head);
  if (size < 8 || size > (1u << 20)) return std::nullopt;
  return size;
}

namespace {

/// Reads one whole frame through `recv_exact(n)` and parses it.
template <typename RecvExact>
util::SysResult<DaemonMsg> recv_frame(RecvExact recv_exact) {
  auto head = recv_exact(4);
  if (!head) return head.error();
  const auto size = frame_size(head->data());
  if (!size) return Err::einval;
  auto rest = recv_exact(*size - 4);
  if (!rest) return rest.error();
  Bytes wire = std::move(*head);
  wire.insert(wire.end(), rest->begin(), rest->end());
  auto msg = parse(wire);
  if (!msg) return Err::einval;
  return *msg;
}

/// recv_exact with an absolute deadline: selects before each recv so a
/// stalled peer yields etimedout instead of parking the reader forever.
/// EOF mid-message is still econnreset, as for the unbounded variant.
util::SysResult<Bytes> recv_exact_by(kernel::Sys& sys, kernel::Fd fd,
                                     std::size_t n, util::TimePoint deadline) {
  Bytes out;
  while (out.size() < n) {
    const util::TimePoint now = sys.world().now();
    if (now >= deadline) return Err::etimedout;
    auto sel = sys.select({fd}, /*child_events=*/false, deadline - now);
    if (!sel) return sel.error();
    if (sel->timed_out) return Err::etimedout;
    auto chunk = sys.recv(fd, n - out.size());
    if (!chunk) return chunk.error();
    if (chunk->empty()) return Err::econnreset;  // EOF mid-message
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  return out;
}

}  // namespace

util::SysResult<DaemonMsg> recv_msg(kernel::Sys& sys, kernel::Fd fd) {
  return recv_frame([&](std::size_t n) { return sys.recv_exact(fd, n); });
}

util::SysResult<DaemonMsg> recv_msg(kernel::Sys& sys, kernel::Fd fd,
                                    util::Duration deadline) {
  const util::TimePoint by = sys.world().now() + deadline;
  return recv_frame(
      [&](std::size_t n) { return recv_exact_by(sys, fd, n, by); });
}

util::SysResult<void> notify(kernel::Sys& sys, const net::SockAddr& to,
                             const DaemonMsg& note) {
  auto fd = sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
  if (!fd) return fd.error();
  // Bounded connect: a dead or partitioned controller must not wedge the
  // daemon's notification path; the note is simply lost.
  auto conn = sys.connect(*fd, to, util::msec(250));
  if (!conn) {
    (void)sys.close(*fd);
    return conn.error();
  }
  auto sent = send_msg(sys, *fd, note);
  (void)sys.close(*fd);
  if (!sent) return sent.error();
  return {};
}

}  // namespace dpm::daemon
