#include "daemon/protocol.h"

#include "kernel/world.h"
#include "util/bytes.h"

namespace dpm::daemon {

using util::BinaryReader;
using util::BinaryWriter;
using util::Bytes;
using util::Err;

MsgType msg_type(const DaemonMsg& m) {
  struct Visitor {
    MsgType operator()(const CreateRequest&) { return MsgType::create_request; }
    MsgType operator()(const CreateReply&) { return MsgType::create_reply; }
    MsgType operator()(const FilterRequest&) { return MsgType::filter_request; }
    MsgType operator()(const FilterReply&) { return MsgType::filter_reply; }
    MsgType operator()(const SetFlagsRequest&) { return MsgType::setflags_request; }
    MsgType operator()(const ProcRequest& p) { return p.what; }
    MsgType operator()(const AcquireRequest&) { return MsgType::acquire_request; }
    MsgType operator()(const SimpleReply&) { return MsgType::simple_reply; }
    MsgType operator()(const StateNote&) { return MsgType::state_note; }
    MsgType operator()(const IoNote&) { return MsgType::io_note; }
    MsgType operator()(const IoSend&) { return MsgType::io_send; }
    MsgType operator()(const BatchCreateRequest&) {
      return MsgType::batch_create_request;
    }
    MsgType operator()(const BatchCreateReply&) {
      return MsgType::batch_create_reply;
    }
    MsgType operator()(const BatchProcRequest&) {
      return MsgType::batch_proc_request;
    }
    MsgType operator()(const BatchProcReply&) {
      return MsgType::batch_proc_reply;
    }
  };
  return std::visit(Visitor{}, m);
}

namespace {

struct BodyWriter {
  BinaryWriter& w;

  void operator()(const CreateRequest& b) {
    w.i32(b.uid);
    w.lstring(b.filename);
    w.u32(static_cast<std::uint32_t>(b.params.size()));
    for (const auto& p : b.params) w.lstring(p);
    w.u16(b.filter_port);
    w.lstring(b.filter_host);
    w.u32(b.meter_flags);
    w.u16(b.control_port);
    w.lstring(b.control_host);
    w.lstring(b.stdin_file);
    w.u64(b.nonce);
  }
  void operator()(const CreateReply& b) {
    w.i32(b.pid);
    w.i32(b.status);
  }
  void operator()(const FilterRequest& b) {
    w.i32(b.uid);
    w.lstring(b.filterfile);
    w.lstring(b.logfile);
    w.lstring(b.descriptions);
    w.lstring(b.templates);
    w.u16(b.control_port);
    w.lstring(b.control_host);
    w.u64(b.nonce);
    w.u8(b.mode);
    w.lstring(b.parent_host);
    w.u16(b.parent_port);
  }
  void operator()(const FilterReply& b) {
    w.i32(b.pid);
    w.i32(b.status);
    w.u16(b.meter_port);
  }
  void operator()(const SetFlagsRequest& b) {
    w.i32(b.uid);
    w.i32(b.pid);
    w.u32(b.flags);
  }
  void operator()(const ProcRequest& b) {
    w.i32(b.uid);
    w.i32(b.pid);
  }
  void operator()(const AcquireRequest& b) {
    w.i32(b.uid);
    w.i32(b.pid);
    w.u16(b.filter_port);
    w.lstring(b.filter_host);
    w.u32(b.meter_flags);
  }
  void operator()(const SimpleReply& b) { w.i32(b.status); }
  void operator()(const StateNote& b) {
    w.lstring(b.machine);
    w.i32(b.pid);
    w.u8(b.event);
    w.i32(b.status);
  }
  void operator()(const IoNote& b) {
    w.lstring(b.machine);
    w.i32(b.pid);
    w.lstring(b.data);
  }
  void operator()(const IoSend& b) {
    w.i32(b.uid);
    w.i32(b.pid);
    w.lstring(b.data);
  }
  void operator()(const BatchCreateRequest& b) {
    w.i32(b.uid);
    w.u32(static_cast<std::uint32_t>(b.items.size()));
    for (const auto& item : b.items) {
      w.lstring(item.filename);
      w.u32(static_cast<std::uint32_t>(item.params.size()));
      for (const auto& p : item.params) w.lstring(p);
    }
    w.u16(b.filter_port);
    w.lstring(b.filter_host);
    w.u32(b.meter_flags);
    w.u16(b.control_port);
    w.lstring(b.control_host);
    w.u64(b.nonce);
  }
  void operator()(const BatchCreateReply& b) {
    w.u64(b.nonce);
    w.u32(static_cast<std::uint32_t>(b.pids.size()));
    for (std::int32_t pid : b.pids) w.i32(pid);
    w.u32(static_cast<std::uint32_t>(b.statuses.size()));
    for (std::int32_t st : b.statuses) w.i32(st);
  }
  void operator()(const BatchProcRequest& b) {
    w.u32(static_cast<std::uint32_t>(b.what));
    w.i32(b.uid);
    w.u64(b.nonce);
    w.u32(static_cast<std::uint32_t>(b.pids.size()));
    for (std::int32_t pid : b.pids) w.i32(pid);
  }
  void operator()(const BatchProcReply& b) {
    w.u64(b.nonce);
    w.u32(static_cast<std::uint32_t>(b.statuses.size()));
    for (std::int32_t st : b.statuses) w.i32(st);
  }
};

}  // namespace

Bytes serialize(const DaemonMsg& m) {
  BinaryWriter w;
  w.u32(0);  // size back-patched
  w.u32(static_cast<std::uint32_t>(msg_type(m)));
  std::visit(BodyWriter{w}, m);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
  return w.take();
}

namespace {

template <typename T>
std::optional<DaemonMsg> finish(std::optional<T> v) {
  if (!v) return std::nullopt;
  return DaemonMsg{std::move(*v)};
}

std::optional<CreateRequest> parse_create(BinaryReader& r) {
  CreateRequest b;
  auto uid = r.i32();
  auto fn = r.lstring();
  auto n = r.u32();
  if (!uid || !fn || !n || *n > 1024) return std::nullopt;
  b.uid = *uid;
  b.filename = *fn;
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto p = r.lstring();
    if (!p) return std::nullopt;
    b.params.push_back(std::move(*p));
  }
  auto fp = r.u16();
  auto fh = r.lstring();
  auto mf = r.u32();
  auto cp = r.u16();
  auto ch = r.lstring();
  auto sf = r.lstring();
  auto nn = r.u64();
  if (!fp || !fh || !mf || !cp || !ch || !sf || !nn) return std::nullopt;
  b.filter_port = *fp;
  b.filter_host = *fh;
  b.meter_flags = *mf;
  b.control_port = *cp;
  b.control_host = *ch;
  b.stdin_file = *sf;
  b.nonce = *nn;
  return b;
}

std::optional<BatchCreateRequest> parse_batch_create(BinaryReader& r) {
  BatchCreateRequest b;
  auto uid = r.i32();
  auto n = r.u32();
  if (!uid || !n || *n > 4096) return std::nullopt;
  b.uid = *uid;
  for (std::uint32_t i = 0; i < *n; ++i) {
    BatchCreateRequest::Item item;
    auto fn = r.lstring();
    auto np = r.u32();
    if (!fn || !np || *np > 1024) return std::nullopt;
    item.filename = std::move(*fn);
    for (std::uint32_t j = 0; j < *np; ++j) {
      auto p = r.lstring();
      if (!p) return std::nullopt;
      item.params.push_back(std::move(*p));
    }
    b.items.push_back(std::move(item));
  }
  auto fp = r.u16();
  auto fh = r.lstring();
  auto mf = r.u32();
  auto cp = r.u16();
  auto ch = r.lstring();
  auto nn = r.u64();
  if (!fp || !fh || !mf || !cp || !ch || !nn) return std::nullopt;
  b.filter_port = *fp;
  b.filter_host = *fh;
  b.meter_flags = *mf;
  b.control_port = *cp;
  b.control_host = *ch;
  b.nonce = *nn;
  return b;
}

std::optional<std::vector<std::int32_t>> parse_i32_list(BinaryReader& r) {
  auto n = r.u32();
  if (!n || *n > 65536) return std::nullopt;
  std::vector<std::int32_t> out;
  out.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto v = r.i32();
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

std::optional<FilterRequest> parse_filter(BinaryReader& r) {
  FilterRequest b;
  auto uid = r.i32();
  auto ff = r.lstring();
  auto lf = r.lstring();
  auto de = r.lstring();
  auto te = r.lstring();
  auto cp = r.u16();
  auto ch = r.lstring();
  auto nn = r.u64();
  auto mo = r.u8();
  auto ph = r.lstring();
  auto pp = r.u16();
  if (!uid || !ff || !lf || !de || !te || !cp || !ch || !nn || !mo || !ph ||
      !pp || *mo > 2) {
    return std::nullopt;
  }
  b.uid = *uid;
  b.filterfile = *ff;
  b.logfile = *lf;
  b.descriptions = *de;
  b.templates = *te;
  b.control_port = *cp;
  b.control_host = *ch;
  b.nonce = *nn;
  b.mode = *mo;
  b.parent_host = *ph;
  b.parent_port = *pp;
  return b;
}

}  // namespace

std::optional<DaemonMsg> parse(const Bytes& wire) {
  BinaryReader r(wire);
  auto size = r.u32();
  auto type = r.u32();
  if (!size || !type || *size != wire.size()) return std::nullopt;

  switch (static_cast<MsgType>(*type)) {
    case MsgType::create_request:
      return finish(parse_create(r));
    case MsgType::create_reply: {
      CreateReply b;
      auto pid = r.i32();
      auto st = r.i32();
      if (!pid || !st) return std::nullopt;
      b.pid = *pid;
      b.status = *st;
      return DaemonMsg{b};
    }
    case MsgType::filter_request:
      return finish(parse_filter(r));
    case MsgType::filter_reply: {
      FilterReply b;
      auto pid = r.i32();
      auto st = r.i32();
      auto mp = r.u16();
      if (!pid || !st || !mp) return std::nullopt;
      b.pid = *pid;
      b.status = *st;
      b.meter_port = *mp;
      return DaemonMsg{b};
    }
    case MsgType::setflags_request: {
      SetFlagsRequest b;
      auto uid = r.i32();
      auto pid = r.i32();
      auto fl = r.u32();
      if (!uid || !pid || !fl) return std::nullopt;
      b.uid = *uid;
      b.pid = *pid;
      b.flags = *fl;
      return DaemonMsg{b};
    }
    case MsgType::start_request:
    case MsgType::stop_request:
    case MsgType::kill_request:
    case MsgType::release_request:
    case MsgType::status_request: {
      ProcRequest b;
      b.what = static_cast<MsgType>(*type);
      auto uid = r.i32();
      auto pid = r.i32();
      if (!uid || !pid) return std::nullopt;
      b.uid = *uid;
      b.pid = *pid;
      return DaemonMsg{b};
    }
    case MsgType::acquire_request: {
      AcquireRequest b;
      auto uid = r.i32();
      auto pid = r.i32();
      auto fp = r.u16();
      auto fh = r.lstring();
      auto mf = r.u32();
      if (!uid || !pid || !fp || !fh || !mf) return std::nullopt;
      b.uid = *uid;
      b.pid = *pid;
      b.filter_port = *fp;
      b.filter_host = *fh;
      b.meter_flags = *mf;
      return DaemonMsg{b};
    }
    case MsgType::simple_reply: {
      SimpleReply b;
      auto st = r.i32();
      if (!st) return std::nullopt;
      b.status = *st;
      return DaemonMsg{b};
    }
    case MsgType::state_note: {
      StateNote b;
      auto m = r.lstring();
      auto pid = r.i32();
      auto ev = r.u8();
      auto st = r.i32();
      if (!m || !pid || !ev || !st) return std::nullopt;
      b.machine = *m;
      b.pid = *pid;
      b.event = *ev;
      b.status = *st;
      return DaemonMsg{b};
    }
    case MsgType::io_note: {
      IoNote b;
      auto m = r.lstring();
      auto pid = r.i32();
      auto data = r.lstring();
      if (!m || !pid || !data) return std::nullopt;
      b.machine = *m;
      b.pid = *pid;
      b.data = *data;
      return DaemonMsg{b};
    }
    case MsgType::batch_create_request:
      return finish(parse_batch_create(r));
    case MsgType::batch_create_reply: {
      BatchCreateReply b;
      auto nn = r.u64();
      auto pids = parse_i32_list(r);
      auto sts = parse_i32_list(r);
      if (!nn || !pids || !sts || pids->size() != sts->size())
        return std::nullopt;
      b.nonce = *nn;
      b.pids = std::move(*pids);
      b.statuses = std::move(*sts);
      return DaemonMsg{std::move(b)};
    }
    case MsgType::batch_proc_request: {
      BatchProcRequest b;
      auto what = r.u32();
      auto uid = r.i32();
      auto nn = r.u64();
      auto pids = parse_i32_list(r);
      if (!what || !uid || !nn || !pids) return std::nullopt;
      const auto inner = static_cast<MsgType>(*what);
      if (inner != MsgType::start_request && inner != MsgType::stop_request &&
          inner != MsgType::kill_request && inner != MsgType::release_request &&
          inner != MsgType::status_request) {
        return std::nullopt;
      }
      b.what = inner;
      b.uid = *uid;
      b.nonce = *nn;
      b.pids = std::move(*pids);
      return DaemonMsg{std::move(b)};
    }
    case MsgType::batch_proc_reply: {
      BatchProcReply b;
      auto nn = r.u64();
      auto sts = parse_i32_list(r);
      if (!nn || !sts) return std::nullopt;
      b.nonce = *nn;
      b.statuses = std::move(*sts);
      return DaemonMsg{std::move(b)};
    }
    case MsgType::io_send: {
      IoSend b;
      auto uid = r.i32();
      auto pid = r.i32();
      auto data = r.lstring();
      if (!uid || !pid || !data) return std::nullopt;
      b.uid = *uid;
      b.pid = *pid;
      b.data = *data;
      return DaemonMsg{b};
    }
  }
  return std::nullopt;
}

util::SysResult<void> send_msg(kernel::Sys& sys, kernel::Fd fd,
                               const DaemonMsg& m) {
  auto r = sys.send(fd, serialize(m));
  if (!r) return r.error();
  return {};
}

util::SysResult<DaemonMsg> recv_msg(kernel::Sys& sys, kernel::Fd fd) {
  auto head = sys.recv_exact(fd, 4);
  if (!head) return head.error();
  const std::uint32_t size = static_cast<std::uint32_t>((*head)[0]) |
                             static_cast<std::uint32_t>((*head)[1]) << 8 |
                             static_cast<std::uint32_t>((*head)[2]) << 16 |
                             static_cast<std::uint32_t>((*head)[3]) << 24;
  if (size < 8 || size > (1u << 20)) return Err::einval;
  auto rest = sys.recv_exact(fd, size - 4);
  if (!rest) return rest.error();
  Bytes wire = std::move(*head);
  wire.insert(wire.end(), rest->begin(), rest->end());
  auto msg = parse(wire);
  if (!msg) return Err::einval;
  return *msg;
}

namespace {

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

util::SysResult<DaemonMsg> recv_msg(kernel::Sys& sys, kernel::Fd fd,
                                    util::Duration deadline) {
  const util::TimePoint by = sys.world().now() + deadline;
  auto head = recv_exact_by(sys, fd, 4, by);
  if (!head) return head.error();
  const std::uint32_t size = static_cast<std::uint32_t>((*head)[0]) |
                             static_cast<std::uint32_t>((*head)[1]) << 8 |
                             static_cast<std::uint32_t>((*head)[2]) << 16 |
                             static_cast<std::uint32_t>((*head)[3]) << 24;
  if (size < 8 || size > (1u << 20)) return Err::einval;
  auto rest = recv_exact_by(sys, fd, size - 4, by);
  if (!rest) return rest.error();
  Bytes wire = std::move(*head);
  wire.insert(wire.end(), rest->begin(), rest->end());
  auto msg = parse(wire);
  if (!msg) return Err::einval;
  return *msg;
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
