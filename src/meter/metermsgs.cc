#include "meter/metermsgs.h"

#include <algorithm>
#include <type_traits>

#include "meter/meterflags.h"
#include "util/strings.h"

namespace dpm::meter {

namespace {

struct FlagName {
  const char* name;
  Flags flag;
};

constexpr FlagName kFlagNames[] = {
    {"send", M_SEND},       {"receivecall", M_RECEIVECALL},
    {"receive", M_RECEIVE}, {"socket", M_SOCKET},
    {"dup", M_DUP},         {"destsocket", M_DESTSOCKET},
    {"fork", M_FORK},       {"accept", M_ACCEPT},
    {"connect", M_CONNECT}, {"termproc", M_TERMPROC},
    {"immediate", M_IMMEDIATE},
};

}  // namespace

std::optional<Flags> flag_by_name(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "all") return M_ALL;
  for (const auto& fn : kFlagNames) {
    if (lower == fn.name) return fn.flag;
  }
  return std::nullopt;
}

std::string flags_to_string(Flags flags) {
  std::string out;
  for (const auto& fn : kFlagNames) {
    if (flags & fn.flag) {
      if (!out.empty()) out += ' ';
      out += fn.name;
    }
  }
  if (out.empty()) out = "none";
  return out;
}

const std::vector<std::string>& flag_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& fn : kFlagNames) v.emplace_back(fn.name);
    v.emplace_back("all");
    return v;
  }();
  return names;
}

namespace {

/// The single source of truth for event-type names: both event_name and
/// event_by_name derive from it, so adding an event type cannot leave the
/// reverse lookup silently truncated.
struct EventTypeName {
  EventType type;
  std::string_view name;
};

constexpr EventTypeName kEventTypeNames[] = {
    {EventType::send, "send"},         {EventType::recv, "recv"},
    {EventType::recvcall, "recvcall"}, {EventType::sockcrt, "sockcrt"},
    {EventType::dup, "dup"},           {EventType::destsock, "destsock"},
    {EventType::fork, "fork"},         {EventType::accept, "accept"},
    {EventType::connect, "connect"},   {EventType::termproc, "termproc"},
    // The standard description file's names for two types (Fig 3.2),
    // accepted as input; event_name gives the first spelling above.
    {EventType::recv, "receive"},      {EventType::sockcrt, "socket"},
};

/// ASCII case-insensitive equality with an all-lowercase name.
bool equals_ignoring_case(std::string_view s, std::string_view lower) {
  return std::ranges::equal(s, lower, [](char c, char l) {
    return (c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c) == l;
  });
}

}  // namespace

std::string_view event_name(EventType t) {
  for (const auto& e : kEventTypeNames) {
    if (e.type == t) return e.name;
  }
  return "unknown";
}

std::optional<EventType> event_by_name(std::string_view name) {
  for (const auto& e : kEventTypeNames) {
    if (equals_ignoring_case(name, e.name)) return e.type;
  }
  return std::nullopt;
}

namespace {

// The four codecs, each a visitor over a struct's fields() list.

template <typename T>
constexpr bool kIsNamePair = false;
template <typename S>
constexpr bool kIsNamePair<NamePair<S>> = true;

struct Put {
  util::BinaryWriter& w;
  template <typename T>
  void operator()(const char*, const T& v) const {
    if constexpr (kIsNamePair<T>) {
      w.u32(static_cast<std::uint32_t>(v.sock_name.size()));
      w.u32(static_cast<std::uint32_t>(v.peer_name.size()));
      w.raw(reinterpret_cast<const std::uint8_t*>(v.sock_name.data()),
            v.sock_name.size());
      w.raw(reinterpret_cast<const std::uint8_t*>(v.peer_name.data()),
            v.peer_name.size());
    } else {
      w.put(v);
    }
  }
};

struct Size {
  std::size_t& n;
  template <typename T>
  void operator()(const char*, const T& v) const {
    if constexpr (kIsNamePair<T>) {
      n += 8 + v.sock_name.size() + v.peer_name.size();
    } else if constexpr (std::is_same_v<T, std::string>) {
      n += 4 + v.size();
    } else {
      n += sizeof(T);
    }
  }
};

struct Get {
  util::BinaryReader& r;
  template <typename T>
  void operator()(const char*, T&& v) const {
    if constexpr (kIsNamePair<std::decay_t<T>>) {
      std::uint32_t sn = 0;
      std::uint32_t pn = 0;
      if (!r.get(sn) || !r.get(pn)) return;
      auto s = r.raw(sn);
      auto p = r.raw(pn);
      if (!s || !p) return;
      v.sock_name.assign(s->begin(), s->end());
      v.peer_name.assign(p->begin(), p->end());
    } else {
      (void)r.get(v);  // a failed read leaves the reader failed
    }
  }
};

struct Print {
  std::string& out;
  template <typename T>
  void operator()(const char* label, const T& v) const {
    if constexpr (kIsNamePair<T>) {
      out += " sockName=" + v.sock_name + " peerName=" + v.peer_name;
    } else if constexpr (std::is_same_v<T, std::string>) {
      out += util::strprintf(" %s=%s", label, v.c_str());
    } else if constexpr (std::is_signed_v<T>) {
      out += util::strprintf(" %s=%lld", label, static_cast<long long>(v));
    } else {
      out += util::strprintf(" %s=%llu", label,
                             static_cast<unsigned long long>(v));
    }
  }
};

/// Runs `f` over the fields of whichever body `body` holds.
template <typename Body, typename F>
void visit_fields(Body& body, F f) {
  std::visit([&](auto& b) { std::decay_t<decltype(b)>::fields(b, f); }, body);
}

/// A default body of type `t`; nullopt for a number that is no event type.
std::optional<MeterBody> body_of(EventType t) {
  return util::alternative_of<MeterBody>(t);
}

}  // namespace

MeterMsg make_msg(EventType t) {
  MeterMsg m;
  if (auto body = body_of(t)) m.body = std::move(*body);
  m.header.trace_type = t;
  return m;
}

EventType MeterMsg::type() const {
  return std::visit([](const auto& b) { return b.kType; }, body);
}

Pid MeterMsg::pid() const {
  return std::visit([](const auto& b) { return b.pid; }, body);
}

util::Bytes MeterMsg::serialize() const {
  util::Bytes out;
  serialize_into(out);
  return out;
}

void MeterMsg::serialize_into(util::Bytes& out) const {
  // One resize for the whole record, then a span encode into it: the
  // append-mode writer would grow `out` once per value, and this sits on
  // the per-event emit path. wire_size() is exact (property-tested), but
  // a mismatch must never corrupt the batch, so re-encode in append mode
  // if the span encode does not land exactly on the precomputed size.
  const std::size_t at = out.size();
  const std::size_t n = wire_size();
  out.resize(at + n);
  util::BinaryWriter w(out.data() + at, n);
  encode_into(w);
  if (!w.ok() || w.size() != n) {
    out.resize(at);
    util::BinaryWriter fallback(out);
    encode_into(fallback);
  }
}

void MeterMsg::encode_into(util::BinaryWriter& w) const {
  // The size word is back-patched; the type word comes from the body.
  const MeterHeader h{0, header.machine, header.cpu_time, header.proc_time,
                      type()};
  MeterHeader::fields(h, Put{w});
  visit_fields(body, Put{w});
  w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
}

std::size_t MeterMsg::wire_size() const {
  std::size_t n = kHeaderSize;
  visit_fields(body, Size{n});
  return n;
}

std::optional<MeterMsg> MeterMsg::parse(const util::Bytes& wire) {
  std::size_t pos = 0;
  auto msg = parse_stream(wire, pos);
  if (!msg || pos != wire.size()) return std::nullopt;
  return msg;
}

std::optional<MeterMsg> MeterMsg::parse_stream(const util::Bytes& wire,
                                               std::size_t& pos) {
  if (wire.size() - pos < kHeaderSize) return std::nullopt;
  util::BinaryReader r(wire.data() + pos, wire.size() - pos);
  MeterMsg msg;
  MeterHeader::fields(msg.header, Get{r});
  const std::uint32_t size = msg.header.size;
  if (!r.ok() || size < kHeaderSize || wire.size() - pos < size) {
    return std::nullopt;
  }
  auto body = body_of(msg.header.trace_type);
  if (!body) return std::nullopt;
  msg.body = std::move(*body);
  // The body ends exactly where the size word says: a record holds its
  // fields and nothing after them.
  util::BinaryReader br(wire.data() + pos + kHeaderSize, size - kHeaderSize);
  visit_fields(msg.body, Get{br});
  if (!br.ok() || br.remaining() != 0) return std::nullopt;
  pos += size;
  return msg;
}

std::string MeterMsg::pretty() const {
  std::string out = util::strprintf(
      "%-8s machine=%u cpuTime=%lld procTime=%lld",
      std::string(event_name(type())).c_str(), header.machine,
      static_cast<long long>(header.cpu_time),
      static_cast<long long>(header.proc_time));
  visit_fields(body, Print{out});
  return out;
}

}  // namespace dpm::meter
