#include "analysis/trace_reader.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <set>

#include "util/strings.h"

namespace dpm::analysis {

std::string proc_key_text(const ProcKey& k) {
  return util::strprintf("m%u/p%d", k.machine, k.pid);
}

NameTable& NameTable::operator=(const NameTable& other) {
  if (this == &other) return *this;
  names_ = other.names_;
  ids_.clear();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    ids_.emplace(names_[i], static_cast<NameId>(i + 1));
  }
  return *this;
}

NameId NameTable::intern(std::string_view name) {
  if (name.empty()) return 0;
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const NameId id = static_cast<NameId>(names_.size() + 1);
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

Event RecordEvent::interned(NameTable& names) const {
  Event e = event;
  e.dest_name = names.intern(dest_name);
  e.source_name = names.intern(source_name);
  e.sock_name = names.intern(sock_name);
  e.peer_name = names.intern(peer_name);
  return e;
}

std::optional<RecordEvent> event_from_record(const filter::Record& rec) {
  // Description files name events in caps ("SEND", "RECEIVE").
  const auto type = meter::event_by_name(rec.event_name);
  if (!type) return std::nullopt;
  RecordEvent out;
  Event& e = out.event;
  e.type = *type;
  if (auto v = rec.num("machine")) e.machine = static_cast<std::uint16_t>(*v);
  if (auto v = rec.num("cpuTime")) e.cpu_time = *v;
  if (auto v = rec.num("procTime")) e.proc_time = *v;
  if (auto v = rec.num("pid")) e.pid = static_cast<std::int32_t>(*v);
  if (auto v = rec.num("pc")) e.pc = static_cast<std::uint32_t>(*v);
  if (auto v = rec.num("sock")) e.sock = static_cast<std::uint64_t>(*v);
  if (auto v = rec.num("newSock")) e.new_sock = static_cast<std::uint64_t>(*v);
  if (auto v = rec.num("msgLength")) e.msg_length = static_cast<std::uint32_t>(*v);
  if (auto v = rec.num("newPid")) e.new_pid = static_cast<std::int32_t>(*v);
  if (auto v = rec.num("status")) e.status = static_cast<std::int32_t>(*v);
  if (auto v = rec.text("destName")) out.dest_name = std::move(*v);
  if (auto v = rec.text("sourceName")) out.source_name = std::move(*v);
  if (auto v = rec.text("sockName")) out.sock_name = std::move(*v);
  if (auto v = rec.text("peerName")) out.peer_name = std::move(*v);
  return out;
}

namespace {

/// The bytes the token scan stops at: separators, '=' and '%'.
constexpr auto kSpecial = [] {
  std::array<bool, 256> t{};
  for (const unsigned char c : {' ', '\t', '=', '%'}) t[c] = true;
  return t;
}();

/// The trace fields an Event keeps, plus `event` itself. Every other
/// field name (size, traceType, domain, ...) is `other` and its value is
/// never parsed.
enum class Field : std::uint8_t {
  machine, cpu_time, proc_time, pid, pc, sock, new_sock, msg_length,
  new_pid, status, dest_name, source_name, sock_name, peer_name,
  event, other,
};

Field field_of(std::string_view name) {
  switch (name.front()) {
    case 'c':
      if (name == "cpuTime") return Field::cpu_time;
      break;
    case 'd':
      if (name == "destName") return Field::dest_name;
      break;
    case 'e':
      if (name == "event") return Field::event;
      break;
    case 'm':
      if (name == "machine") return Field::machine;
      if (name == "msgLength") return Field::msg_length;
      break;
    case 'n':
      if (name == "newSock") return Field::new_sock;
      if (name == "newPid") return Field::new_pid;
      break;
    case 'p':
      if (name == "pid") return Field::pid;
      if (name == "pc") return Field::pc;
      if (name == "procTime") return Field::proc_time;
      if (name == "peerName") return Field::peer_name;
      break;
    case 's':
      if (name == "sock") return Field::sock;
      if (name == "status") return Field::status;
      if (name == "sourceName") return Field::source_name;
      if (name == "sockName") return Field::sock_name;
      break;
    default:
      break;
  }
  return Field::other;
}

/// The id of a string field's text. Numeric tokens are canonicalized
/// through their parsed value, as Record::text renders a value that
/// parse_trace_line stored as an integer ("007" -> "7").
NameId intern_text(NameTable& names, std::string_view value) {
  if (const auto n = util::parse_int(value)) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, *n);
    return names.intern(
        std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  }
  return names.intern(value);
}

void apply_field(Event& e, Field f, std::string_view value, NameTable& names) {
  switch (f) {
    case Field::dest_name: e.dest_name = intern_text(names, value); return;
    case Field::source_name: e.source_name = intern_text(names, value); return;
    case Field::sock_name: e.sock_name = intern_text(names, value); return;
    case Field::peer_name: e.peer_name = intern_text(names, value); return;
    default: break;
  }
  const auto num = util::parse_int(value);
  if (!num) return;
  switch (f) {
    case Field::machine: e.machine = static_cast<std::uint16_t>(*num); break;
    case Field::cpu_time: e.cpu_time = *num; break;
    case Field::proc_time: e.proc_time = *num; break;
    case Field::pid: e.pid = static_cast<std::int32_t>(*num); break;
    case Field::pc: e.pc = static_cast<std::uint32_t>(*num); break;
    case Field::sock: e.sock = static_cast<std::uint64_t>(*num); break;
    case Field::new_sock: e.new_sock = static_cast<std::uint64_t>(*num); break;
    case Field::msg_length:
      e.msg_length = static_cast<std::uint32_t>(*num);
      break;
    case Field::new_pid: e.new_pid = static_cast<std::int32_t>(*num); break;
    case Field::status: e.status = static_cast<std::int32_t>(*num); break;
    default: break;
  }
}

}  // namespace

/// One scan per token finds its end, its first '=' and whether its value
/// holds a '%'. The only allocations are a socket name's first interning
/// (and an unescape scratch, for the rare '%'-escaped value). Repeated
/// names resolve as the Record path does: a data field keeps its first
/// value (Record::find), `event` its last (parse_trace_line).
bool parse_trace_event_line(std::string_view line, Event& e, NameTable& names) {
  std::string_view event_name;
  bool saw_event = false;
  bool event_escaped = false;
  std::uint32_t seen = 0;  // one bit per Field already applied
  std::string scratch;
  constexpr std::size_t npos = std::string_view::npos;
  std::size_t pos = 0;
  while (pos < line.size()) {
    if (line[pos] == ' ' || line[pos] == '\t') {
      ++pos;
      continue;
    }
    const std::size_t tok = pos;
    std::size_t eq = npos;
    bool escaped = false;
    for (; pos < line.size(); ++pos) {
      const char c = line[pos];
      if (!kSpecial[static_cast<unsigned char>(c)]) continue;
      if (c == ' ' || c == '\t') break;
      if (c == '=') {
        if (eq == npos) eq = pos;
      } else if (eq != npos) {
        escaped = true;  // a '%' in the value
      }
    }
    if (eq == npos || eq == tok) return false;
    const Field f = field_of(line.substr(tok, eq - tok));
    std::string_view value = line.substr(eq + 1, pos - eq - 1);
    if (f == Field::event) {
      event_name = value;
      event_escaped = escaped;
      saw_event = true;
      continue;
    }
    const std::uint32_t bit = 1u << static_cast<unsigned>(f);
    if (f == Field::other || (seen & bit) != 0) continue;
    seen |= bit;
    if (escaped) {
      scratch = filter::unescape_value(value);
      value = scratch;
    }
    apply_field(e, f, value, names);
  }
  if (!saw_event) return false;
  if (event_escaped) {
    scratch = filter::unescape_value(event_name);
    event_name = scratch;
  }
  const auto t = meter::event_by_name(event_name);
  if (!t) return false;
  e.type = *t;
  return true;
}

Trace read_trace(const std::string& text) {
  Trace out;
  // One Event per line at most: reserving up front keeps the vector from
  // regrowing (and moving every Event) as a large trace loads.
  out.events.reserve(static_cast<std::size_t>(
                         std::count(text.begin(), text.end(), '\n')) + 1);
  const std::string_view sv{text};
  std::size_t start = 0;
  while (start < sv.size()) {
    const std::size_t nl = sv.find('\n', start);
    const std::size_t end = (nl == std::string_view::npos) ? sv.size() : nl;
    const std::string_view line = util::trim(sv.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    Event& e = out.events.emplace_back();
    if (!parse_trace_event_line(line, e, out.names)) {
      out.events.pop_back();
      ++out.malformed;
      continue;
    }
    e.index = out.events.size() - 1;
  }
  return out;
}

std::vector<ProcKey> Trace::processes() const {
  std::set<ProcKey> keys;
  for (const auto& e : events) keys.insert(e.proc());
  return std::vector<ProcKey>(keys.begin(), keys.end());
}

}  // namespace dpm::analysis
