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

namespace {

/// The bytes the token scan stops at: separators, '=' and '%'.
constexpr auto kSpecial = [] {
  std::array<bool, 256> t{};
  for (const unsigned char c : {' ', '\t', '=', '%'}) t[c] = true;
  return t;
}();

/// The trace fields an Event keeps, plus `event` itself. Every other
/// field name (size, traceType, domain, ...) is `other` and its value is
/// never parsed. The four socket names come last, in the order every
/// converter interns them.
enum class Field : std::uint8_t {
  machine, cpu_time, proc_time, pid, pc, sock, new_sock, msg_length,
  new_pid, status, dest_name, source_name, sock_name, peer_name,
  event, other,
};

// Every field of every event runs field_of and set_num, from three
// converters. Called from three places, GCC -O2 leaves them out of line,
// one call per field, and read_trace slowed by about 15%; set_num inlines
// when declared `inline`, field_of only when forced.

/// The one field-name table of the three Event converters (trace text,
/// Record, wire view).
[[gnu::always_inline]] inline Field field_of(std::string_view name) {
  if (name.empty()) return Field::other;
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

constexpr std::size_t kNameFields = 4;

/// A socket-name field's slot (0..3: dest, source, sock, peer), or
/// kNameFields for a field that is not a name.
std::size_t name_slot(Field f) {
  const auto slot = static_cast<std::size_t>(f) -
                    static_cast<std::size_t>(Field::dest_name);
  return slot < kNameFields ? slot : kNameFields;
}

constexpr NameId Event::*kNameIds[kNameFields] = {
    &Event::dest_name, &Event::source_name, &Event::sock_name,
    &Event::peer_name};

/// True the first time a record or line names `f`: a repeated data field
/// keeps its first value, as Record::find does. `event` and `other`
/// fields are never claimed.
bool claim(std::uint32_t& seen, Field f) {
  if (f == Field::event || f == Field::other) return false;
  const std::uint32_t bit = 1u << static_cast<unsigned>(f);
  if ((seen & bit) != 0) return false;
  seen |= bit;
  return true;
}

/// Stores a numeric field's value (a name field is not numeric).
inline void set_num(Event& e, Field f, std::int64_t n) {
  switch (f) {
    case Field::machine: e.machine = static_cast<std::uint16_t>(n); break;
    case Field::cpu_time: e.cpu_time = n; break;
    case Field::proc_time: e.proc_time = n; break;
    case Field::pid: e.pid = static_cast<std::int32_t>(n); break;
    case Field::pc: e.pc = static_cast<std::uint32_t>(n); break;
    case Field::sock: e.sock = static_cast<std::uint64_t>(n); break;
    case Field::new_sock: e.new_sock = static_cast<std::uint64_t>(n); break;
    case Field::msg_length: e.msg_length = static_cast<std::uint32_t>(n); break;
    case Field::new_pid: e.new_pid = static_cast<std::int32_t>(n); break;
    case Field::status: e.status = static_cast<std::int32_t>(n); break;
    default: break;
  }
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
  if (const std::size_t slot = name_slot(f); slot < kNameFields) {
    e.*kNameIds[slot] = intern_text(names, value);
  } else if (const auto num = util::parse_int(value)) {
    set_num(e, f, *num);
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
    if (!claim(seen, f)) continue;
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

std::optional<RecordEvent> event_from_record(const filter::Record& rec) {
  // Description files name events in caps ("SEND", "RECEIVE").
  const auto type = meter::event_by_name(rec.event_name);
  if (!type) return std::nullopt;
  constexpr std::string RecordEvent::*kNameTexts[kNameFields] = {
      &RecordEvent::dest_name, &RecordEvent::source_name,
      &RecordEvent::sock_name, &RecordEvent::peer_name};
  RecordEvent out;
  out.event.type = *type;
  std::uint32_t seen = 0;
  for (const auto& [name, value] : rec.fields) {
    const Field f = field_of(name);
    if (!claim(seen, f)) continue;
    if (const std::size_t slot = name_slot(f); slot < kNameFields) {
      out.*kNameTexts[slot] = filter::field_value_text(value);
    } else if (const auto num = filter::field_value_num(value)) {
      set_num(out.event, f, *num);
    }
  }
  return out;
}

std::optional<Event> event_from_view(const filter::RecordView& v,
                                     const filter::WirePlan& plan,
                                     const std::string_view* strings,
                                     NameTable& names) {
  const auto type = meter::event_by_name(plan.event_name());
  if (!type) return std::nullopt;
  filter::FieldView fields[filter::WirePlan::kMaxFields];
  if (!plan.extract(v, fields, std::size(fields), strings)) return std::nullopt;
  Event e;
  e.type = *type;
  // A name field holding an integer is rendered as Record::text renders
  // it, into its slot's buffer.
  std::string_view texts[kNameFields];
  char digits[kNameFields][24];
  std::uint32_t seen = 0;
  const std::vector<std::string>& field_names = plan.field_names();
  for (std::size_t i = 0; i < plan.field_count(); ++i) {
    const Field f = field_of(field_names[i]);
    if (!claim(seen, f)) continue;
    const std::size_t slot = name_slot(f);
    if (slot == kNameFields) {
      if (const auto num = filter::field_view_num(fields[i])) {
        set_num(e, f, *num);
      }
    } else if (const auto* n = std::get_if<std::int64_t>(&fields[i])) {
      char* const buf = digits[slot];
      const auto res = std::to_chars(buf, buf + sizeof digits[slot], *n);
      texts[slot] = std::string_view(buf, static_cast<std::size_t>(res.ptr - buf));
    } else {
      texts[slot] = std::get<std::string_view>(fields[i]);
    }
  }
  // Interned in RecordEvent::interned's order, so both converters hand a
  // table the same ids.
  for (std::size_t slot = 0; slot < kNameFields; ++slot) {
    e.*kNameIds[slot] = names.intern(texts[slot]);
  }
  return e;
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
