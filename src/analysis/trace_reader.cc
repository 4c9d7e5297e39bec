#include "analysis/trace_reader.h"

#include <bit>
#include <charconv>
#include <cstring>
#include <map>

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

bool is_sep(char c) { return c == ' ' || c == '\t'; }

// Eight bytes at a time: a token's name is found with one load and a few
// word operations, not a branch per byte. x86-64 is little-endian, so the
// first byte of a word is its lowest.
constexpr std::uint64_t kOnes = 0x0101010101010101u;
constexpr std::uint64_t kHighs = 0x8080808080808080u;

std::uint64_t load8(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// The high bit of each byte of `w` at or above its first byte equal to
/// `c`: the lowest set bit marks the first such byte exactly (a borrow
/// only flags bytes after a real match).
std::uint64_t bytes_equal(std::uint64_t w, unsigned char c) {
  const std::uint64_t x = w ^ (kOnes * c);
  return (x - kOnes) & ~x & kHighs;
}

/// Moves `p` to the first separator or '=' at or after it, or to `end`.
void find_name_end(const char*& p, const char* end) {
  for (; end - p >= 8; p += 8) {
    const std::uint64_t w = load8(p);
    const std::uint64_t m =
        bytes_equal(w, '=') | bytes_equal(w, ' ') | bytes_equal(w, '\t');
    if (m != 0) {
      p += std::countr_zero(m) / 8;
      return;
    }
  }
  while (p < end && *p != '=' && !is_sep(*p)) ++p;
}

/// Moves `p` to the end of the token it is in; true when the bytes it
/// passed hold a '%' (an escape to decode).
bool skip_token(const char*& p, const char* end) {
  bool escaped = false;
  for (; p < end && !is_sep(*p); ++p) escaped |= *p == '%';
  return escaped;
}

/// An integer read off a value's bytes.
struct Int {
  std::int64_t value = 0;
  bool ok = false;  // digits were read and their value fits
  /// std::to_chars renders `value` as exactly the bytes read (no leading
  /// zero, no "-0"), so a name's text is already canonical.
  bool canonical = false;
};

/// Reads an optional '-' and a run of decimal digits at `p`, by the rules
/// of std::from_chars for int64_t: no '+', any number of leading zeros, and
/// a run whose value is out of range is no integer. `p` ends past the run.
/// The one integer rule of the trace reader: a value is an integer when
/// this reads it whole.
[[gnu::always_inline]] inline Int read_int(const char*& p, const char* end) {
  const bool neg = p < end && *p == '-';
  if (neg) ++p;
  const char* const digits = p;
  std::uint64_t mag = 0;  // may wrap for a run of 20 digits or more
  for (; p < end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) break;
    mag = mag * 10 + d;
  }
  Int out;
  const auto count = p - digits;
  if (count == 0) return out;
  if (count > 19) {
    // Only a run this long can wrap 64 bits (leading zeros aside): read
    // it again, watching for overflow.
    bool overflow = false;
    mag = 0;
    for (const char* q = digits; q < p; ++q) {
      overflow |= __builtin_mul_overflow(mag, std::uint64_t{10}, &mag);
      overflow |= __builtin_add_overflow(
          mag, std::uint64_t(static_cast<unsigned char>(*q) - '0'), &mag);
    }
    if (overflow) return out;
  }
  constexpr std::uint64_t kMaxMag = std::uint64_t{1} << 63;  // of -2^63
  if (mag > kMaxMag - (neg ? 0 : 1)) return out;
  out.ok = true;
  out.value = static_cast<std::int64_t>(neg ? std::uint64_t{0} - mag : mag);
  out.canonical = (*digits != '0' || count == 1) && !(neg && mag == 0);
  return out;
}

/// Stores a kept field's value: a socket name is interned, canonicalized
/// through its integer value as Record::text renders a value that
/// parse_trace_line stored as an integer ("007" -> "7"); a numeric field
/// takes an integer and ignores anything else.
void apply_field(Event& e, Field f, std::string_view text, const Int& n,
                 NameTable& names) {
  if (const std::size_t slot = name_slot(f); slot < kNameFields) {
    char buf[24];
    if (n.ok && !n.canonical) {
      const auto res = std::to_chars(buf, buf + sizeof buf, n.value);
      text = std::string_view(buf, static_cast<std::size_t>(res.ptr - buf));
    }
    e.*kNameIds[slot] = names.intern(text);
  } else if (n.ok) {
    set_num(e, f, n.value);
  }
}

}  // namespace

/// One left-to-right scan of the line: each token's name up to its '=',
/// then, for a field the Event keeps, its value's integer read in the same
/// pass; the value of any other field is skipped. Only a value holding a
/// '%' is decoded first (into a scratch string) and read again. The only
/// allocations are a socket name's first interning and that scratch.
/// Repeated names resolve as the Record path does: a data field keeps its
/// first value (Record::find), `event` its last (parse_trace_line).
bool parse_trace_event_line(std::string_view line, Event& e, NameTable& names) {
  const char* p = line.data();
  const char* const end = p + line.size();
  std::string_view event_name;
  bool saw_event = false;
  bool event_escaped = false;
  std::uint32_t seen = 0;  // one bit per Field already applied
  std::string scratch;
  while (p < end) {
    if (is_sep(*p)) {
      ++p;
      continue;
    }
    const char* const tok = p;
    find_name_end(p, end);
    if (p == end || *p != '=' || p == tok) return false;  // no name, no '='
    const Field f =
        field_of(std::string_view(tok, static_cast<std::size_t>(p - tok)));
    const char* const value = ++p;
    if (f == Field::event) {
      event_escaped = skip_token(p, end);
      event_name = std::string_view(value, static_cast<std::size_t>(p - value));
      saw_event = true;
      continue;
    }
    if (!claim(seen, f)) {
      (void)skip_token(p, end);
      continue;
    }
    Int n = read_int(p, end);
    if (p < end && !is_sep(*p)) {
      // Not a bare integer: the rest of the token decides.
      n.ok = false;
      if (skip_token(p, end)) {
        scratch = filter::unescape_value(
            std::string_view(value, static_cast<std::size_t>(p - value)));
        const char* q = scratch.data();
        const char* const q_end = q + scratch.size();
        n = read_int(q, q_end);
        n.ok = n.ok && q == q_end;
        apply_field(e, f, scratch, n, names);
        continue;
      }
    }
    apply_field(e, f,
                std::string_view(value, static_cast<std::size_t>(p - value)), n,
                names);
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
  const char* p = text.data();
  const char* const end = p + text.size();
  // One Event per line at most: reserving up front keeps the vector from
  // regrowing (and moving every Event) as a large trace loads.
  const auto next_line = [end](const char* from) {
    const void* nl =
        std::memchr(from, '\n', static_cast<std::size_t>(end - from));
    return nl == nullptr ? end : static_cast<const char*>(nl);
  };
  std::size_t lines = 1;
  for (const char* q = next_line(p); q != end; q = next_line(q + 1)) ++lines;
  out.events.reserve(lines);
  while (p < end) {
    const char* const nl = next_line(p);
    const std::string_view line =
        util::trim(std::string_view(p, static_cast<std::size_t>(nl - p)));
    p = nl == end ? end : nl + 1;
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

ProcessSlots::ProcessSlots(const Trace& trace) {
  const std::size_t n = trace.events.size();
  of_event.resize(n);
  // Provisional ids in order of first appearance. A trace holds runs of
  // one process's events (a meter batch each), so the tree is searched
  // only where the process changes.
  std::map<ProcKey, std::uint32_t> first_seen;
  ProcKey last;
  std::uint32_t last_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ProcKey key = trace.events[i].proc();
    if (i == 0 || key != last) {
      last = key;
      const auto id = static_cast<std::uint32_t>(first_seen.size());
      last_id = first_seen.try_emplace(key, id).first->second;
    }
    of_event[i] = last_id;
  }
  // Renumber in ProcKey order.
  std::vector<std::uint32_t> slot_of(first_seen.size());
  procs.reserve(first_seen.size());
  for (const auto& [key, id] : first_seen) {
    slot_of[id] = static_cast<std::uint32_t>(procs.size());
    procs.push_back(key);
  }
  for (std::uint32_t& s : of_event) s = slot_of[s];
}

}  // namespace dpm::analysis
