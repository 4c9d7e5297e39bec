#include "filter/descriptions.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "meter/metermsgs.h"
#include "util/strings.h"

namespace dpm::filter {

std::string field_value_text(const FieldValue& v) {
  if (const auto* n = std::get_if<std::int64_t>(&v)) {
    return util::strprintf("%lld", static_cast<long long>(*n));
  }
  return std::get<std::string>(v);
}

std::optional<std::int64_t> field_value_num(const FieldValue& v) {
  if (const auto* n = std::get_if<std::int64_t>(&v)) return *n;
  return util::parse_int(std::get<std::string>(v));
}

std::optional<std::int64_t> field_view_num(const FieldView& v) {
  if (const auto* n = std::get_if<std::int64_t>(&v)) return *n;
  return util::parse_int(std::get<std::string_view>(v));
}

namespace {

/// Renders an integer FieldView into `buf` (sized for any int64) and
/// returns the resulting text view; string views pass through. Rendering
/// matches field_value_text ("%lld").
std::string_view view_text(const FieldView& v, char (&buf)[24]) {
  if (const auto* n = std::get_if<std::int64_t>(&v)) {
    const int len =
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(*n));
    return std::string_view(buf, static_cast<std::size_t>(len));
  }
  return std::get<std::string_view>(v);
}

int sign_of(int cmp) { return cmp < 0 ? -1 : cmp > 0 ? 1 : 0; }

}  // namespace

int field_view_text_cmp(const FieldView& lhs, std::string_view rhs_text) {
  char buf[24];
  return sign_of(view_text(lhs, buf).compare(rhs_text));
}

int field_view_cmp(const FieldView& lhs, const FieldView& rhs) {
  const auto ln = field_view_num(lhs);
  const auto rn = field_view_num(rhs);
  if (ln && rn) return *ln < *rn ? -1 : *ln > *rn ? 1 : 0;
  char buf[24];
  return field_view_text_cmp(lhs, view_text(rhs, buf));
}

const FieldValue* Record::find(const std::string& name) const {
  for (const auto& [n, v] : fields) {
    if (n == name) return &v;
  }
  return nullptr;
}

std::optional<std::int64_t> Record::num(const std::string& name) const {
  const FieldValue* v = find(name);
  if (!v) return std::nullopt;
  return field_value_num(*v);
}

std::optional<std::string> Record::text(const std::string& name) const {
  const FieldValue* v = find(name);
  if (!v) return std::nullopt;
  return field_value_text(*v);
}

namespace {

std::string strip_comment(const std::string& line) {
  auto pos = line.find('#');
  return pos == std::string::npos ? line : line.substr(0, pos);
}

}  // namespace

std::optional<Descriptions> Descriptions::parse(const std::string& text,
                                                DescriptionError* error) {
  using Kind = DescriptionError::Kind;
  Descriptions out;
  int lineno = 0;
  auto fail = [&](Kind kind, std::string message) {
    if (error) *error = DescriptionError{kind, lineno, std::move(message)};
    return std::nullopt;
  };
  for (const auto& raw_line : util::split_keep_empty(text, '\n')) {
    ++lineno;
    const std::string line{util::trim(strip_comment(raw_line))};
    if (line.empty()) continue;

    auto tokens = util::split(line, " \t");
    // The HEADER line names the fixed header fields; their layout is not
    // configurable, so the line is accepted and otherwise ignored.
    if (tokens.empty() || tokens[0] == "HEADER") continue;

    // "SEND 1, pid,0,4,10 pc,4,4,10 ..." — the type number may carry a
    // trailing comma.
    if (tokens.size() < 2) {
      return fail(Kind::syntax,
                  util::strprintf("line %d: missing type number", lineno));
    }
    EventDesc desc;
    desc.name = tokens[0];
    std::string type_tok = tokens[1];
    if (!type_tok.empty() && type_tok.back() == ',') type_tok.pop_back();
    auto type = util::parse_int(type_tok);
    if (!type || *type <= 0 ||
        *type > std::numeric_limits<std::uint32_t>::max()) {
      return fail(Kind::bad_type, util::strprintf("line %d: bad type '%s'",
                                                  lineno, type_tok.c_str()));
    }
    desc.type = static_cast<std::uint32_t>(*type);
    if (out.by_type_.count(desc.type)) {
      return fail(Kind::duplicate_type,
                  util::strprintf("line %d: type %u is already described",
                                  lineno, desc.type));
    }

    for (std::size_t i = 2; i < tokens.size(); ++i) {
      auto parts = util::split_keep_empty(tokens[i], ',');
      if (parts.size() != 4) {
        return fail(Kind::syntax,
                    util::strprintf("line %d: bad field '%s' (want "
                                    "name,offset,len,base)",
                                    lineno, tokens[i].c_str()));
      }
      FieldDesc f;
      f.name = parts[0];
      auto off = util::parse_int(parts[1]);
      auto len = util::parse_int(parts[2]);
      auto base = util::parse_int(parts[3]);
      if (f.name.empty() || !off || *off < 0 || !len || *len < 0 || !base ||
          (*len != 0 && *len != 1 && *len != 2 && *len != 4 && *len != 8)) {
        return fail(Kind::syntax, util::strprintf("line %d: bad field '%s'",
                                                  lineno, tokens[i].c_str()));
      }
      f.offset = static_cast<std::size_t>(*off);
      f.length = static_cast<std::size_t>(*len);
      f.base = static_cast<int>(*base);
      desc.fields.push_back(std::move(f));
    }
    // Every described type must be one the wire-view path can run. Small
    // type numbers' plans land in the dense cache.
    auto plan = WirePlan::build(desc, lineno, error);
    if (!plan) return std::nullopt;
    if (desc.type < kPlanCacheMax) {
      if (out.plan_cache_.size() <= desc.type) {
        out.plan_cache_.resize(desc.type + 1);
      }
      out.plan_cache_[desc.type] = std::move(*plan);
    } else {
      out.plans_.emplace(desc.type, std::move(*plan));
    }
    out.by_type_.emplace(desc.type, std::move(desc));
  }
  if (out.by_type_.empty()) {
    lineno = 0;
    return fail(Kind::empty, "no event descriptions found");
  }
  // Number the plans in ascending type order.
  std::size_t index = 0;
  for (const auto& [t, d] : out.by_type_) {
    (t < kPlanCacheMax ? out.plan_cache_[t] : out.plans_.at(t)).index_ =
        index++;
  }
  return out;
}

const EventDesc* Descriptions::by_type(std::uint32_t type) const {
  auto it = by_type_.find(type);
  return it == by_type_.end() ? nullptr : &it->second;
}

std::vector<std::uint32_t> Descriptions::types() const {
  std::vector<std::uint32_t> out;
  out.reserve(by_type_.size());
  for (const auto& [t, d] : by_type_) out.push_back(t);
  return out;
}

std::vector<std::string> Descriptions::record_layout(std::uint32_t type) const {
  const WirePlan* plan = wire_plan(type);
  return plan ? plan->field_names() : std::vector<std::string>{};
}

const EventDesc* Descriptions::by_name(const std::string& name) const {
  for (const auto& [t, d] : by_type_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

namespace {

/// The meter header as the filter reads it: name, offset and width of
/// each field of meter::MeterHeader::fields, in wire order. The filter
/// calls traceType `type`, as Fig 3.3's rules and every log line do
/// ("type=1"); that rename is the table's one departure from the list.
struct HeaderField {
  std::string_view name;
  std::size_t offset = 0;
  std::size_t width = 0;
};
constexpr auto kHeaderFields = [] {
  std::array<HeaderField, 5> out{};  // at() fails to compile past the end
  meter::MeterHeader h;
  std::size_t i = 0;
  std::size_t offset = 0;
  meter::MeterHeader::fields(h, [&](std::string_view name, auto& v) {
    out.at(i++) = {name == "traceType" ? "type" : name, offset, sizeof v};
    offset += sizeof v;
  });
  return out;
}();
constexpr HeaderField kSizeWord = kHeaderFields.front();
constexpr HeaderField kTypeWord = kHeaderFields.back();
static_assert(kSizeWord.name == "size" && kTypeWord.name == "type" &&
              kTypeWord.offset + kTypeWord.width == meter::kHeaderSize);

// Both readers are `inline` because every framed record and rendered
// field runs them: without the hint GCC -O2 leaves the loop out of line,
// one call per integer field.

/// The little-endian integer of `len` (1..8) bytes at `p`, which the
/// caller has bounds-checked.
inline std::int64_t le_value(const std::uint8_t* p, std::size_t len) {
  std::uint64_t v = 0;
  for (std::size_t i = len; i-- > 0;) v = (v << 8) | p[i];
  // Fields are signed, as in the paper's C structs (a killed process's
  // termproc status is -1): sign-extend sub-8-byte widths.
  if (len < 8 && (v & (1ULL << (8 * len - 1)))) {
    v |= ~((1ULL << (8 * len)) - 1);
  }
  return static_cast<std::int64_t>(v);
}

inline std::optional<std::int64_t> read_le(const std::uint8_t* raw,
                                           std::size_t size, std::size_t at,
                                           std::size_t len) {
  if (at > size || size - at < len) return std::nullopt;
  return le_value(raw + at, len);
}

/// True when `len` more bytes fit at `cursor` (overflow-safe: a counted
/// string's length can be any non-negative int64).
bool string_fits(std::size_t cursor, std::int64_t len, std::size_t size) {
  return cursor <= size &&
         static_cast<std::uint64_t>(len) <= static_cast<std::uint64_t>(size - cursor);
}

}  // namespace

std::optional<RecordView> make_record_view(const std::uint8_t* data,
                                           std::size_t size) {
  if (size < meter::kHeaderSize) return std::nullopt;
  const auto wire_size = read_le(data, size, kSizeWord.offset, kSizeWord.width);
  if (static_cast<std::size_t>(*wire_size) != size) return std::nullopt;
  RecordView v;
  v.data = data;
  v.size = size;
  v.type = static_cast<std::uint32_t>(
      *read_le(data, size, kTypeWord.offset, kTypeWord.width));
  return v;
}

std::optional<Record> Descriptions::decode(const util::Bytes& raw) const {
  return decode(raw.data(), raw.size());
}

std::optional<Record> Descriptions::decode(const std::uint8_t* raw,
                                           std::size_t size) const {
  const auto view = make_record_view(raw, size);
  if (!view) return std::nullopt;
  const EventDesc* desc = by_type(view->type);
  if (!desc) return std::nullopt;
  Record rec;
  rec.type = view->type;
  rec.event_name = desc->name;
  // In bounds: make_record_view checked the record holds a whole header.
  for (const HeaderField& h : kHeaderFields) {
    rec.fields.emplace_back(h.name, *read_le(raw, size, h.offset, h.width));
  }

  const std::size_t body = meter::kHeaderSize;
  // Counted strings are laid out back to back starting at the first
  // string field's offset; `cursor` tracks where the next one begins.
  std::size_t cursor = 0;
  bool cursor_set = false;
  for (const FieldDesc& f : desc->fields) {
    if (f.length > 0) {
      auto v = read_le(raw, size, body + f.offset, f.length);
      if (!v) return std::nullopt;
      rec.fields.emplace_back(f.name, *v);
      continue;
    }
    auto len = rec.num(f.name + "Len");
    if (!len || *len < 0) return std::nullopt;
    if (!cursor_set) {
      cursor = body + f.offset;
      cursor_set = true;
    }
    if (!string_fits(cursor, *len, size)) return std::nullopt;
    std::string s(reinterpret_cast<const char*>(raw + cursor),
                  static_cast<std::size_t>(*len));
    cursor += static_cast<std::size_t>(*len);
    rec.fields.emplace_back(f.name, std::move(s));
  }
  return rec;
}

// ---- WirePlan ----

std::optional<WirePlan> WirePlan::build(const EventDesc& desc, int line,
                                        DescriptionError* error) {
  using Kind = DescriptionError::Kind;
  auto fail = [&](Kind kind, const std::string& what) {
    if (error) {
      *error = DescriptionError{
          kind, line,
          util::strprintf("line %d: %s %s", line, desc.name.c_str(),
                          what.c_str())};
    }
    return std::nullopt;
  };
  const std::size_t fields = kHeaderFields.size() + desc.fields.size();
  if (fields > kMaxFields) {
    return fail(Kind::too_many_fields,
                util::strprintf("has %zu fields; at most %zu fit the view "
                                "renderer",
                                fields, kMaxFields));
  }
  WirePlan plan;
  plan.event_name_ = desc.name;
  // The fixed header fields first, as decode() lays them out.
  for (const HeaderField& h : kHeaderFields) {
    plan.names_.emplace_back(h.name);
    plan.fields_.push_back(Loc{h.offset, h.width, -1, 0});
  }
  for (const FieldDesc& f : desc.fields) {
    // A repeated name would let a comparison read only the first such
    // field while '#' drops them all.
    if (const std::size_t i = plan.index_of(f.name);
        i != static_cast<std::size_t>(-1)) {
      return fail(Kind::duplicate_field,
                  util::strprintf(i < kHeaderFields.size()
                                      ? "names header field '%s' in its body"
                                      : "names field '%s' twice",
                                  f.name.c_str()));
    }
    Loc loc;
    if (f.length > 0) {
      loc.offset = meter::kHeaderSize + f.offset;
      loc.length = f.length;
    } else {
      if (plan.strings_.size() == kMaxStringFields) {
        return fail(Kind::too_many_strings,
                    util::strprintf("has more than %zu counted strings",
                                    kMaxStringFields));
      }
      // decode() resolves the byte count from the *already decoded* field
      // named "<name>Len", an earlier layout field. Without one, decode()
      // fails every record of the type.
      const std::size_t len_field = plan.index_of(f.name + "Len");
      if (len_field == static_cast<std::size_t>(-1)) {
        return fail(Kind::missing_length,
                    util::strprintf("counted string '%s' has no earlier "
                                    "'%sLen' field",
                                    f.name.c_str(), f.name.c_str()));
      }
      loc.ordinal = static_cast<int>(plan.strings_.size());
      if (plan.strings_.empty()) {
        plan.string_base_ = meter::kHeaderSize + f.offset;
      }
      loc.len_field = len_field;
      plan.strings_.push_back(plan.fields_.size());
    }
    plan.names_.push_back(f.name);
    plan.fields_.push_back(loc);
  }
  // One bound covering every integer field: a record at least this long
  // passes every fixed-field bounds check, so validate() compares once
  // instead of walking the field list per record.
  for (const Loc& f : plan.fields_) {
    if (f.length > 0 && f.offset + f.length > plan.fixed_end_) {
      plan.fixed_end_ = f.offset + f.length;
    }
  }
  plan.name_eq_.reserve(plan.names_.size());
  for (const std::string& n : plan.names_) {
    plan.name_eq_.push_back(" " + n + "=");
  }
  return plan;
}

std::size_t WirePlan::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return static_cast<std::size_t>(-1);
}

bool WirePlan::string_views(const RecordView& v, int k,
                            std::string_view* out) const {
  std::size_t cursor = string_base_;
  for (int j = 0; j <= k; ++j) {
    const Loc& lf = fields_[fields_[strings_[static_cast<std::size_t>(j)]].len_field];
    std::int64_t len;
    if (lf.length > 0) {
      auto val = read_le(v.data, v.size, lf.offset, lf.length);
      if (!val) return false;
      len = *val;
    } else {
      // The length field is itself an earlier counted string; its text
      // must parse as an integer (field_value_num semantics in decode()).
      auto n = util::parse_int(out[lf.ordinal]);
      if (!n) return false;
      len = *n;
    }
    if (len < 0 || !string_fits(cursor, len, v.size)) return false;
    out[j] = std::string_view(reinterpret_cast<const char*>(v.data) + cursor,
                              static_cast<std::size_t>(len));
    cursor += static_cast<std::size_t>(len);
  }
  return true;
}

std::optional<FieldView> WirePlan::field(const RecordView& v, std::size_t i,
                                         const std::string_view* strings) const {
  if (i >= fields_.size()) return std::nullopt;
  const Loc& f = fields_[i];
  if (f.length > 0) {
    auto val = read_le(v.data, v.size, f.offset, f.length);
    if (!val) return std::nullopt;
    return FieldView{*val};
  }
  if (strings != nullptr) return FieldView{strings[f.ordinal]};
  std::string_view scratch[kMaxStringFields];
  if (!string_views(v, f.ordinal, scratch)) return std::nullopt;
  return FieldView{scratch[f.ordinal]};
}

bool WirePlan::validate(const RecordView& v) const {
  std::string_view scratch[kMaxStringFields];
  return validate(v, scratch);
}

bool WirePlan::validate(const RecordView& v, std::string_view* strings) const {
  if (!make_record_view(v.data, v.size) || v.size < fixed_end_) return false;
  if (strings_.empty()) return true;
  return string_views(v, static_cast<int>(strings_.size()) - 1, strings);
}

bool WirePlan::extract(const RecordView& v, FieldView* out, std::size_t cap,
                       const std::string_view* strings) const {
  if (fields_.size() > cap) return false;
  if (v.size < fixed_end_) return false;
  std::string_view scratch[kMaxStringFields];
  if (strings == nullptr) {
    if (!strings_.empty() &&
        !string_views(v, static_cast<int>(strings_.size()) - 1, scratch)) {
      return false;
    }
    strings = scratch;
  }
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const Loc& f = fields_[i];
    if (f.length > 0) {
      // In bounds by the fixed_end_ check above.
      out[i] = FieldView{le_value(v.data + f.offset, f.length)};
    } else {
      out[i] = FieldView{strings[f.ordinal]};
    }
  }
  return true;
}

const WirePlan* Descriptions::wire_plan(std::uint32_t type) const {
  if (type < plan_cache_.size()) {
    const WirePlan& plan = plan_cache_[type];
    return plan.field_count() != 0 ? &plan : nullptr;
  }
  auto it = plans_.find(type);
  return it == plans_.end() ? nullptr : &it->second;
}

const std::string& default_descriptions_text() {
  static const std::string text = R"(# Standard meter event record descriptions (cf. paper Fig 3.2).
# Format: NAME type, field,offset,length,base ... ; offsets are relative to
# the record body; length 0 / base 0 marks a counted string whose byte
# count is the earlier <name>Len field.
HEADER size machine cpuTime procTime traceType
SEND 1, pid,0,4,10 pc,4,4,10 sock,8,8,10 msgLength,16,4,10 destNameLen,20,4,10 destName,24,0,0
RECEIVE 2, pid,0,4,10 pc,4,4,10 sock,8,8,10 msgLength,16,4,10 sourceNameLen,20,4,10 sourceName,24,0,0
RECVCALL 3, pid,0,4,10 pc,4,4,10 sock,8,8,10
SOCKET 4, pid,0,4,10 pc,4,4,10 sock,8,8,10 domain,16,4,10 socktype,20,4,10 protocol,24,4,10
DUP 5, pid,0,4,10 pc,4,4,10 sock,8,8,10 newSock,16,8,10
DESTSOCK 6, pid,0,4,10 pc,4,4,10 sock,8,8,10
FORK 7, pid,0,4,10 pc,4,4,10 newPid,8,4,10
ACCEPT 8, pid,0,4,10 pc,4,4,10 sock,8,8,10 newSock,16,8,10 sockNameLen,24,4,10 peerNameLen,28,4,10 sockName,32,0,0 peerName,32,0,0
CONNECT 9, pid,0,4,10 pc,4,4,10 sock,8,8,10 sockNameLen,16,4,10 peerNameLen,20,4,10 sockName,24,0,0 peerName,24,0,0
TERMPROC 10, pid,0,4,10 pc,4,4,10 status,8,4,10
)";
  return text;
}

}  // namespace dpm::filter
