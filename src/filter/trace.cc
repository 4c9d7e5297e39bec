#include "filter/trace.h"

#include <charconv>

#include "meter/metermsgs.h"
#include "util/strings.h"

namespace dpm::filter {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  // Bulk-append runs of clean characters; escapable bytes (rare — no
  // event name or socket name contains them today) render as the same
  // lowercase "%xx" that strprintf("%%%02x") produced.
  constexpr char kHex[] = "0123456789abcdef";
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (ch == ' ' || ch == '%' || ch == '\n' || ch == '=') {
      out.append(s.data() + start, i - start);
      const auto u = static_cast<unsigned char>(ch);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
      start = i + 1;
    }
  }
  out.append(s.data() + start, s.size() - start);
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string unescape_value(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_digit(s[i + 1]);
      const int lo = hex_digit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi << 4 | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

std::string trace_line(const Record& rec, const std::set<std::string>& discard) {
  std::string out = "event=" + rec.event_name;
  for (const auto& [name, value] : rec.fields) {
    if (discard.count(name)) continue;
    out += ' ';
    out += name;
    out += '=';
    out += escape(field_value_text(value));
  }
  out += '\n';
  return out;
}

bool trace_line_view(const WirePlan& plan, const RecordView& v,
                     const std::vector<bool>* discard_mask,
                     const std::string_view* strings, std::string& out) {
  FieldView fields[WirePlan::kMaxFields];
  if (!plan.extract(v, fields, WirePlan::kMaxFields, strings)) return false;
  const std::vector<std::string>& name_eq = plan.name_eq();
  out += "event=";
  out += plan.event_name();
  for (std::size_t i = 0; i < plan.field_count(); ++i) {
    if (discard_mask && i < discard_mask->size() && (*discard_mask)[i]) continue;
    out += name_eq[i];
    if (const auto* n = std::get_if<std::int64_t>(&fields[i])) {
      // to_chars renders the same digits as the owned path's "%lld".
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, *n);
      out.append(buf, res.ptr);
    } else {
      append_escaped(out, std::get<std::string_view>(fields[i]));
    }
  }
  out += '\n';
  return true;
}

std::optional<Record> parse_trace_line(const std::string& line) {
  const std::string trimmed{util::trim(line)};
  if (trimmed.empty() || trimmed[0] == '#') return std::nullopt;
  Record rec;
  for (const auto& tok : util::split(trimmed, " \t")) {
    auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    const std::string name = tok.substr(0, eq);
    const std::string value =
        unescape_value(std::string_view(tok).substr(eq + 1));
    if (name == "event") {
      rec.event_name = value;
      continue;
    }
    if (auto n = util::parse_int(value)) {
      rec.fields.emplace_back(name, *n);
    } else {
      rec.fields.emplace_back(name, value);
    }
  }
  if (rec.event_name.empty()) return std::nullopt;
  if (auto t = rec.num("type")) rec.type = static_cast<std::uint32_t>(*t);
  return rec;
}

ParsedTrace parse_trace(const std::string& text) {
  ParsedTrace out;
  for (const auto& line : util::split_keep_empty(text, '\n')) {
    const std::string t{util::trim(line)};
    if (t.empty() || t[0] == '#') continue;
    auto rec = parse_trace_line(t);
    if (rec) {
      out.records.push_back(std::move(*rec));
    } else {
      ++out.malformed;
    }
  }
  return out;
}

std::string log_path_for(const std::string& filter_name) {
  return "/usr/tmp/" + filter_name + ".log";
}

}  // namespace dpm::filter
