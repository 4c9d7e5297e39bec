#include "analysis/predicates/predicate.h"

#include <algorithm>
#include <array>

#include "util/strings.h"

namespace dpm::analysis::pred {
namespace {

/// The state-field universe: every Event member the standard meter can
/// carry, named as the trace/description files name them, plus `type`.
/// Order is the FieldId assignment.
struct FieldInfo {
  std::string_view name;
  bool numeric;
};
constexpr std::array<FieldInfo, 15> kFields = {{
    {"type", false},  // event name; numeric spec values resolve at compile
    {"machine", true},
    {"cpuTime", true},
    {"procTime", true},
    {"pid", true},
    {"pc", true},
    {"sock", true},
    {"newSock", true},
    {"msgLength", true},
    {"newPid", true},
    {"status", true},
    {"destName", false},
    {"sourceName", false},
    {"sockName", false},
    {"peerName", false},
}};

bool set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

std::optional<filter::CmpOp> parse_op(std::string_view tok) {
  if (tok == "=") return filter::CmpOp::eq;
  if (tok == "!=") return filter::CmpOp::ne;
  if (tok == "<") return filter::CmpOp::lt;
  if (tok == ">") return filter::CmpOp::gt;
  if (tok == "<=") return filter::CmpOp::le;
  if (tok == ">=") return filter::CmpOp::ge;
  return std::nullopt;
}

/// Splits "field OP value" at the first operator character.
std::optional<StateClause> parse_clause(std::string_view text,
                                        std::string* error) {
  const std::size_t op_at = text.find_first_of("=!<>");
  if (op_at == std::string_view::npos || op_at == 0) {
    set_error(error, "clause '" + std::string(text) +
                         "' lacks an operator (=, !=, <, >, <=, >=)");
    return std::nullopt;
  }
  std::size_t op_len = 1;
  if (op_at + 1 < text.size() && text[op_at + 1] == '=') op_len = 2;
  const auto op = parse_op(text.substr(op_at, op_len));
  if (!op) {
    set_error(error, "bad operator in clause '" + std::string(text) + "'");
    return std::nullopt;
  }
  StateClause c;
  c.field = std::string(util::trim(text.substr(0, op_at)));
  c.op = *op;
  const std::string value{util::trim(text.substr(op_at + op_len))};
  if (value.empty()) {
    set_error(error, "clause '" + std::string(text) + "' lacks a value");
    return std::nullopt;
  }
  if (value == "*") {
    if (c.op != filter::CmpOp::eq) {
      set_error(error, "wildcard '*' is only meaningful with '='");
      return std::nullopt;
    }
    c.wildcard = true;
  } else {
    c.value = value;
  }
  return c;
}

/// "<machine>:<pid>", "<machine>:*", or "*". The leading '@' is the
/// caller's.
std::optional<ProcSelector> parse_selector(std::string_view text,
                                           std::string* error) {
  ProcSelector sel;
  if (text == "*") return sel;
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    set_error(error, "selector '@" + std::string(text) +
                         "' is not machine:pid, machine:*, or *");
    return std::nullopt;
  }
  const std::string_view m = text.substr(0, colon);
  const std::string_view p = text.substr(colon + 1);
  if (m != "*") {
    const auto mv = util::parse_int(m);
    if (!mv || *mv < 0 || *mv > 0xffff) {
      set_error(error, "bad machine in selector '@" + std::string(text) + "'");
      return std::nullopt;
    }
    sel.machine = static_cast<std::uint16_t>(*mv);
  }
  if (p != "*") {
    const auto pv = util::parse_int(p);
    if (!pv) {
      set_error(error, "bad pid in selector '@" + std::string(text) + "'");
      return std::nullopt;
    }
    sel.pid = static_cast<std::int32_t>(*pv);
  }
  return sel;
}

}  // namespace

std::string ProcSelector::to_string() const {
  if (!machine && !pid) return "*";
  std::string out = machine ? std::to_string(*machine) : "*";
  out += ':';
  out += pid ? std::to_string(*pid) : "*";
  return out;
}

FieldId state_field_id(std::string_view name) {
  for (std::size_t i = 0; i < kFields.size(); ++i) {
    if (kFields[i].name == name) return static_cast<FieldId>(i);
  }
  return kNoField;
}

std::size_t state_field_count() { return kFields.size(); }

filter::FieldValue state_field_value(const Event& e, FieldId id,
                                     const NameTable& names) {
  switch (id) {
    case 0: return std::string(meter::event_name(e.type));
    case 1: return static_cast<std::int64_t>(e.machine);
    case 2: return e.cpu_time;
    case 3: return e.proc_time;
    case 4: return static_cast<std::int64_t>(e.pid);
    case 5: return static_cast<std::int64_t>(e.pc);
    case 6: return static_cast<std::int64_t>(e.sock);
    case 7: return static_cast<std::int64_t>(e.new_sock);
    case 8: return static_cast<std::int64_t>(e.msg_length);
    case 9: return static_cast<std::int64_t>(e.new_pid);
    case 10: return static_cast<std::int64_t>(e.status);
    case 11: return std::string(names.text(e.dest_name));
    case 12: return std::string(names.text(e.source_name));
    case 13: return std::string(names.text(e.sock_name));
    case 14: return std::string(names.text(e.peer_name));
    default: return std::int64_t{0};
  }
}

std::optional<PredicateSpec> PredicateSpec::parse(std::string_view text,
                                                  std::string* error) {
  PredicateSpec spec;
  text = util::trim(text);
  const std::size_t colon = text.find(':');
  // The name ends at the first ':' that is not inside a selector — a
  // selector always follows an '@', so the spec's own name:body colon is
  // simply the first one before any '@'.
  const std::size_t at = text.find('@');
  if (colon == std::string_view::npos || (at != std::string_view::npos &&
                                          colon > at)) {
    set_error(error, "spec lacks a '<name>:' prefix");
    return std::nullopt;
  }
  spec.name = std::string(util::trim(text.substr(0, colon)));
  if (spec.name.empty() || !util::is_word(spec.name)) {
    set_error(error, "bad predicate name '" + spec.name + "'");
    return std::nullopt;
  }

  const std::string body{text.substr(colon + 1)};
  for (const auto& conj_text : util::split(body, "&")) {
    const std::string_view conj = util::trim(conj_text);
    if (conj.empty()) {
      set_error(error, "empty conjunct (stray '&')");
      return std::nullopt;
    }
    if (conj.substr(0, 6) == "reach ") {
      const std::string_view rest = util::trim(conj.substr(6));
      const std::size_t arrow = rest.find("->");
      if (arrow == std::string_view::npos || rest.empty() ||
          rest.front() != '@') {
        set_error(error, "reach conjunct is not 'reach @<sel> -> @<sel>'");
        return std::nullopt;
      }
      const std::string_view to_text = util::trim(rest.substr(arrow + 2));
      if (to_text.empty() || to_text.front() != '@') {
        set_error(error, "reach target lacks '@'");
        return std::nullopt;
      }
      const auto from =
          parse_selector(util::trim(rest.substr(1, arrow - 1)), error);
      if (!from) return std::nullopt;
      const auto to = parse_selector(to_text.substr(1), error);
      if (!to) return std::nullopt;
      spec.reaches.push_back(ReachConjunct{*from, *to});
      continue;
    }
    if (conj.front() != '@') {
      set_error(error, "conjunct '" + std::string(conj) +
                           "' does not start with '@' or 'reach'");
      return std::nullopt;
    }
    const std::size_t sel_end = conj.find_first_of(" \t");
    if (sel_end == std::string_view::npos) {
      set_error(error, "conjunct '" + std::string(conj) + "' has no clauses");
      return std::nullopt;
    }
    const auto sel = parse_selector(conj.substr(1, sel_end - 1), error);
    if (!sel) return std::nullopt;
    LocalConjunct lc;
    lc.sel = *sel;
    for (const auto& clause_text : util::split(conj.substr(sel_end), ",")) {
      const std::string_view ct = util::trim(clause_text);
      if (ct.empty()) {
        set_error(error, "empty clause (stray ',')");
        return std::nullopt;
      }
      auto c = parse_clause(ct, error);
      if (!c) return std::nullopt;
      lc.clauses.push_back(std::move(*c));
    }
    spec.locals.push_back(std::move(lc));
  }
  if (spec.locals.empty()) {
    set_error(error, "predicate has no per-process conjunct");
    return std::nullopt;
  }
  return spec;
}

std::string PredicateSpec::to_string() const {
  std::string out = name + ":";
  bool first = true;
  for (const auto& lc : locals) {
    out += first ? " " : " & ";
    first = false;
    out += "@" + lc.sel.to_string();
    for (std::size_t i = 0; i < lc.clauses.size(); ++i) {
      const StateClause& c = lc.clauses[i];
      out += i == 0 ? " " : ", ";
      out += c.field;
      out += cmp_op_text(c.op);
      out += c.wildcard ? "*" : c.value;
    }
  }
  for (const auto& rc : reaches) {
    out += first ? " " : " & ";
    first = false;
    out += "reach @" + rc.from.to_string() + " -> @" + rc.to.to_string();
  }
  return out;
}

bool CompiledClause::holds(const filter::FieldValue& v) const {
  if (wildcard) return true;  // presence: the state slot is set at all
  // Template comparison semantics (templates.h): numeric when both sides
  // have a numeric view, textual otherwise.
  int cmp;
  const auto lhs_num = filter::field_value_num(v);
  if (lhs_num && value_num) {
    cmp = *lhs_num < *value_num ? -1 : (*lhs_num > *value_num ? 1 : 0);
  } else {
    const std::string lhs = filter::field_value_text(v);
    cmp = lhs < value ? -1 : (lhs > value ? 1 : 0);
  }
  switch (op) {
    case filter::CmpOp::eq: return cmp == 0;
    case filter::CmpOp::ne: return cmp != 0;
    case filter::CmpOp::lt: return cmp < 0;
    case filter::CmpOp::gt: return cmp > 0;
    case filter::CmpOp::le: return cmp <= 0;
    case filter::CmpOp::ge: return cmp >= 0;
  }
  return false;
}

std::optional<CompiledPredicate> CompiledPredicate::compile(
    const PredicateSpec& spec, const filter::Descriptions& desc,
    std::string* error) {
  CompiledPredicate out;
  out.spec_ = spec;
  for (const auto& lc : spec.locals) {
    CompiledConjunct cc;
    cc.sel = lc.sel;
    for (const auto& c : lc.clauses) {
      CompiledClause comp;
      comp.field = state_field_id(c.field);
      comp.op = c.op;
      comp.wildcard = c.wildcard;
      comp.value = c.value;
      if (comp.field == kNoField) {
        set_error(error, "unknown field '" + c.field + "'");
        return std::nullopt;
      }
      // The field must exist somewhere in the descriptions (header fields
      // and `type` always do; body fields must be described for at least
      // one event type) — the same unknown-field discipline the template
      // compiler applies per type, hoisted to compile time.
      if (c.field != "type") {
        bool described = false;
        for (const std::uint32_t t : desc.types()) {
          const auto layout = desc.record_layout(t);
          if (std::find(layout.begin(), layout.end(), c.field) !=
              layout.end()) {
            described = true;
            break;
          }
        }
        if (!described) {
          set_error(error, "field '" + c.field +
                               "' is not described for any event type");
          return std::nullopt;
        }
      }
      if (!comp.wildcard) {
        if (c.field == "type") {
          // Accept a type number or any spelling of a name ("send",
          // "SEND", "RECEIVE"); canonicalize to the name the state tracks
          // (state_field_value renders event names).
          if (const auto num = util::parse_int(comp.value)) {
            const auto et = static_cast<meter::EventType>(*num);
            const std::string_view nm = meter::event_name(et);
            if (nm.empty() || nm == "unknown") {
              set_error(error, "unknown event type number " + comp.value);
              return std::nullopt;
            }
            comp.value = std::string(nm);
          } else if (const auto et = meter::event_by_name(comp.value)) {
            comp.value = std::string(meter::event_name(*et));
          } else {
            set_error(error, "unknown event type name '" + comp.value + "'");
            return std::nullopt;
          }
        }
        comp.value_num = filter::field_value_num(comp.value);
      }
      cc.field_mask |= 1u << comp.field;
      cc.clauses.push_back(std::move(comp));
    }
    out.locals_.push_back(std::move(cc));
  }
  return out;
}

StateUpdateTable::StateUpdateTable(const filter::Descriptions& desc) {
  // Header fields + `type` change on every event regardless of type.
  const std::uint32_t header = (1u << state_field_id("type")) |
                               (1u << state_field_id("machine")) |
                               (1u << state_field_id("cpuTime")) |
                               (1u << state_field_id("procTime")) |
                               (1u << state_field_id("pid"));
  default_mask_ = header;
  for (std::size_t i = 0; i < kTypes; ++i) masks_[i] = header;
  for (const std::uint32_t t : desc.types()) {
    if (t >= kTypes) continue;
    std::uint32_t m = header;
    for (const std::string& f : desc.record_layout(t)) {
      const FieldId id = state_field_id(f);
      if (id != kNoField) m |= 1u << id;
    }
    masks_[t] = m;
  }
}

std::uint32_t StateUpdateTable::update_mask(meter::EventType t) const {
  const auto i = static_cast<std::size_t>(t);
  return i < kTypes ? masks_[i] : default_mask_;
}

}  // namespace dpm::analysis::pred
