#include "filter/templates.h"

#include <cstring>

#include "util/strings.h"

namespace dpm::filter {

std::string_view cmp_op_text(CmpOp op) {
  switch (op) {
    case CmpOp::eq: return "=";
    case CmpOp::ne: return "!=";
    case CmpOp::lt: return "<";
    case CmpOp::gt: return ">";
    case CmpOp::le: return "<=";
    case CmpOp::ge: return ">=";
  }
  return "?";
}

namespace {

/// Finds the comparison operator in a clause token; two-character
/// operators are matched first.
bool split_clause(const std::string& tok, std::string* field, CmpOp* op,
                  std::string* value) {
  struct OpText {
    const char* text;
    CmpOp op;
  };
  static constexpr OpText kOps[] = {
      {">=", CmpOp::ge}, {"<=", CmpOp::le}, {"!=", CmpOp::ne},
      {">", CmpOp::gt},  {"<", CmpOp::lt},  {"=", CmpOp::eq},
  };
  for (const auto& o : kOps) {
    auto pos = tok.find(o.text);
    if (pos != std::string::npos && pos > 0) {
      *field = std::string(util::trim(tok.substr(0, pos)));
      *value = std::string(util::trim(tok.substr(pos + std::strlen(o.text))));
      *op = o.op;
      return !field->empty() && !value->empty();
    }
  }
  return false;
}

std::string strip_comment(const std::string& line) {
  auto pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

}  // namespace

std::optional<Templates> Templates::parse(const std::string& text,
                                          std::string* error) {
  Templates out;
  int lineno = 0;
  for (const auto& raw_line : util::split_keep_empty(text, '\n')) {
    ++lineno;
    std::string line{util::trim(strip_comment(raw_line))};
    if (line.empty() || line[0] == '#') continue;  // comment lines only;
    // note: '#' *inside* a clause is the discard marker, '#' at line start
    // is a comment.

    Rule rule;
    for (const auto& part : util::split(line, ",")) {
      const std::string tok{util::trim(part)};
      if (tok.empty()) continue;
      Clause c;
      std::string value;
      if (!split_clause(tok, &c.field, &c.op, &value)) {
        if (error) {
          *error = util::strprintf("line %d: bad clause '%s'", lineno, tok.c_str());
        }
        return std::nullopt;
      }
      if (!value.empty() && value[0] == '#') {
        c.discard = true;
        value.erase(0, 1);
        if (value.empty()) {
          if (error) *error = util::strprintf("line %d: '#' without value", lineno);
          return std::nullopt;
        }
      }
      if (value == "*") {
        // '*' only asserts the field's presence, so a comparison other
        // than '=' has no meaning — reject it instead of silently
        // accepting every record ("field != *" used to do exactly that).
        if (c.op != CmpOp::eq) {
          if (error) {
            *error = util::strprintf(
                "line %d: wildcard '*' requires '=' (got '%s')", lineno,
                std::string(cmp_op_text(c.op)).c_str());
          }
          return std::nullopt;
        }
        c.wildcard = true;
      } else {
        c.value = value;
      }
      rule.clauses.push_back(std::move(c));
    }
    if (!rule.clauses.empty()) out.rules_.push_back(std::move(rule));
  }
  return out;
}

bool Templates::clause_matches(const Clause& c, const Record& rec) {
  const FieldValue* lhs = rec.find(c.field);
  if (!lhs) return false;
  if (c.wildcard) return true;

  // Resolve the right-hand side: a field reference when the record has a
  // field of that name (sockName=peerName), otherwise a literal.
  FieldValue rhs_storage;
  const FieldValue* rhs = rec.find(c.value);
  if (!rhs) {
    if (auto n = util::parse_int(c.value)) {
      rhs_storage = *n;
    } else {
      rhs_storage = c.value;
    }
    rhs = &rhs_storage;
  }

  const auto ln = field_value_num(*lhs);
  const auto rn = field_value_num(*rhs);
  int cmp;
  if (ln && rn) {
    cmp = (*ln < *rn) ? -1 : (*ln > *rn) ? 1 : 0;
  } else {
    const std::string ls = field_value_text(*lhs);
    const std::string rs = field_value_text(*rhs);
    cmp = ls.compare(rs);
    cmp = cmp < 0 ? -1 : cmp > 0 ? 1 : 0;
  }
  switch (c.op) {
    case CmpOp::eq: return cmp == 0;
    case CmpOp::ne: return cmp != 0;
    case CmpOp::lt: return cmp < 0;
    case CmpOp::gt: return cmp > 0;
    case CmpOp::le: return cmp <= 0;
    case CmpOp::ge: return cmp >= 0;
  }
  return false;
}

Templates::Decision Templates::evaluate(const Record& rec) const {
  Decision d;
  if (rules_.empty()) {
    d.accept = true;  // no rules: save everything
    return d;
  }
  for (const Rule& rule : rules_) {
    bool all = true;
    for (const Clause& c : rule.clauses) {
      if (!clause_matches(c, rec)) {
        all = false;
        break;
      }
    }
    if (all) {
      d.accept = true;
      for (const Clause& c : rule.clauses) {
        if (c.discard) d.discard.insert(c.field);
      }
      return d;  // first matching rule decides the edits
    }
  }
  return d;
}

const std::string& default_templates_text() {
  static const std::string text =
      "# Default selection rules: no rules — every event record is saved.\n"
      "# Rule syntax (one per line): field OP value, field OP value, ...\n"
      "# Ops: > < = != >= <= ; '*' matches anything; a '#' prefix on a\n"
      "# value discards that field from saved records (paper Figs 3.3/3.4).\n";
  return text;
}

}  // namespace dpm::filter
