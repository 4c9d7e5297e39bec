#include "filter/bytecode.h"

#include <algorithm>
#include <numeric>

#include "util/strings.h"

namespace dpm::filter {

namespace {

bool apply_op(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::eq: return cmp == 0;
    case CmpOp::ne: return cmp != 0;
    case CmpOp::lt: return cmp < 0;
    case CmpOp::gt: return cmp > 0;
    case CmpOp::le: return cmp <= 0;
    case CmpOp::ge: return cmp >= 0;
  }
  return false;
}

}  // namespace

FilterBytecode FilterBytecode::compile(const Templates& templates,
                                       const Descriptions& descriptions) {
  FilterBytecode out;
  out.accept_all_ = templates.rule_count() == 0;
  out.progs_.resize(descriptions.size());
  for (std::uint32_t type : descriptions.types()) {
    const WirePlan& plan = *descriptions.wire_plan(type);
    Program& p = out.progs_[plan.index()];
    for (const Rule& rule : templates.rules()) {
      if (auto rs = resolve(rule, plan, type)) {
        p.rules.push_back(std::move(*rs));
      }
    }
    p.fail_counts.resize(p.rules.size());
    for (std::size_t r = 0; r < p.rules.size(); ++r) {
      p.fail_counts[r].assign(p.rules[r].clauses.size(), 0);
    }
    generate(p);
  }
  return out;
}

std::optional<FilterBytecode::RuleSrc> FilterBytecode::resolve(
    const Rule& rule, const WirePlan& plan, std::uint32_t type) {
  constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  RuleSrc rs;
  std::vector<bool> discard(plan.field_count(), false);
  bool any_discard = false;
  for (const Clause& c : rule.clauses) {
    const std::size_t lhs = plan.index_of(c.field);
    // The event type never carries this field, so the clause (and with it
    // the whole rule) can never hold for this type.
    if (lhs == kNpos) return std::nullopt;
    if (c.discard) {
      discard[lhs] = true;
      any_discard = true;
    }
    if (c.wildcard) continue;  // always holds; lowers to nothing
    ClauseSrc cs;
    cs.lhs = static_cast<std::uint16_t>(lhs);
    cs.op = c.op;
    const std::size_t rhs = plan.index_of(c.value);
    if (rhs != kNpos) {
      cs.rhs_is_field = true;
      cs.rhs_field = static_cast<std::uint16_t>(rhs);
    } else if (auto n = util::parse_int(c.value)) {
      cs.rhs_num = *n;
      // Textual view for the string-compare fallback must match the
      // interpreted path, which renders the *parsed* value.
      cs.rhs_text = field_value_text(FieldValue{*n});
      if (plan.field_names()[lhs] == "type") {
        // This program only ever sees records of its own type, whose
        // header field decodes (sign-extended, like every u32 field) to
        // this value: the clause is decided here.
        const std::int64_t t = static_cast<std::int32_t>(type);
        const int cmp = (t < *n) ? -1 : (t > *n) ? 1 : 0;
        if (apply_op(c.op, cmp)) continue;  // always holds for this type
        return std::nullopt;  // the rule can never match this type
      }
      // An integer field against a numeric literal always compares
      // numerically: the op reads the field's wire location directly.
      cs.lhs_int = plan.int_loc(lhs);
    } else {
      cs.rhs_text = c.value;
    }
    rs.clauses.push_back(std::move(cs));
  }
  if (any_discard) rs.discard = std::move(discard);
  return rs;
}

void FilterBytecode::generate(Program& p) {
  p.code.clear();
  p.lits.clear();
  for (std::size_t r = 0; r < p.rules.size(); ++r) {
    const std::size_t rule_start = p.code.size();
    for (std::size_t c = 0; c < p.rules[r].clauses.size(); ++c) {
      const ClauseSrc& cs = p.rules[r].clauses[c];
      Instr in;
      in.cmp = cs.op;
      in.a = cs.lhs;
      in.src_rule = static_cast<std::uint16_t>(r);
      in.src_clause = static_cast<std::uint16_t>(c);
      if (cs.rhs_is_field) {
        in.op = Op::cmp_field;
        in.b = cs.rhs_field;
      } else {
        in.op = Op::cmp_imm;
        if (cs.lhs_int) {
          in.op = Op::cmp_imm_int;
          in.off = static_cast<std::uint32_t>(cs.lhs_int->offset);
          in.len = static_cast<std::uint8_t>(cs.lhs_int->length);
        }
        in.b = static_cast<std::uint16_t>(p.lits.size());
        p.lits.push_back(Literal{cs.rhs_num, cs.rhs_text});
      }
      p.code.push_back(in);
    }
    Instr acc;
    acc.op = Op::accept;
    acc.a = static_cast<std::uint16_t>(r);
    p.code.push_back(acc);
    // Back-patch this rule's clause fails to the next rule's first op.
    const std::uint32_t next = static_cast<std::uint32_t>(p.code.size());
    for (std::size_t i = rule_start; i + 1 < p.code.size(); ++i) {
      p.code[i].fail = next;
    }
  }
  p.code.push_back(Instr{});  // Op::reject
}

void FilterBytecode::maybe_reorder(Program& p) {
  if (++p.evals < kLearnWindow) return;
  p.reordered = true;
  bool changed = false;
  for (std::size_t r = 0; r < p.rules.size(); ++r) {
    auto& clauses = p.rules[r].clauses;
    const auto& fails = p.fail_counts[r];
    std::vector<std::size_t> order(clauses.size());
    std::iota(order.begin(), order.end(), 0);
    // Most-rejecting clause first; stable so ties keep source order.
    std::stable_sort(order.begin(), order.end(),
                     [&fails](std::size_t a, std::size_t b) {
                       return fails[a] > fails[b];
                     });
    if (std::is_sorted(order.begin(), order.end())) continue;
    std::vector<ClauseSrc> next;
    next.reserve(clauses.size());
    for (std::size_t i : order) next.push_back(std::move(clauses[i]));
    clauses = std::move(next);
    changed = true;
  }
  if (changed) {
    generate(p);
    ++reorders_;
  }
}

FilterBytecode::Decision FilterBytecode::evaluate(
    const WirePlan& plan, const RecordView& v,
    const std::string_view* strings) {
  if (accept_all_) return Decision{true, nullptr};
  Program& p = progs_[plan.index()];

  std::uint64_t ops = 0;
  std::uint32_t pc = 0;
  std::optional<Decision> result;
  while (!result) {
    const Instr& in = p.code[pc];
    ++ops;
    bool hold = false;
    switch (in.op) {
      case Op::accept: {
        const std::vector<bool>& d = p.rules[in.a].discard;
        result = Decision{true, d.empty() ? nullptr : &d};
        continue;
      }
      case Op::reject:
        result = Decision{false, nullptr};
        continue;
      case Op::cmp_imm_int: {
        // Same bounds rule as field(): a too-short record yields no value
        // and the clause fails. Reads and sign-extends like read_le.
        if (in.off + in.len <= v.size) {
          std::uint64_t raw = 0;
          for (std::size_t i = in.len; i-- > 0;) {
            raw = (raw << 8) | v.data[in.off + i];
          }
          if (in.len < 8 && (raw & (1ULL << (8 * in.len - 1)))) {
            raw |= ~((1ULL << (8 * in.len)) - 1);
          }
          const auto lhs = static_cast<std::int64_t>(raw);
          const std::int64_t rhs = *p.lits[in.b].num;
          const int cmp = (lhs < rhs) ? -1 : (lhs > rhs) ? 1 : 0;
          hold = apply_op(in.cmp, cmp);
        }
        break;
      }
      case Op::cmp_imm: {
        const auto lhs = plan.field(v, in.a, strings);
        if (lhs) {
          const Literal& lit = p.lits[in.b];
          const auto ln = field_view_num(*lhs);
          int cmp;
          if (ln && lit.num) {
            cmp = (*ln < *lit.num) ? -1 : (*ln > *lit.num) ? 1 : 0;
          } else {
            cmp = field_view_text_cmp(*lhs, lit.text);
          }
          hold = apply_op(in.cmp, cmp);
        }
        break;
      }
      case Op::cmp_field: {
        const auto lhs = plan.field(v, in.a, strings);
        const auto rhs = plan.field(v, in.b, strings);
        if (lhs && rhs) {
          hold = apply_op(in.cmp, field_view_cmp(*lhs, *rhs));
        }
        break;
      }
    }
    if (hold) {
      ++pc;
    } else {
      if (!p.reordered) ++p.fail_counts[in.src_rule][in.src_clause];
      pc = in.fail;
    }
  }
  ops_ += ops;
  if (ops_counter_ != nullptr) ops_counter_->add(ops);
  if (!p.reordered) maybe_reorder(p);  // guard here: no call once learned
  return *result;
}

}  // namespace dpm::filter
