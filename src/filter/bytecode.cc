#include "filter/bytecode.h"

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
    for (const Rule& rule : templates.rules()) lower(rule, plan, type, p);
    p.code.push_back(Instr{});  // Op::reject
  }
  return out;
}

void FilterBytecode::lower(const Rule& rule, const WirePlan& plan,
                           std::uint32_t type, Program& p) {
  constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  const std::size_t rule_start = p.code.size();
  const std::size_t lits_start = p.lits.size();
  // The rule can never hold for this type: take back what it lowered.
  auto drop = [&] {
    p.code.resize(rule_start);
    p.lits.resize(lits_start);
  };
  std::vector<bool> discard(plan.field_count(), false);
  bool any_discard = false;
  for (const Clause& c : rule.clauses) {
    const std::size_t lhs = plan.index_of(c.field);
    // The event type never carries this field, so the clause (and with it
    // the whole rule) can never hold for this type.
    if (lhs == kNpos) return drop();
    if (c.discard) {
      // '#' drops every field of that name, as the reference filter does
      // (a description may name two fields alike).
      for (std::size_t i = lhs; i < plan.field_count(); ++i) {
        if (plan.field_names()[i] == c.field) discard[i] = true;
      }
      any_discard = true;
    }
    if (c.wildcard) continue;  // always holds; lowers to nothing
    Instr in;
    in.cmp = c.op;
    in.a = static_cast<std::uint32_t>(lhs);
    const std::size_t rhs = plan.index_of(c.value);
    if (rhs != kNpos) {
      in.op = Op::cmp_field;
      in.b = static_cast<std::uint32_t>(rhs);
      p.code.push_back(in);
      continue;
    }
    Literal lit;
    if (auto n = util::parse_int(c.value)) {
      if (plan.field_names()[lhs] == "type") {
        // This program only ever sees records of its own type, whose
        // header field decodes (sign-extended, like every u32 field) to
        // this value: the clause is decided here.
        const std::int64_t t = static_cast<std::int32_t>(type);
        const int cmp = (t < *n) ? -1 : (t > *n) ? 1 : 0;
        if (apply_op(c.op, cmp)) continue;  // always holds for this type
        return drop();
      }
      // Textual view for the string-compare fallback must match the
      // interpreted path, which renders the *parsed* value.
      lit = Literal{*n, field_value_text(FieldValue{*n})};
    } else {
      lit.text = c.value;
    }
    in.op = Op::cmp_imm;
    in.b = static_cast<std::uint32_t>(p.lits.size());
    p.lits.push_back(std::move(lit));
    p.code.push_back(in);
  }
  Instr acc;
  acc.op = Op::accept;
  acc.a = static_cast<std::uint32_t>(p.discards.size());
  p.discards.push_back(any_discard ? std::move(discard) : std::vector<bool>{});
  p.code.push_back(acc);
  // Back-patch this rule's clause fails to the next rule's first op.
  const std::uint32_t next = static_cast<std::uint32_t>(p.code.size());
  for (std::size_t i = rule_start; i + 1 < p.code.size(); ++i) {
    p.code[i].fail = next;
  }
}

FilterBytecode::Decision FilterBytecode::evaluate(
    const WirePlan& plan, const RecordView& v,
    const std::string_view* strings) {
  if (accept_all_) return Decision{true, nullptr};
  const Program& p = progs_[plan.index()];

  std::uint64_t ops = 0;
  std::uint32_t pc = 0;
  std::optional<Decision> result;
  while (!result) {
    const Instr& in = p.code[pc];
    ++ops;
    bool hold = false;
    switch (in.op) {
      case Op::accept: {
        const std::vector<bool>& d = p.discards[in.a];
        result = Decision{true, d.empty() ? nullptr : &d};
        continue;
      }
      case Op::reject:
        result = Decision{false, nullptr};
        continue;
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
    pc = hold ? pc + 1 : in.fail;
  }
  ops_ += ops;
  if (ops_counter_ != nullptr) ops_counter_->add(ops);
  return *result;
}

}  // namespace dpm::filter
