// Compiled selection rules: the filter's one decision path (§3.3–3.4).
//
// Templates::evaluate re-resolves every clause per record: it probes the
// record for the LHS field by name, re-decides whether the RHS token is a
// field reference or a literal, and re-parses numeric literals. A filter
// saturates on exactly this loop, so FilterBytecode::compile performs all
// of that resolution ONCE per (rule, event type) against the record
// description (Fig 3.2), then lowers each type's rules into a flat op
// array that evaluation dispatches over the record's wire bytes. A
// program never changes after compile.
//
// Front end (per described event type, against its WirePlan layout):
//   * the LHS field name becomes a layout ordinal;
//   * the RHS is classified once as field-reference / integer literal /
//     string literal — the field-reference tie-break (see templates.h) is
//     applied against the event's described layout, not per record;
//   * numeric literals are pre-parsed, and the literal's textual view is
//     pre-rendered for the string-comparison fallback;
//   * rules that name a field the event type does not carry can never
//     match and are dropped from that type's program (first-match order
//     of the surviving rules is preserved);
//   * a clause on the header "type" field against a numeric literal is
//     decided by the program's own event type: it either vanishes (always
//     holds for this type) or removes the whole rule from this type's
//     program;
//   * wildcard clauses always hold and lower to nothing;
//   * each rule's '#' discards are pre-baked into a per-type field mask,
//     so an accepted record's edit needs no name lookups either.
//
// The ISA (documented in DESIGN.md §10):
//   cmp_imm     a=lhs ordinal, b=literal index, cmp=CmpOp, fail=jump
//   cmp_field   a=lhs ordinal, b=rhs ordinal,   cmp=CmpOp, fail=jump
//   accept      a=discard mask index (the matching rule's mask)
//   reject
// A rule lowers to its clauses in source order followed by `accept`;
// each clause's `fail` jumps to the next rule's first op (or the final
// `reject`), preserving first-match-wins and the matching rule's discard
// mask exactly.
//
// Decisions are identical to Templates::evaluate on the decoded record
// for every record WirePlan::validate accepts; the interpreted matcher is
// kept as the test oracle that property tests compare against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "filter/descriptions.h"
#include "filter/templates.h"
#include "obs/registry.h"

namespace dpm::filter {

class FilterBytecode {
 public:
  /// Resolves every rule of `templates` against every event type that
  /// `descriptions` describes and lowers each type's rules into a program.
  /// Programs are indexed like the descriptions' plans (WirePlan::index).
  static FilterBytecode compile(const Templates& templates,
                                const Descriptions& descriptions);

  struct Decision {
    bool accept = false;
    /// Discard mask of the matching rule, indexed like the type's layout
    /// (Record::fields order); nullptr when the rule discards nothing (or
    /// accept is false).
    const std::vector<bool>* discard = nullptr;
  };

  /// Interprets the program of `plan`'s event type over `v`, a record of
  /// that type. `plan` must come from the Descriptions this engine was
  /// compiled against. `strings` (optional) is the scratch filled by
  /// WirePlan::validate for this same record — clause operands on string
  /// fields then read from it instead of re-walking the record.
  Decision evaluate(const WirePlan& plan, const RecordView& v,
                    const std::string_view* strings = nullptr);

  /// Installs a counter that accumulates interpreted ops per evaluation
  /// (obs key "filter.bytecode_ops").
  void set_ops_counter(obs::Counter* c) { ops_counter_ = c; }

  std::uint64_t ops_executed() const { return ops_; }
  /// Number of lowered programs: one per described event type.
  std::size_t program_count() const { return progs_.size(); }

 private:
  enum class Op : std::uint8_t { cmp_imm, cmp_field, accept, reject };
  struct Instr {
    Op op = Op::reject;
    CmpOp cmp = CmpOp::eq;
    // A template file may hold more than 65,535 rules or literals, so the
    // indices are 32-bit.
    std::uint32_t a = 0;     // lhs field ordinal; accept: discard mask index
    std::uint32_t b = 0;     // cmp_field: rhs ordinal; cmp_imm: literal index
    std::uint32_t fail = 0;  // pc on clause failure
  };
  struct Literal {
    std::optional<std::int64_t> num;
    std::string text;
  };
  struct Program {
    std::vector<Instr> code;
    std::vector<Literal> lits;
    /// One per lowered rule; empty = the rule discards nothing.
    std::vector<std::vector<bool>> discards;
  };

  /// Appends `rule`, resolved against `plan`'s layout for event type
  /// `type`, to `p`. Leaves `p` as it was when the rule can never match
  /// that type.
  static void lower(const Rule& rule, const WirePlan& plan, std::uint32_t type,
                    Program& p);

  std::vector<Program> progs_;  // indexed by WirePlan::index()
  bool accept_all_ = false;     // empty rule set: accept, discard nothing
  std::uint64_t ops_ = 0;
  obs::Counter* ops_counter_ = nullptr;
};

}  // namespace dpm::filter
