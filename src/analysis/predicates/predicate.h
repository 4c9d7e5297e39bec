// Global predicate specifications over meter-record state.
//
// The 1985 paper's analyses summarize a deduced event order after the
// fact; the predicate layer asks the online question "did P ever hold?"
// for conjunctive global predicates in the Garg–Waldecker sense: a
// conjunction of per-process state clauses, optionally guarded by
// channel-reachability conjuncts, detected on the happens-before lattice
// (Cooper–Marzullo possibly/definitely, DESIGN.md §12).
//
// Spec grammar (one predicate per spec):
//
//   <name>: <conjunct> [& <conjunct>]*
//   conjunct  := @<sel> <clause>[, <clause>]*        per-process state
//              | reach @<sel> -> @<sel>              channel reachability
//   sel       := <machine>:<pid> | <machine>:* | *
//   clause    := <field> <op> <value>                template syntax
//
// Clauses reuse the filter-template comparison model (templates.h): ops
// =, !=, <, >, <=, >=; the wildcard value '*' (only with '=') asserts
// presence; values compare numerically when both sides have a numeric
// view and textually otherwise. The pseudo-field `type` names the event
// type ("SEND" or its number) and tracks the process's most recent event.
//
// A spec is *compiled* against the record descriptions the way the
// filter's rules are (filter/bytecode.h): every clause field must be
// carried by at least one described event type (or be a header/pseudo
// field), and the compiler resolves, per event type, which state fields
// that type updates — the detector then re-evaluates a conjunct only when
// an event can have changed it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/trace_reader.h"
#include "filter/descriptions.h"
#include "filter/templates.h"
#include "meter/metermsgs.h"

namespace dpm::analysis::pred {

/// Which concrete processes a conjunct may bind to. A wildcard pid (or a
/// fully wild selector) instantiates once per matching process observed.
struct ProcSelector {
  std::optional<std::uint16_t> machine;  // nullopt = any machine
  std::optional<std::int32_t> pid;       // nullopt = any pid

  bool matches(const ProcKey& k) const {
    return (!machine || *machine == k.machine) && (!pid || *pid == k.pid);
  }
  std::string to_string() const;
};

/// One per-process state clause, template-style.
struct StateClause {
  std::string field;
  filter::CmpOp op = filter::CmpOp::eq;
  bool wildcard = false;  // '*' value: field present
  std::string value;      // raw literal token
};

struct LocalConjunct {
  ProcSelector sel;
  std::vector<StateClause> clauses;
};

struct ReachConjunct {
  ProcSelector from;
  ProcSelector to;
};

struct PredicateSpec {
  std::string name;
  std::vector<LocalConjunct> locals;
  std::vector<ReachConjunct> reaches;

  /// Parses one spec line; nullopt + `error` on malformed input.
  static std::optional<PredicateSpec> parse(std::string_view text,
                                            std::string* error = nullptr);
  /// Canonical text; round-trips through parse().
  std::string to_string() const;
};

// ---- compilation ----------------------------------------------------------

/// Dense ids for the state fields a detector tracks. The universe is the
/// fixed set of fields the standard meter can produce (the Event struct's
/// members) plus the pseudo-field `type`.
using FieldId = std::uint8_t;
inline constexpr FieldId kNoField = 0xff;

/// Name → FieldId for the known state fields; kNoField when unknown.
FieldId state_field_id(std::string_view name);
/// Number of known state fields (FieldIds are < this).
std::size_t state_field_count();
/// The value event `e` assigns to `id` (`type` renders as the event name,
/// a socket name field as its text in `names`, the table `e`'s ids index).
filter::FieldValue state_field_value(const Event& e, FieldId id,
                                     const NameTable& names);

/// A clause with its field resolved and its value pre-analyzed.
struct CompiledClause {
  FieldId field = kNoField;
  filter::CmpOp op = filter::CmpOp::eq;
  bool wildcard = false;
  std::string value;                        // literal text
  std::optional<std::int64_t> value_num;    // numeric view, when it has one


  /// Template comparison semantics against a current state value.
  bool holds(const filter::FieldValue& v) const;
};

struct CompiledConjunct {
  ProcSelector sel;
  std::vector<CompiledClause> clauses;
  /// Union of clause fields, as a bitmask over FieldId (fits: the field
  /// universe is 15 entries). An event re-evaluates the conjunct only
  /// when it updates one of these.
  std::uint32_t field_mask = 0;
};

/// A predicate resolved against record descriptions, plus the per-type
/// state-update table shared by every predicate compiled from `desc`.
class CompiledPredicate {
 public:
  /// Validates every clause field against the descriptions (a field must
  /// be a header field, a described body field of some type, or `type`)
  /// and pre-resolves values. nullopt + `error` on unknown fields, type
  /// names, or empty conjunct lists.
  static std::optional<CompiledPredicate> compile(
      const PredicateSpec& spec, const filter::Descriptions& desc,
      std::string* error = nullptr);

  const PredicateSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  const std::vector<CompiledConjunct>& locals() const { return locals_; }
  const std::vector<ReachConjunct>& reaches() const { return spec_.reaches; }

 private:
  PredicateSpec spec_;
  std::vector<CompiledConjunct> locals_;
};

/// Per-event-type state-update table resolved from descriptions once per
/// detector: update_mask(t) is the FieldId bitmask of state fields an
/// event of type t carries (header fields and `type` always included).
class StateUpdateTable {
 public:
  explicit StateUpdateTable(const filter::Descriptions& desc);
  std::uint32_t update_mask(meter::EventType t) const;

 private:
  static constexpr std::size_t kTypes = 16;
  std::uint32_t masks_[kTypes] = {};
  std::uint32_t default_mask_ = 0;
};

}  // namespace dpm::analysis::pred
