// Selection rules / templates (Figs 3.3 and 3.4).
//
// "The selection rules are stored in another file and are used to select
// and edit event records. ... The conditions that may be used to specify
// selection criteria in a template are >, <, =, !=, >= and <=. ... A
// wildcard value which matches any value may be specified ('*'). To
// reduce the size of the data which is saved in the trace file, any field
// value may be prefixed with the discard character '#'."
//
// One rule per line; a rule is a comma-separated list of clauses
// "field OP value". A record is accepted when ANY rule matches (all of
// its clauses hold); an empty template file accepts everything. The first
// matching rule decides which fields are discarded. A value may be:
//   * a number            machine=5, cpuTime<10000
//   * a wildcard          pid=*        (field must be present; '*' is only
//                         meaningful with '=' — any other operator is a
//                         parse error)
//   * another field name  sockName=peerName
//   * a literal string    destName=/tmp/sock
//
// Field-reference tie-break: a value token that names a field of the
// record being matched is a field reference, and a literal otherwise —
// field references win. The filter's compiled rules (bytecode.h) resolve
// this once per event type against the record description, so the
// decision is deterministic per type rather than per record; evaluate()
// applies the same tie-break against the record itself (equivalent for
// description-decoded records, which always carry every described field).
//
// Templates::evaluate is the interpreted reference matcher: the filter
// decides with the compiled rules, and tests compare those decisions
// against this one.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "filter/descriptions.h"

namespace dpm::filter {

enum class CmpOp { eq, ne, lt, gt, le, ge };

std::string_view cmp_op_text(CmpOp op);

struct Clause {
  std::string field;
  CmpOp op = CmpOp::eq;
  bool discard = false;   // '#' prefix on the value
  bool wildcard = false;  // '*' value
  std::string value;      // raw value token (number, literal, or field name)
};

struct Rule {
  std::vector<Clause> clauses;
};

class Templates {
 public:
  /// Parses a template file; nullopt + error message on malformed input.
  static std::optional<Templates> parse(const std::string& text,
                                        std::string* error = nullptr);

  /// An empty rule set (accepts every record, discards nothing).
  Templates() = default;

  struct Decision {
    bool accept = false;
    std::set<std::string> discard;  // fields the matching rule drops
  };

  Decision evaluate(const Record& rec) const;

  std::size_t rule_count() const { return rules_.size(); }
  const std::vector<Rule>& rules() const { return rules_; }

 private:
  static bool clause_matches(const Clause& c, const Record& rec);
  std::vector<Rule> rules_;
};

/// The default template file: accept everything (it contains only
/// comments, so the rule set is empty).
const std::string& default_templates_text();

}  // namespace dpm::filter
