// Trace (log) file format.
//
// "A filter sends its output to a log file located in the /usr/tmp
// directory. Each filter has its own log file. This file is used to store
// the trace messages collected by the filter."
//
// The log is one text line per accepted event record: space-separated
// name=value pairs in description order, with discarded fields omitted
// (the paper stored edited binary records; a self-describing text line
// keeps the same information and the same size-reduction property —
// documented in DESIGN.md). Values never contain spaces; a value that
// would (none do today) is %-escaped.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "filter/descriptions.h"
#include "filter/templates.h"

namespace dpm::filter {

/// Renders an accepted record, omitting discarded fields. Ends with '\n'.
/// The reference renderer: the filter renders with trace_line_view, and
/// tests compare its lines against this one.
std::string trace_line(const Record& rec, const std::set<std::string>& discard);

/// Renders an accepted record straight from its wire view and appends it
/// to `out`: byte-identical to trace_line on the decoded record with the
/// fields `discard_mask` marks (indexed like Record::fields; nullptr =
/// discard nothing) discarded. `strings` (optional) is the record's
/// resolved string scratch from WirePlan::validate. False (nothing
/// appended) when the record is malformed; a record that passed
/// plan.validate() always renders. No Record, no per-field string
/// allocation.
bool trace_line_view(const WirePlan& plan, const RecordView& v,
                     const std::vector<bool>* discard_mask,
                     const std::string_view* strings, std::string& out);

/// Decodes a trace value: '%' followed by exactly two hex digits becomes
/// that byte, as the renderer escapes it; any other '%' stays literal.
/// The one unescape both trace parsers (parse_trace_line and
/// analysis::read_trace) use.
std::string unescape_value(std::string_view s);

/// Parses one trace line back into a Record (numbers become ints, other
/// values strings). Returns nullopt for blank/comment lines.
std::optional<Record> parse_trace_line(const std::string& line);

/// Parses a whole log file; malformed lines are skipped and counted.
struct ParsedTrace {
  std::vector<Record> records;
  std::size_t malformed = 0;
};
ParsedTrace parse_trace(const std::string& text);

/// Standard location of a filter's log file (§3.4).
std::string log_path_for(const std::string& filter_name);

}  // namespace dpm::filter
