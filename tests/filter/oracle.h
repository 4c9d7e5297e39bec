// The reference filter the compiled matcher and the view renderer are
// checked against: decode each record, decide it with the interpreted
// Templates::evaluate, and render it with the reference trace_line.
#pragma once

#include <optional>
#include <string>

#include "filter/bytecode.h"
#include "filter/descriptions.h"
#include "filter/templates.h"
#include "filter/trace.h"
#include "util/bytes.h"

namespace dpm::filter {

/// The reference log line of one wire record: empty when the rules
/// reject it, nullopt when it does not decode (the engine counts such a
/// record malformed).
inline std::optional<std::string> oracle_line(const Descriptions& desc,
                                              const Templates& templ,
                                              const std::uint8_t* raw,
                                              std::size_t size) {
  const auto rec = desc.decode(raw, size);
  if (!rec) return std::nullopt;
  const Templates::Decision d = templ.evaluate(*rec);
  return d.accept ? trace_line(*rec, d.discard) : std::string();
}

/// The same record through the compiled path, as FilterEngine runs it:
/// validate against the type's plan, evaluate the bytecode, render from
/// the view. `scratch` selects whether the matcher and renderer reuse
/// validate's resolved strings (the engine's way) or resolve them
/// themselves.
inline std::optional<std::string> bytecode_line(const Descriptions& desc,
                                                FilterBytecode& bytecode,
                                                const std::uint8_t* raw,
                                                std::size_t size,
                                                bool scratch = true) {
  const auto v = make_record_view(raw, size);
  const WirePlan* wp = v ? desc.wire_plan(v->type) : nullptr;
  std::string_view strings[WirePlan::kMaxStringFields];
  if (!wp || !wp->validate(*v, strings)) return std::nullopt;
  const std::string_view* s = scratch ? strings : nullptr;
  const FilterBytecode::Decision d = bytecode.evaluate(*wp, *v, s);
  std::string line;
  if (d.accept && !trace_line_view(*wp, *v, d.discard, s, line)) {
    return std::nullopt;
  }
  return line;
}

/// The reference log of a batch of framed records.
inline std::string oracle_log(const Descriptions& desc, const Templates& templ,
                              const util::Bytes& batch) {
  std::string out;
  std::size_t pos = 0;
  while (auto size = util::BinaryReader(batch.data() + pos,
                                        batch.size() - pos).u32()) {
    if (*size == 0 || *size > batch.size() - pos) break;
    out += oracle_line(desc, templ, batch.data() + pos, *size).value_or("");
    pos += *size;
  }
  return out;
}

}  // namespace dpm::filter
