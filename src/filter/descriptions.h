// Event record descriptions (Fig 3.2).
//
// "The event record descriptions define the message formats. These
// descriptions are stored in a file with there being a description for
// each type of event. A description is a list of fields within an event
// record. ... Since the meter creates these messages, such definitions are
// very important for establishing a successful protocol between the meter
// and a filter."
//
// File grammar (one description per line; '#'-to-end-of-line comments):
//
//   HEADER size machine cpuTime procTime traceType
//   SEND 1, pid,0,4,10 pc,4,4,10 sock,8,8,10 msgLength,16,4,10 ...
//
// An event line is: NAME <type-number>, then fields as
// fieldName,offset,length,base. Offsets are relative to the start of the
// record *body* (the header layout is fixed and named by the HEADER line).
// length 1/2/4/8 with base 10 or 16 denotes a little-endian integer.
// length 0 with base 0 denotes a counted string: its byte count is the
// value of the earlier "<fieldName>Len" field, and consecutive string
// fields are laid out one after another starting at the first string
// field's offset. A description names each field once, and no body field
// takes a header field's name (size, machine, cpuTime, procTime, type).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.h"

namespace dpm::filter {

using FieldValue = std::variant<std::int64_t, std::string>;

std::string field_value_text(const FieldValue& v);

/// Numeric view of a value, when it has one (strings that parse as decimal
/// integers count, so internet names compare numerically — Fig 3.3).
std::optional<std::int64_t> field_value_num(const FieldValue& v);

/// Non-owning view of one framed wire record (header + body). The view
/// borrows the batch buffer it was framed from: it is valid only until
/// that buffer is next modified (the wire-view invariant, DESIGN.md §5).
struct RecordView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::uint32_t type = 0;  // traceType, decoded from the fixed header
};

/// Frames a view over `size` bytes of one record; nullopt if the bytes are
/// too short for a header or the size word disagrees with `size`.
std::optional<RecordView> make_record_view(const std::uint8_t* data,
                                           std::size_t size);

/// One field extracted from a RecordView without copying: integers decode
/// to int64 (sign-extended, like Descriptions::decode), counted strings
/// become views into the record's bytes.
using FieldView = std::variant<std::int64_t, std::string_view>;

/// Mirrors field_value_num: ints are numeric; strings are numeric when
/// they parse as decimal integers.
std::optional<std::int64_t> field_view_num(const FieldView& v);

/// Three-way textual comparison against `rhs_text`, rendering an integer
/// lhs into a stack buffer (no allocation). Matches the rendering of
/// field_value_text. Returns -1/0/1.
int field_view_text_cmp(const FieldView& lhs, std::string_view rhs_text);

/// Three-way comparison with the template-matching semantics: numeric when
/// both sides have a numeric view, textual otherwise. Returns -1/0/1.
int field_view_cmp(const FieldView& lhs, const FieldView& rhs);

struct FieldDesc {
  std::string name;
  std::size_t offset = 0;  // within the record body
  std::size_t length = 0;  // 0 = counted string
  int base = 10;           // display/compare base; 0 = string
};

struct EventDesc {
  std::string name;          // "SEND"
  std::uint32_t type = 0;    // traceType value
  std::vector<FieldDesc> fields;
};

/// Why Descriptions::parse rejected a description file.
struct DescriptionError {
  enum class Kind {
    empty,             // no event descriptions at all
    syntax,            // missing type number or malformed field token
    bad_type,          // type number not in 1..2^32-1
    duplicate_type,    // a type number described twice
    missing_length,    // counted string with no earlier "<name>Len" field
    too_many_strings,  // more than WirePlan::kMaxStringFields strings
    too_many_fields,   // more than WirePlan::kMaxFields layout fields
    duplicate_field,   // a field name used twice (header names included)
  };
  Kind kind = Kind::syntax;
  int line = 0;         // 1-based line of the offending description; 0 = file
  std::string message;  // "line N: ..." (the file-level error has no line)
};

/// Field locators for one event type, resolved once from its description:
/// lets the filter read individual fields straight off the wire (and
/// bounds-validate a whole record) without materializing a Record. Field
/// indices match Descriptions::record_layout / Record::fields order.
/// Descriptions::parse only builds plans the view path can run (see the
/// limits below), so every described type has one.
class WirePlan {
 public:
  std::size_t field_count() const { return fields_.size(); }
  const std::vector<std::string>& field_names() const { return names_; }
  /// Pre-rendered " <name>=" fragment per layout field: the trace renderer
  /// appends one string per field instead of three.
  const std::vector<std::string>& name_eq() const { return name_eq_; }

  /// Counted strings are resolved with a bounded stack scratchpad, so a
  /// description may carry at most this many. Callers that share a
  /// scratch across validate/evaluate/extract size it with this.
  static constexpr std::size_t kMaxStringFields = 16;
  /// Layout fields (the five header fields included) the view renderer
  /// extracts onto its stack; a description may carry at most this many.
  static constexpr std::size_t kMaxFields = 32;
  /// The described event's name ("SEND").
  const std::string& event_name() const { return event_name_; }
  /// This plan's position among its Descriptions' plans (ascending type
  /// order): the type→plan index's result, which per-type tables built
  /// from the same Descriptions (the filter bytecode) index by.
  std::size_t index() const { return index_; }

  /// Index of `name` in the layout, or npos. Layout names are unique.
  std::size_t index_of(std::string_view name) const;

  /// Extracts layout field `i`; nullopt when the record is too short or a
  /// string length is inconsistent (exactly when decode() would fail).
  /// `strings` (when non-null) is a scratch previously filled by the
  /// validating overload of validate() for this same record — string
  /// fields then read straight from it instead of re-walking the record.
  std::optional<FieldView> field(const RecordView& v, std::size_t i,
                                 const std::string_view* strings = nullptr) const;

  /// Extracts every layout field of `v` in one pass into `out` (at least
  /// `cap` slots, indexed like field_names()). The single-pass form the
  /// view-direct trace renderer uses: strings are resolved once instead of
  /// once per field (or reused from `strings`, as in field()). False
  /// (nothing written) when `cap` is too small or the record is malformed.
  bool extract(const RecordView& v, FieldView* out, std::size_t cap,
               const std::string_view* strings = nullptr) const;

  /// Bounds-validates every described field of `v` without extracting
  /// strings; true exactly when Descriptions::decode would succeed.
  bool validate(const RecordView& v) const;

  /// Same verdict, and on success leaves the record's resolved string
  /// views in `strings` (at least kMaxStringFields slots) for reuse by
  /// field()/extract() on this same record — the strings are walked once
  /// per record instead of once per consumer.
  bool validate(const RecordView& v, std::string_view* strings) const;

 private:
  friend class Descriptions;
  /// Resolves `desc` (described on line `line`); nullopt, with `error`
  /// filled, when it breaks one of the limits above.
  static std::optional<WirePlan> build(const EventDesc& desc, int line,
                                       DescriptionError* error);

  struct Loc {
    std::size_t offset = 0;    // absolute within the record (ints only)
    std::size_t length = 0;    // integer width; 0 = counted string
    int ordinal = -1;          // position among the type's string fields
    std::size_t len_field = 0; // layout index of the "<name>Len" field
  };
  /// Computes the views of string ordinals [0, k]; false on bounds errors.
  bool string_views(const RecordView& v, int k, std::string_view* out) const;

  std::size_t index_ = 0;
  std::string event_name_;            // description name, for trace rendering
  std::vector<Loc> fields_;           // layout order: 5 header fields + body
  std::vector<std::string> names_;    // layout order, same indexing
  std::vector<std::string> name_eq_;  // " <name>=", same indexing
  std::size_t fixed_end_ = 0;         // max offset+length over integer fields
  std::size_t string_base_ = 0;       // absolute offset of the first string byte
  std::vector<std::size_t> strings_;  // layout indices of string fields, in order
};

/// A decoded event record: ordered (name, value) pairs, header fields
/// first. Field order matters for the trace file rendering.
struct Record {
  std::uint32_t type = 0;
  std::string event_name;
  std::vector<std::pair<std::string, FieldValue>> fields;

  const FieldValue* find(const std::string& name) const;
  std::optional<std::int64_t> num(const std::string& name) const;
  std::optional<std::string> text(const std::string& name) const;
};

class Descriptions {
 public:
  /// Parses a description file; returns nullopt and fills `error` on
  /// malformed input, and on any description the wire-view path cannot
  /// run (a record of such a type could never be decoded or rendered).
  static std::optional<Descriptions> parse(const std::string& text,
                                           DescriptionError* error = nullptr);

  const EventDesc* by_type(std::uint32_t type) const;
  const EventDesc* by_name(const std::string& name) const;
  std::size_t size() const { return by_type_.size(); }

  /// All described traceType values, ascending.
  std::vector<std::uint32_t> types() const;

  /// Field names of a decoded record of `type`, in Record::fields order:
  /// the fixed header fields first, then the described body fields (the
  /// type's WirePlan::field_names()). Empty when the type is not
  /// described.
  std::vector<std::string> record_layout(std::uint32_t type) const;

  /// Decodes one complete raw meter message (header + body). Returns
  /// nullopt if the record is malformed or its type is not described.
  std::optional<Record> decode(const util::Bytes& raw) const;
  std::optional<Record> decode(const std::uint8_t* raw, std::size_t size) const;

  /// The type→plan index: the resolved wire plan for `type`; nullptr when
  /// undescribed.
  const WirePlan* wire_plan(std::uint32_t type) const;

 private:
  /// Plans for small type numbers live in a dense vector so the per-record
  /// lookup on the filter hot path is one bounds check and an index, not a
  /// map walk. Unreasonably large type numbers (nothing standard) overflow
  /// into the map. An undescribed dense slot holds a default plan with no
  /// fields, which wire_plan() reports as nullptr.
  static constexpr std::uint32_t kPlanCacheMax = 4096;

  std::map<std::uint32_t, EventDesc> by_type_;
  std::vector<WirePlan> plan_cache_;      // indexed by type, types < kPlanCacheMax
  std::map<std::uint32_t, WirePlan> plans_;  // types >= kPlanCacheMax
};

/// The standard description file installed on every machine (describes all
/// ten meter event types in this kernel's wire layout).
const std::string& default_descriptions_text();

}  // namespace dpm::filter
