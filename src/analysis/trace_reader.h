// Typed view over filter traces — the input to the analysis routines.
//
// "The analysis routines provide the means for interpreting the traces
// created by filters. They give meaning to the data by summarizing and
// operating on the event records collected." (§3.3)
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::analysis {

/// A process identity within a trace: pids are only unique per machine
/// (§3.5.1), so the pair identifies a process.
struct ProcKey {
  std::uint16_t machine = 0;
  std::int32_t pid = 0;
  friend auto operator<=>(const ProcKey&, const ProcKey&) = default;
};

std::string proc_key_text(const ProcKey& k);

/// A socket name interned in a NameTable; 0 is the empty name.
using NameId = std::uint32_t;

/// Socket names interned into dense 32-bit ids, in order of first
/// appearance. A trace holds a few dozen distinct names and tens of
/// thousands of events naming them, so events carry ids and one table
/// holds each name's text once. Ids only compare within one table; where
/// an order must follow the names, compare text() (ByName).
class NameTable {
 public:
  NameTable() = default;
  NameTable(const NameTable& other) { *this = other; }
  NameTable& operator=(const NameTable& other);
  NameTable(NameTable&&) = default;
  NameTable& operator=(NameTable&&) = default;

  /// The id of `name`, added if new; 0 for the empty name.
  NameId intern(std::string_view name);
  /// The text of `id` ("" for 0). Stable while the table lives.
  std::string_view text(NameId id) const {
    return id == 0 ? std::string_view{} : std::string_view(names_[id - 1]);
  }

  /// Orders ids by their names' text.
  struct ByName {
    const NameTable* table = nullptr;
    bool operator()(NameId a, NameId b) const {
      return table->text(a) < table->text(b);
    }
  };

 private:
  std::deque<std::string> names_;  // id - 1 -> text; a deque never moves them
  std::unordered_map<std::string_view, NameId> ids_;  // views into names_
};

/// One trace event with every field the standard meter may produce.
/// Fields that a record does not carry (or that the filter discarded) are
/// left at their defaults. Socket names are ids into the NameTable of the
/// Trace or LiveAnalysis that holds the event. The widest fields come
/// first, so the struct packs into 88 bytes.
struct Event {
  std::int64_t cpu_time = 0;   // local clock (skewed!)
  std::int64_t proc_time = 0;  // CPU time, 10ms grain
  std::uint64_t sock = 0;
  std::uint64_t new_sock = 0;
  std::size_t index = 0;  // position in the trace file
  meter::EventType type = meter::EventType::send;
  std::int32_t pid = 0;
  std::uint32_t pc = 0;
  std::uint32_t msg_length = 0;
  std::int32_t new_pid = 0;
  std::int32_t status = 0;
  NameId dest_name = 0;
  NameId source_name = 0;
  NameId sock_name = 0;
  NameId peer_name = 0;
  std::uint16_t machine = 0;

  ProcKey proc() const { return ProcKey{machine, pid}; }
};
static_assert(sizeof(Event) <= 88, "an Event holds 88 bytes at most");
static_assert(std::is_trivially_copyable_v<Event>,
              "an Event owns no memory: its names live in a NameTable");

/// An Event converted from a decoded record, its socket names still text
/// (the event's name ids are 0): what a filter's record sink hands to
/// LiveAnalysis::add_event, which interns the names into its own table.
struct RecordEvent {
  Event event;
  std::string dest_name;
  std::string source_name;
  std::string sock_name;
  std::string peer_name;

  /// The event, its names interned into `names`.
  Event interned(NameTable& names) const;
};

/// Converts a decoded filter record; nullopt if the event name is unknown.
/// One pass over rec.fields; a repeated field keeps its first value.
std::optional<RecordEvent> event_from_record(const filter::Record& rec);

/// Converts an accepted record straight off its wire view: what the
/// filter hands a sink's RecordSink::on_view, with `strings` the counted
/// strings WirePlan::validate resolved for it. Reads the same fields as
/// event_from_record(*decode(...)) and interns the socket names into
/// `names` in the same order (dest, source, sock, peer), so both paths
/// give one table the same ids. nullopt if the event name is unknown.
std::optional<Event> event_from_view(const filter::RecordView& v,
                                     const filter::WirePlan& plan,
                                     const std::string_view* strings,
                                     NameTable& names);

struct Trace {
  std::vector<Event> events;
  NameTable names;  // the table the events' name ids index
  std::size_t malformed = 0;
};

/// Dense per-process slots for one trace, assigned once: slot k is the
/// k-th process in ProcKey order, so a pass that fills per-slot arrays and
/// then walks them in slot order visits processes as a std::map keyed by
/// ProcKey would. Per-event passes index these arrays instead of searching
/// a tree.
struct ProcessSlots {
  explicit ProcessSlots(const Trace& trace);

  std::vector<ProcKey> procs;            // slot -> process, ascending
  std::vector<std::uint32_t> of_event;   // trace index -> its process's slot
};

/// Parses a filter log file's text. Lines are scanned as views straight
/// into Events — no intermediate Record (or per-field string) is built, so
/// large traces load without per-record churn. Produces the same events
/// and malformed count as converting parse_trace's records one by one.
Trace read_trace(const std::string& text);

/// Parses one trimmed, non-comment trace line into `e`, interning its
/// socket names into `names` — the per-line primitive read_trace is built
/// on, exposed so streaming consumers (analysis/live/ TraceTailer) parse
/// identically to the batch reader. False on a malformed token or an
/// unknown/missing event name; the caller owns skipping blank/'#' lines
/// and assigning `e.index`.
bool parse_trace_event_line(std::string_view line, Event& e, NameTable& names);

}  // namespace dpm::analysis
