// Helpers to build synthetic traces for the analysis tests: serialize
// meter messages, decode them with the standard descriptions, render
// trace lines — the same path a real filter takes.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/trace_reader.h"
#include "filter/descriptions.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::analysis_testing {

struct Stamp {
  std::uint16_t machine = 0;
  std::int64_t cpu_time = 0;
  std::int64_t proc_time = 0;
};

inline std::string trace_text(
    const std::vector<std::pair<Stamp, meter::MeterBody>>& events) {
  static const filter::Descriptions desc =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  std::string out;
  for (const auto& [stamp, body] : events) {
    meter::MeterMsg m;
    m.body = body;
    m.header.machine = stamp.machine;
    m.header.cpu_time = stamp.cpu_time;
    m.header.proc_time = stamp.proc_time;
    auto rec = desc.decode(m.serialize());
    EXPECT_TRUE(rec.has_value());
    out += filter::trace_line(*rec, {});
  }
  return out;
}

inline analysis::Trace make_trace(
    const std::vector<std::pair<Stamp, meter::MeterBody>>& events) {
  return analysis::read_trace(trace_text(events));
}

/// The Record path read_trace promises to match: parse_trace, then
/// event_from_record per record; a record it rejects counts as malformed.
inline analysis::Trace record_path(const std::string& text) {
  const filter::ParsedTrace parsed = filter::parse_trace(text);
  analysis::Trace out;
  out.malformed = parsed.malformed;
  for (const auto& rec : parsed.records) {
    auto e = analysis::event_from_record(rec);
    if (!e) {
      ++out.malformed;
      continue;
    }
    e->event.index = out.events.size();
    out.events.push_back(e->interned(out.names));
  }
  return out;
}

/// One event's fields, socket names as text (ids differ across tables).
inline std::string event_text(const analysis::Event& e,
                              const analysis::NameTable& names) {
  return std::to_string(e.index) + " type=" +
         std::to_string(static_cast<int>(e.type)) +
         " machine=" + std::to_string(e.machine) +
         " cpuTime=" + std::to_string(e.cpu_time) +
         " procTime=" + std::to_string(e.proc_time) +
         " pid=" + std::to_string(e.pid) + " pc=" + std::to_string(e.pc) +
         " sock=" + std::to_string(e.sock) +
         " newSock=" + std::to_string(e.new_sock) +
         " msgLength=" + std::to_string(e.msg_length) +
         " newPid=" + std::to_string(e.new_pid) +
         " status=" + std::to_string(e.status) + " destName=[" +
         std::string(names.text(e.dest_name)) + "] sourceName=[" +
         std::string(names.text(e.source_name)) + "] sockName=[" +
         std::string(names.text(e.sock_name)) + "] peerName=[" +
         std::string(names.text(e.peer_name)) + "]";
}

/// Where two traces first differ (events, then the malformed count), or
/// "" when they hold the same events.
inline std::string trace_diff(const analysis::Trace& got,
                              const analysis::Trace& want) {
  const std::size_t n = std::min(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string a = event_text(got.events[i], got.names);
    const std::string b = event_text(want.events[i], want.names);
    if (a != b) return "event " + std::to_string(i) + ": " + a + "\n want " + b;
  }
  if (got.events.size() != want.events.size()) {
    return std::to_string(got.events.size()) + " events, want " +
           std::to_string(want.events.size());
  }
  if (got.malformed != want.malformed) {
    return std::to_string(got.malformed) + " malformed, want " +
           std::to_string(want.malformed);
  }
  return "";
}

}  // namespace dpm::analysis_testing
