// Global event ordering (§4.1).
//
// "The separate machines' times ... only roughly correspond to a global
// time. Statements regarding the global ordering of events can only be
// made on the basis of evidence within the trace. For example, since a
// message must be sent before it may be received, the times of sending
// and receiving a message can always be ordered relative to one another.
// Given these constraints, much of the global ordering can be deduced."
//
// order_events() matches send and receive records into message pairs
// (k-th send on a channel with the k-th receive at its far end — exact
// for datagrams, an approximation for byte streams), combines them with
// per-process program order into a happens-before DAG, assigns Lamport
// clocks, and reports local-clock anomalies: matched pairs whose receive
// carries an *earlier* local timestamp than the send, which can only be
// clock skew.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analysis/structure.h"
#include "analysis/trace_reader.h"

namespace dpm::analysis {

/// An event's place in the deduced order. Indices are 32-bit: a trace
/// holds far fewer than 2^32 events.
struct OrderedEvent {
  std::uint32_t index = 0;  // event index in the trace
  std::optional<std::uint32_t> matched_send;  // for receive events
  std::uint64_t lamport = 0;
};

struct Ordering {
  std::vector<OrderedEvent> events;  // parallel to trace.events
  std::size_t message_pairs = 0;     // matched send/receive pairs
  std::size_t cross_machine_pairs = 0;
  std::size_t clock_anomalies = 0;   // recv local time < send local time
  std::int64_t max_anomaly_us = 0;
  bool had_cycle = false;  // matching produced a cyclic constraint set
  /// The connect/accept join the pairing built over the whole trace.
  ConnectionMatcher matcher;

  std::uint64_t lamport_of(std::size_t trace_index) const {
    return events[trace_index].lamport;
  }
};

Ordering order_events(const Trace& trace);
/// The same ordering, from slots already assigned over `trace`.
Ordering order_events(const Trace& trace, const ProcessSlots& slots);

/// Per-machine clock offset estimates derived from the trace itself.
///
/// For a matched message pair A→B, recvLocal − sendLocal = latency +
/// (offset_B − offset_A); with roughly symmetric latency the midpoint of
/// the two directions' minima estimates offset_B − offset_A (the same
/// principle as the TEMPO time controller the paper cites). Offsets are
/// relative to the lowest-numbered machine in each connected component;
/// machines with no cross-traffic keep offset 0.
struct ClockAlignment {
  std::map<std::uint16_t, std::int64_t> offset_us;

  /// The event's local time shifted onto the reference machine's clock.
  std::int64_t aligned(const Event& e) const {
    auto it = offset_us.find(e.machine);
    return it == offset_us.end() ? e.cpu_time : e.cpu_time - it->second;
  }
};

ClockAlignment estimate_clock_alignment(const Trace& trace,
                                        const Ordering& ordering);

}  // namespace dpm::analysis
