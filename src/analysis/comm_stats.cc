#include "analysis/comm_stats.h"

namespace dpm::analysis {

namespace {

CommStats statistics(const Trace& trace, const ConnectionMatcher& matcher,
                     const ProcessSlots& slots) {
  CommStats out;
  out.graph = build_comm_graph(trace, matcher, slots);

  std::vector<ProcessStats> per_slot(slots.procs.size());
  std::vector<bool> started(slots.procs.size(), false);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    const std::uint32_t slot = slots.of_event[i];
    ProcessStats& p = per_slot[slot];
    ++out.total_events;
    if (!started[slot]) {
      started[slot] = true;
      p.first_cpu_time = e.cpu_time;
    }
    p.last_cpu_time = e.cpu_time;
    p.final_proc_time = e.proc_time;

    switch (e.type) {
      case meter::EventType::send:
        ++p.sends;
        p.send_bytes += e.msg_length;
        ++out.total_messages;
        out.total_bytes += e.msg_length;
        break;
      case meter::EventType::recv:
        ++p.recvs;
        p.recv_bytes += e.msg_length;
        break;
      case meter::EventType::recvcall:
        ++p.recv_calls;
        break;
      case meter::EventType::sockcrt:
        ++p.sockets_created;
        break;
      case meter::EventType::destsock:
        ++p.sockets_closed;
        break;
      case meter::EventType::fork:
        ++p.forks;
        break;
      case meter::EventType::accept:
        ++p.accepts;
        break;
      case meter::EventType::connect:
        ++p.connects;
        break;
      case meter::EventType::termproc:
        p.terminated = true;
        break;
      case meter::EventType::dup:
        break;
    }
  }
  for (std::size_t s = 0; s < per_slot.size(); ++s) {
    out.per_process.emplace_hint(out.per_process.end(), slots.procs[s],
                                 per_slot[s]);
  }
  return out;
}

}  // namespace

CommStats communication_statistics(const Trace& trace) {
  return statistics(trace, ConnectionMatcher(trace), ProcessSlots(trace));
}

CommStats communication_statistics(const TraceFacts& facts) {
  return statistics(facts.trace, facts.ordering.matcher, facts.slots);
}

}  // namespace dpm::analysis
