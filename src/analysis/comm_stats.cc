#include "analysis/comm_stats.h"

namespace dpm::analysis {

CommStats communication_statistics(const Trace& trace) {
  return communication_statistics(trace, ConnectionMatcher(trace));
}

CommStats communication_statistics(const Trace& trace,
                                   const ConnectionMatcher& matcher) {
  CommStats out;
  out.graph = build_comm_graph(trace, matcher);

  for (const Event& e : trace.events) {
    auto [it, fresh] = out.per_process.try_emplace(e.proc());
    ProcessStats& p = it->second;
    ++out.total_events;
    if (fresh) p.first_cpu_time = e.cpu_time;
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
  return out;
}

}  // namespace dpm::analysis
