#include "analysis/facts.h"

#include <algorithm>

namespace dpm::analysis {

namespace {

/// One pass over the trace on aligned clocks: each process's window and
/// its recvcall→receive waits. A recvcall opens a wait on its socket (a
/// later recvcall on the same socket restarts it); the next receive on
/// that socket closes it.
std::map<ProcKey, Activity> activity_of(const Trace& trace,
                                        const ClockAlignment& clocks) {
  std::map<ProcKey, Activity> out;
  // Open recvcalls per process as (socket, aligned time): a handful each.
  std::map<ProcKey, std::vector<std::pair<std::uint64_t, std::int64_t>>> open;

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    const std::int64_t t = clocks.aligned(e);
    auto [it, fresh] = out.try_emplace(e.proc());
    Activity& a = it->second;
    if (fresh) {
      a.first = a.lo = a.hi = t;
    } else {
      a.lo = std::min(a.lo, t);
      a.hi = std::max(a.hi, t);
    }
    if (e.type != meter::EventType::recvcall &&
        e.type != meter::EventType::recv) {
      continue;
    }
    auto& pending = open[e.proc()];
    auto p = std::find_if(pending.begin(), pending.end(),
                          [&](const auto& o) { return o.first == e.sock; });
    if (e.type == meter::EventType::recvcall) {
      if (p == pending.end()) {
        pending.emplace_back(e.sock, t);
      } else {
        p->second = t;
      }
    } else if (p != pending.end()) {
      if (t > p->second) a.waits.push_back(Wait{p->second, t, i});
      pending.erase(p);
    }
  }
  return out;
}

}  // namespace

TraceFacts::TraceFacts(const Trace& trace)
    : trace(trace),
      ordering(order_events(trace)),
      clocks(estimate_clock_alignment(trace, ordering)),
      activity(activity_of(trace, clocks)) {}

}  // namespace dpm::analysis
