#include "analysis/facts.h"

#include <algorithm>

namespace dpm::analysis {

namespace {

/// One pass over the trace on aligned clocks: each process's window and
/// its recvcall→receive waits. A recvcall opens a wait on its socket (a
/// later recvcall on the same socket restarts it); the next receive on
/// that socket closes it.
std::map<ProcKey, Activity> activity_of(const Trace& trace,
                                        const ProcessSlots& slots,
                                        const ClockAlignment& clocks) {
  // The clock offsets by machine id, so each event indexes its own.
  const std::uint16_t top =
      clocks.offset_us.empty() ? 0 : clocks.offset_us.rbegin()->first;
  std::vector<std::int64_t> offset(top + 1u, 0);
  for (const auto& [machine, off] : clocks.offset_us) offset[machine] = off;

  const std::size_t procs = slots.procs.size();
  std::vector<Activity> acts(procs);
  std::vector<bool> started(procs, false);
  // Open recvcalls per process as (socket, aligned time): a handful each.
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>> open(procs);

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const Event& e = trace.events[i];
    const std::int64_t t =
        e.machine < offset.size() ? e.cpu_time - offset[e.machine] : e.cpu_time;
    const std::uint32_t slot = slots.of_event[i];
    Activity& a = acts[slot];
    if (!started[slot]) {
      started[slot] = true;
      a.first = a.lo = a.hi = t;
    } else {
      a.lo = std::min(a.lo, t);
      a.hi = std::max(a.hi, t);
    }
    if (e.type != meter::EventType::recvcall &&
        e.type != meter::EventType::recv) {
      continue;
    }
    auto& pending = open[slot];
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

  std::map<ProcKey, Activity> out;
  for (std::size_t s = 0; s < procs; ++s) {
    out.emplace_hint(out.end(), slots.procs[s], std::move(acts[s]));
  }
  return out;
}

}  // namespace

TraceFacts::TraceFacts(const Trace& trace)
    : trace(trace),
      slots(trace),
      ordering(order_events(trace, slots)),
      clocks(estimate_clock_alignment(trace, ordering)),
      activity(activity_of(trace, slots, clocks)) {}

}  // namespace dpm::analysis
