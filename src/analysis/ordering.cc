#include "analysis/ordering.h"

#include <algorithm>
#include <cassert>

#include "analysis/live/pairing.h"

namespace dpm::analysis {

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

}  // namespace

Ordering order_events(const Trace& trace) {
  return order_events(trace, ProcessSlots(trace));
}

Ordering order_events(const Trace& trace, const ProcessSlots& slots) {
  Ordering out;
  const auto n = static_cast<std::uint32_t>(trace.events.size());
  out.events.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) out.events[i].index = i;

  // ---- Match sends to receives per directed channel ----
  // The channel semantics (k-th send with k-th receive, stream channels
  // keyed by the sending endpoint, datagram traffic by name ownership)
  // live in the incremental PairingCore shared with the streaming
  // aggregator — the batch path just feeds it the whole trace.
  live::PairingCore pairing(trace.names);
  for (std::uint32_t i = 0; i < n; ++i) pairing.observe(trace.events[i], i);

  // Every event has at most two successors in the happens-before DAG:
  // its matched receive (a send pairs at most once) and the next event of
  // its process. Two flat arrays hold them; kNone marks "no successor".
  // Likewise at most two predecessors, so an in-degree fits a byte.
  std::vector<std::uint32_t> recv_of(n, kNone);
  std::vector<std::uint32_t> next_in_proc(n, kNone);
  std::vector<std::uint8_t> indeg(n, 0);

  for (const auto& p : pairing.take_pairs()) {
    out.events[p.recv].matched_send = static_cast<std::uint32_t>(p.send);
    recv_of[p.send] = static_cast<std::uint32_t>(p.recv);
    ++indeg[p.recv];
    ++out.message_pairs;
    const Event& se = trace.events[p.send];
    const Event& re = trace.events[p.recv];
    if (se.machine != re.machine) {
      ++out.cross_machine_pairs;
      if (re.cpu_time < se.cpu_time) {
        ++out.clock_anomalies;
        out.max_anomaly_us =
            std::max(out.max_anomaly_us, se.cpu_time - re.cpu_time);
      }
    }
  }

  // ---- Program order within each process ----
  std::vector<std::uint32_t> last_of(slots.procs.size(), kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t& last = last_of[slots.of_event[i]];
    if (last != kNone) {
      next_in_proc[last] = i;
      ++indeg[i];
    }
    last = i;
  }

  // ---- Lamport clocks by topological order (Kahn) ----
  // `ready` is the FIFO: every event is pushed at most once, so a vector
  // read from `head` never needs to drop its front.
  std::vector<std::uint32_t> ready;
  ready.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    assert(indeg[i] <= 2);
    out.events[i].lamport = 1;
    if (indeg[i] == 0) ready.push_back(i);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::uint32_t i = ready[head];
    for (const std::uint32_t j : {recv_of[i], next_in_proc[i]}) {
      if (j == kNone) continue;
      out.events[j].lamport =
          std::max(out.events[j].lamport, out.events[i].lamport + 1);
      if (--indeg[j] == 0) ready.push_back(j);
    }
  }
  out.had_cycle = ready.size() != n;  // possible only from mis-matched pairs
  out.matcher = pairing.take_matcher();
  return out;
}

ClockAlignment estimate_clock_alignment(const Trace& trace,
                                        const Ordering& ordering) {
  // The machines in ascending id order, each with a dense slot.
  std::vector<std::uint32_t> slot_of;  // machine id -> slot (kNone: absent)
  for (const Event& e : trace.events) {
    if (e.machine >= slot_of.size()) slot_of.resize(e.machine + 1u, kNone);
    slot_of[e.machine] = 0;
  }
  std::vector<std::uint16_t> machines;
  for (std::size_t id = 0; id < slot_of.size(); ++id) {
    if (slot_of[id] == kNone) continue;
    slot_of[id] = static_cast<std::uint32_t>(machines.size());
    machines.push_back(static_cast<std::uint16_t>(id));
  }
  const std::size_t m = machines.size();

  // Minimum observed (recv - send) per directed machine pair, row = the
  // sender's slot.
  std::vector<std::int64_t> min_delta(m * m, 0);
  std::vector<bool> seen(m * m, false);
  for (const OrderedEvent& oe : ordering.events) {
    if (!oe.matched_send) continue;
    const Event& recv = trace.events[oe.index];
    const Event& send = trace.events[*oe.matched_send];
    if (recv.machine == send.machine) continue;
    const std::int64_t delta = recv.cpu_time - send.cpu_time;
    const std::size_t k = slot_of[send.machine] * m + slot_of[recv.machine];
    if (!seen[k] || delta < min_delta[k]) {
      min_delta[k] = delta;
      seen[k] = true;
    }
  }

  // Pairwise offset estimates; BFS over the "has traffic" graph anchors
  // each component at its lowest machine id.
  auto pair_offset = [&](std::size_t a,
                         std::size_t b) -> std::optional<std::int64_t> {
    const std::size_t ab = a * m + b;
    const std::size_t ba = b * m + a;
    if (seen[ab] && seen[ba]) {
      return (min_delta[ab] - min_delta[ba]) / 2;  // offset_b - offset_a
    }
    if (seen[ab]) return min_delta[ab];  // latency unknown: bound
    if (seen[ba]) return -min_delta[ba];
    return std::nullopt;
  };

  std::vector<std::int64_t> offset(m, 0);
  std::vector<bool> done(m, false);
  std::vector<std::size_t> frontier;
  frontier.reserve(m);
  for (std::size_t root = 0; root < m; ++root) {
    if (done[root]) continue;
    done[root] = true;
    frontier.assign(1, root);
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t a = frontier[head];
      for (std::size_t b = 0; b < m; ++b) {
        if (done[b]) continue;
        const auto off = pair_offset(a, b);
        if (!off) continue;
        offset[b] = offset[a] + *off;
        done[b] = true;
        frontier.push_back(b);
      }
    }
  }

  ClockAlignment out;
  for (std::size_t s = 0; s < m; ++s) {
    out.offset_us.emplace_hint(out.offset_us.end(), machines[s], offset[s]);
  }
  return out;
}

}  // namespace dpm::analysis
