#include "analysis/ordering.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "analysis/live/pairing.h"

namespace dpm::analysis {

Ordering order_events(const Trace& trace) {
  Ordering out;
  const std::size_t n = trace.events.size();
  out.events.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.events[i].index = i;

  // ---- Match sends to receives per directed channel ----
  // The channel semantics (k-th send with k-th receive, stream channels
  // keyed by the sending endpoint, datagram traffic by name ownership)
  // live in the incremental PairingCore shared with the streaming
  // aggregator — the batch path just feeds it the whole trace.
  live::PairingCore pairing(trace.names);
  for (std::size_t i = 0; i < n; ++i) pairing.observe(trace.events[i], i);

  // Every event has at most two successors in the happens-before DAG:
  // its matched receive (a send pairs at most once) and the next event of
  // its process. Two flat arrays hold them; kNone marks "no successor".
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> recv_of(n, kNone);
  std::vector<std::size_t> next_in_proc(n, kNone);
  std::vector<std::uint32_t> indeg(n, 0);

  for (const auto& p : pairing.take_pairs()) {
    out.events[p.recv].matched_send = p.send;
    recv_of[p.send] = p.recv;
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
  std::map<ProcKey, std::size_t> last_of;
  for (std::size_t i = 0; i < n; ++i) {
    auto [it, fresh] = last_of.try_emplace(trace.events[i].proc(), i);
    if (!fresh) {
      next_in_proc[it->second] = i;
      ++indeg[i];
      it->second = i;
    }
  }

  // ---- Lamport clocks by topological order (Kahn) ----
  // `ready` is the FIFO: every event is pushed at most once, so a vector
  // read from `head` never needs to drop its front.
  std::vector<std::size_t> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.events[i].lamport = 1;
    if (indeg[i] == 0) ready.push_back(i);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t i = ready[head];
    for (const std::size_t j : {recv_of[i], next_in_proc[i]}) {
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
  ClockAlignment out;

  // Minimum observed (recv - send) per directed machine pair.
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::int64_t> min_delta;
  std::set<std::uint16_t> machines;
  for (const Event& e : trace.events) machines.insert(e.machine);

  for (const OrderedEvent& oe : ordering.events) {
    if (!oe.matched_send) continue;
    const Event& recv = trace.events[oe.index];
    const Event& send = trace.events[*oe.matched_send];
    if (recv.machine == send.machine) continue;
    const std::int64_t delta = recv.cpu_time - send.cpu_time;
    auto key = std::make_pair(send.machine, recv.machine);
    auto it = min_delta.find(key);
    if (it == min_delta.end() || delta < it->second) min_delta[key] = delta;
  }

  // Pairwise offset estimates; BFS over the "has traffic" graph anchors
  // each component at its lowest machine id.
  auto pair_offset = [&](std::uint16_t a,
                         std::uint16_t b) -> std::optional<std::int64_t> {
    auto ab = min_delta.find({a, b});
    auto ba = min_delta.find({b, a});
    if (ab != min_delta.end() && ba != min_delta.end()) {
      return (ab->second - ba->second) / 2;  // offset_b - offset_a
    }
    if (ab != min_delta.end()) return ab->second;  // latency unknown: bound
    if (ba != min_delta.end()) return -ba->second;
    return std::nullopt;
  };

  std::set<std::uint16_t> done;
  for (std::uint16_t root : machines) {
    if (done.count(root)) continue;
    out.offset_us[root] = 0;
    done.insert(root);
    std::deque<std::uint16_t> frontier{root};
    while (!frontier.empty()) {
      const std::uint16_t a = frontier.front();
      frontier.pop_front();
      for (std::uint16_t b : machines) {
        if (done.count(b)) continue;
        auto off = pair_offset(a, b);
        if (!off) continue;
        out.offset_us[b] = out.offset_us[a] + *off;
        done.insert(b);
        frontier.push_back(b);
      }
    }
  }
  return out;
}

}  // namespace dpm::analysis
