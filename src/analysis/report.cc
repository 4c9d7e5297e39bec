#include "analysis/report.h"

#include "util/strings.h"

namespace dpm::analysis {

std::string render_comm_stats(const CommStats& stats) {
  std::string out = "== communication statistics ==\n";
  out += util::strprintf("events: %llu  messages sent: %llu  bytes sent: %llu\n",
                         static_cast<unsigned long long>(stats.total_events),
                         static_cast<unsigned long long>(stats.total_messages),
                         static_cast<unsigned long long>(stats.total_bytes));
  out += "process        sends  bytes    recvs  bytes    socks forks cpu(ms)\n";
  for (const auto& [key, p] : stats.per_process) {
    out += util::strprintf("%-14s %-6llu %-8llu %-6llu %-8llu %-5llu %-5llu %lld%s\n",
                           proc_key_text(key).c_str(),
                           static_cast<unsigned long long>(p.sends),
                           static_cast<unsigned long long>(p.send_bytes),
                           static_cast<unsigned long long>(p.recvs),
                           static_cast<unsigned long long>(p.recv_bytes),
                           static_cast<unsigned long long>(p.sockets_created),
                           static_cast<unsigned long long>(p.forks),
                           static_cast<long long>(p.final_proc_time / 1000),
                           p.terminated ? "" : " (no termproc)");
  }
  out += render_graph(stats.graph);
  return out;
}

std::string render_graph(const CommGraph& graph) {
  std::string out = "-- communication graph --\n";
  if (graph.edges.empty()) {
    out += "(no attributable message traffic)\n";
    return out;
  }
  for (const auto& e : graph.edges) {
    out += util::strprintf("%s -> %s : %llu msgs, %llu bytes\n",
                           proc_key_text(e.from).c_str(),
                           proc_key_text(e.to).c_str(),
                           static_cast<unsigned long long>(e.messages),
                           static_cast<unsigned long long>(e.bytes));
  }
  return out;
}

std::string render_ordering(const Trace& trace, const Ordering& ordering) {
  std::string out = "== event ordering ==\n";
  out += util::strprintf(
      "events: %zu  matched message pairs: %zu (cross-machine: %zu)\n",
      trace.events.size(), ordering.message_pairs,
      ordering.cross_machine_pairs);
  out += util::strprintf(
      "clock anomalies (receive stamped before send): %zu, worst %lld us\n",
      ordering.clock_anomalies,
      static_cast<long long>(ordering.max_anomaly_us));
  if (ordering.had_cycle) out += "warning: constraint cycle (mismatched pairs)\n";
  return out;
}

std::string render_parallelism(const ParallelismProfile& p) {
  std::string out = "== parallelism ==\n";
  out += util::strprintf(
      "processes: %zu  window: %lld us  average parallelism: %.2f\n",
      p.processes, static_cast<long long>(p.total_us), p.average);
  for (std::size_t k = 0; k < p.time_at_level.size(); ++k) {
    if (p.time_at_level[k] == 0) continue;
    out += util::strprintf("  %zu active: %5.1f%%\n", k, 100.0 * p.fraction_at(k));
  }
  return out;
}

std::string render_connections(const std::vector<ConnStat>& conns) {
  std::string out = "-- connections --\n";
  if (conns.empty()) {
    out += "(no matched stream connections)\n";
    return out;
  }
  for (const auto& c : conns) {
    out += util::strprintf(
        "%s(s%llu) <-> %s(s%llu): %llu msgs/%llu B ->, %llu msgs/%llu B <-\n",
        proc_key_text(c.a.proc).c_str(),
        static_cast<unsigned long long>(c.a.sock),
        proc_key_text(c.b.proc).c_str(),
        static_cast<unsigned long long>(c.b.sock),
        static_cast<unsigned long long>(c.msgs_ab),
        static_cast<unsigned long long>(c.bytes_ab),
        static_cast<unsigned long long>(c.msgs_ba),
        static_cast<unsigned long long>(c.bytes_ba));
  }
  return out;
}

std::string full_report(const Trace& trace) {
  const TraceFacts facts(trace);
  const ConnectionMatcher& matcher = facts.ordering.matcher;
  const CommStats stats = communication_statistics(facts);
  const ParallelismProfile parallelism = measure_parallelism(facts);
  return render_comm_stats(stats) +
         render_connections(connection_table(trace, matcher)) +
         render_ordering(trace, facts.ordering) +
         render_parallelism(parallelism) + "== timeline ==\n" +
         render_timeline(facts) + diagnose(facts, stats, parallelism).render();
}

}  // namespace dpm::analysis
