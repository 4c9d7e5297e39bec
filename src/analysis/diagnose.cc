#include "analysis/diagnose.h"

#include <algorithm>
#include <map>

#include "util/strings.h"

namespace dpm::analysis {

bool Diagnosis::has(const std::string& category) const {
  for (const auto& f : findings) {
    if (f.category == category) return true;
  }
  return false;
}

std::string Diagnosis::render() const {
  if (findings.empty()) return "== diagnosis ==\n(nothing notable)\n";
  std::string out = "== diagnosis ==\n";
  for (const auto& f : findings) {
    const char* tag = f.severity == Severity::warning ? "WARN"
                      : f.severity == Severity::notice ? "note"
                                                       : "info";
    out += util::strprintf("[%s] %s\n", tag, f.message.c_str());
  }
  return out;
}

Diagnosis diagnose(const Trace& trace) {
  const TraceFacts facts(trace);
  return diagnose(facts, communication_statistics(facts),
                  measure_parallelism(facts));
}

Diagnosis diagnose(const TraceFacts& facts, const CommStats& stats,
                   const ParallelismProfile& par) {
  Diagnosis d;
  const Trace& trace = facts.trace;
  if (trace.events.empty()) return d;
  const Ordering& ordering = facts.ordering;

  // ---- starved processes ----
  // Waiting is summed over recvcall→receive intervals on aligned clocks,
  // against the process's whole aligned window (lo..hi), and attributed
  // to the peer whose matched send ended each wait.
  for (const auto& [key, a] : facts.activity) {
    const std::int64_t window = a.hi - a.lo;
    if (window <= 0) continue;
    std::int64_t waiting = 0;
    std::map<ProcKey, std::int64_t> waited_on;  // peer -> summed wait
    for (const Wait& w : a.waits) {
      waiting += w.to - w.from;
      if (const auto send = ordering.events[w.recv].matched_send) {
        waited_on[trace.events[*send].proc()] += w.to - w.from;
      }
    }
    const double frac = static_cast<double>(waiting) /
                        static_cast<double>(window);
    if (frac < 0.5) continue;
    std::string msg = util::strprintf(
        "%s spends %.0f%% of its window waiting for messages",
        proc_key_text(key).c_str(), 100.0 * frac);
    const auto dominant = std::max_element(
        waited_on.begin(), waited_on.end(),
        [](const auto& x, const auto& y) { return x.second < y.second; });
    if (dominant != waited_on.end() && dominant->second > 0) {
      msg += ", mostly on " + proc_key_text(dominant->first);
    }
    d.findings.push_back({Severity::warning, "wait", msg});
  }

  // ---- serialization ----
  if (par.processes >= 3 && par.average < 1.3) {
    d.findings.push_back(
        {Severity::warning, "serial",
         util::strprintf("average parallelism is %.2f across %zu processes: "
                         "the computation is effectively serial",
                         par.average, par.processes)});
  }

  // ---- traffic hot spot ----
  if (stats.graph.edges.size() >= 3) {
    std::uint64_t total = 0, top = 0;
    const CommEdge* top_edge = nullptr;
    for (const auto& e : stats.graph.edges) {
      total += e.bytes;
      if (e.bytes > top) {
        top = e.bytes;
        top_edge = &e;
      }
    }
    if (top_edge && total > 0 && top * 2 > total) {
      d.findings.push_back(
          {Severity::notice, "hotspot",
           util::strprintf("%s -> %s carries %.0f%% of all attributed bytes",
                           proc_key_text(top_edge->from).c_str(),
                           proc_key_text(top_edge->to).c_str(),
                           100.0 * static_cast<double>(top) /
                               static_cast<double>(total))});
    }
  }

  // ---- datagram loss ----
  {
    std::uint64_t dgram_sends = 0, dgram_recvs = 0;
    for (const Event& e : trace.events) {
      if (e.type == meter::EventType::send && e.dest_name != 0 &&
          facts.ordering.matcher.owner_of_name(e.dest_name)) {
        ++dgram_sends;
      }
      if (e.type == meter::EventType::recv && e.source_name != 0 &&
          facts.ordering.matcher.owner_of_name(e.source_name)) {
        ++dgram_recvs;
      }
    }
    if (dgram_sends > dgram_recvs && dgram_recvs > 0) {
      d.findings.push_back(
          {Severity::warning, "loss",
           util::strprintf("%llu of %llu attributable datagrams never "
                           "arrived (%.0f%% loss)",
                           static_cast<unsigned long long>(dgram_sends -
                                                           dgram_recvs),
                           static_cast<unsigned long long>(dgram_sends),
                           100.0 * static_cast<double>(dgram_sends - dgram_recvs) /
                               static_cast<double>(dgram_sends))});
    }
  }

  // ---- clock skew ----
  if (ordering.clock_anomalies > 0) {
    d.findings.push_back(
        {Severity::info, "clocks",
         util::strprintf("machine clocks disagree: %zu receive records are "
                         "stamped before their sends (up to %lld us) — "
                         "trust the deduced order, not the timestamps",
                         ordering.clock_anomalies,
                         static_cast<long long>(ordering.max_anomaly_us))});
  }
  return d;
}

}  // namespace dpm::analysis
