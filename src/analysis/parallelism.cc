#include "analysis/parallelism.h"

#include <algorithm>

namespace dpm::analysis {

ParallelismProfile measure_parallelism(const Trace& trace) {
  return measure_parallelism(TraceFacts(trace));
}

ParallelismProfile measure_parallelism(const TraceFacts& facts) {
  ParallelismProfile out;
  if (facts.activity.empty()) return out;
  out.processes = facts.activity.size();

  // Local clocks are skewed across machines, so the sweep runs on the
  // aligned times of the facts' activity pass. Build +1/-1 deltas for
  // activity intervals (window minus waits), swept in time order.
  std::vector<std::pair<std::int64_t, int>> deltas;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& [key, a] : facts.activity) {
    lo = std::min(lo, a.first);
    hi = std::max(hi, a.hi);
    deltas.emplace_back(a.first, 1);
    deltas.emplace_back(a.hi, -1);
    for (const Wait& w : a.waits) {
      const std::int64_t wa = std::clamp(w.from, a.first, a.hi);
      const std::int64_t wb = std::clamp(w.to, a.first, a.hi);
      if (wb <= wa) continue;
      deltas.emplace_back(wa, -1);
      deltas.emplace_back(wb, 1);
    }
  }
  if (hi <= lo) {
    out.total_us = 0;
    return out;
  }
  out.total_us = hi - lo;
  out.time_at_level.assign(out.processes + 1, 0);

  // Deltas at one instant apply together: only the first of them sees a
  // span (t > prev), with the level every earlier instant left.
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int level = 0;
  std::int64_t prev = lo;
  double weighted = 0.0;
  for (const auto& [t, d] : deltas) {
    if (t > prev && level >= 0) {
      const std::int64_t span = t - prev;
      const std::size_t k =
          std::min(static_cast<std::size_t>(std::max(level, 0)),
                   out.time_at_level.size() - 1);
      out.time_at_level[k] += span;
      weighted += static_cast<double>(level) * static_cast<double>(span);
    }
    level += d;
    prev = t;
  }
  out.average = out.total_us > 0 ? weighted / static_cast<double>(out.total_us) : 0.0;
  return out;
}

}  // namespace dpm::analysis
