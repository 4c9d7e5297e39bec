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
  // aligned times of the facts' activity pass. Each process contributes a
  // run of +1/-1 deltas for its activity interval (window minus waits):
  // +1 at its first event, a -1/+1 pair per wait, -1 at its latest stamp.
  // Waits close in trace order, so a run is in time order unless its
  // waits overlap or its stamps step backwards; such a run is sorted on
  // its own. The runs are then merged.
  struct Delta {
    std::int64_t t;
    int d;
  };
  struct Run {
    std::size_t pos;
    std::size_t end;
  };
  std::size_t total = 0;
  for (const auto& [key, a] : facts.activity) total += 2 + 2 * a.waits.size();
  std::vector<Delta> deltas;
  deltas.reserve(total);
  std::vector<Run> runs;
  runs.reserve(facts.activity.size());
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  const auto by_time = [](const Delta& x, const Delta& y) { return x.t < y.t; };
  for (const auto& [key, a] : facts.activity) {
    lo = std::min(lo, a.first);
    hi = std::max(hi, a.hi);
    const std::size_t start = deltas.size();
    deltas.push_back({a.first, 1});
    for (const Wait& w : a.waits) {
      const std::int64_t wa = std::clamp(w.from, a.first, a.hi);
      const std::int64_t wb = std::clamp(w.to, a.first, a.hi);
      if (wb <= wa) continue;
      deltas.push_back({wa, -1});
      deltas.push_back({wb, 1});
    }
    deltas.push_back({a.hi, -1});
    const auto first = deltas.begin() + static_cast<std::ptrdiff_t>(start);
    if (!std::is_sorted(first, deltas.end(), by_time)) {
      std::sort(first, deltas.end(), by_time);
    }
    runs.push_back({start, deltas.size()});
  }
  if (hi <= lo) {
    out.total_us = 0;
    return out;
  }
  out.total_us = hi - lo;
  out.time_at_level.assign(out.processes + 1, 0);

  // Deltas at one instant apply together: only the first of them sees a
  // span (t > prev), with the level every earlier instant left, so the
  // merge may take an instant's deltas in any order. The heap holds each
  // run's next delta, earliest on top.
  const auto later = [&](const Run& x, const Run& y) {
    return deltas[x.pos].t > deltas[y.pos].t;
  };
  std::make_heap(runs.begin(), runs.end(), later);
  int level = 0;
  std::int64_t prev = lo;
  double weighted = 0.0;
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    Run& r = runs.back();
    const auto [t, d] = deltas[r.pos];
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
    if (++r.pos < r.end) {
      std::push_heap(runs.begin(), runs.end(), later);
    } else {
      runs.pop_back();
    }
  }
  out.average = out.total_us > 0 ? weighted / static_cast<double>(out.total_us) : 0.0;
  return out;
}

}  // namespace dpm::analysis
