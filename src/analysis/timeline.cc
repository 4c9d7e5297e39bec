#include "analysis/timeline.h"

#include <algorithm>

#include "util/strings.h"

namespace dpm::analysis {

std::string render_timeline(const Trace& trace, TimelineOptions opts) {
  return render_timeline(TraceFacts(trace), opts);
}

std::string render_timeline(const TraceFacts& facts, TimelineOptions opts) {
  if (facts.activity.empty()) return "(empty trace)\n";
  const int width = std::max(8, opts.width);

  // The window spans every aligned stamp; a row runs from its process's
  // first event to its latest stamp.
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const auto& [key, a] : facts.activity) {
    lo = std::min(lo, a.lo);
    hi = std::max(hi, a.hi);
  }
  if (hi <= lo) hi = lo + 1;

  auto bucket_of = [&](std::int64_t t) {
    const auto b = (t - lo) * width / (hi - lo);
    return static_cast<int>(std::clamp<std::int64_t>(b, 0, width - 1));
  };

  std::string out;
  for (const auto& [key, a] : facts.activity) {
    std::string line(static_cast<std::size_t>(width), ' ');
    for (int b = bucket_of(a.first); b <= bucket_of(a.hi); ++b) {
      line[static_cast<std::size_t>(b)] = '#';
    }
    for (const Wait& w : a.waits) {
      for (int i = bucket_of(w.from); i <= bucket_of(w.to); ++i) {
        line[static_cast<std::size_t>(i)] = '.';
      }
    }
    out += util::strprintf("%-12s |%s|\n", proc_key_text(key).c_str(),
                           line.c_str());
  }
  if (opts.show_legend) {
    out += util::strprintf(
        "window: %lld us ('#' active, '.' waiting for a message)\n",
        static_cast<long long>(hi - lo));
  }
  return out;
}

}  // namespace dpm::analysis
