// A rolling sum/count over a sliding sim-time window.
//
// The live aggregator reports *recent* rates (events/s over the last W
// microseconds of trace time), not lifetime averages — a stalled pipeline
// stage must read as 0/s even though its totals keep standing. Entries
// are (timestamp, weight) pairs in a deque; advance(now) evicts entries
// older than now - span. Timestamps within one window come from a single
// process's (or receiving process's) local clock, so they arrive
// monotonically; advance() clamps regressions instead of un-evicting.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

namespace dpm::analysis::live {

/// a - b, saturated to the int64 range. Trace stamps are input: a line
/// can carry any int64, and the difference of two must not overflow.
inline std::int64_t saturating_sub(std::int64_t a, std::int64_t b) {
  std::int64_t d = 0;
  if (__builtin_sub_overflow(a, b, &d)) return a > b ? INT64_MAX : INT64_MIN;
  return d;
}

class RollingWindow {
 public:
  explicit RollingWindow(std::int64_t span_us = 1'000'000)
      : span_us_(span_us > 0 ? span_us : 1) {}

  /// Records `weight` at trace time `t_us` and evicts what fell out.
  void add(std::int64_t t_us, std::int64_t weight = 1) {
    entries_.emplace_back(t_us, weight);
    sum_ += weight;
    advance(t_us);
  }

  /// Evicts entries with t <= now - span. `now_us` never moves the window
  /// backwards.
  void advance(std::int64_t now_us) {
    if (now_us < now_us_) return;
    now_us_ = now_us;
    // t <= now - span, without computing now - span.
    while (!entries_.empty() &&
           saturating_sub(now_us_, entries_.front().first) >= span_us_) {
      sum_ -= entries_.front().second;
      entries_.pop_front();
    }
  }

  std::size_t count() const { return entries_.size(); }
  std::int64_t sum() const { return sum_; }
  std::int64_t span_us() const { return span_us_; }

  /// sum / window-span, in per-second units.
  double per_second() const {
    return static_cast<double>(sum_) * 1e6 / static_cast<double>(span_us_);
  }

 private:
  std::deque<std::pair<std::int64_t, std::int64_t>> entries_;
  std::int64_t span_us_;
  std::int64_t sum_ = 0;
  std::int64_t now_us_ = INT64_MIN;
};

}  // namespace dpm::analysis::live
