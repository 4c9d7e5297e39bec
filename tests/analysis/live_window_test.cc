// RollingWindow: sliding sim-time sum/count with exact eviction at the
// window boundary; live time arithmetic on extreme trace stamps.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/live/aggregator.h"
#include "analysis/live/window.h"

namespace dpm::analysis::live {
namespace {

TEST(RollingWindow, CountsAndSumsWithinSpan) {
  RollingWindow w(1000);
  w.add(0);
  w.add(500);
  w.add(999);
  EXPECT_EQ(w.count(), 3u);
  EXPECT_EQ(w.sum(), 3);
}

TEST(RollingWindow, EvictsAtExactBoundary) {
  RollingWindow w(1000);
  w.add(0);
  w.add(500);
  w.add(1000);  // cutoff is now 0: the t=0 entry falls out (t <= cutoff)
  EXPECT_EQ(w.count(), 2u);
  w.advance(1500);  // cutoff 500: t=500 falls out
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.sum(), 1);
  w.advance(2001);  // cutoff 1001: empty
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.sum(), 0);
}

TEST(RollingWindow, WeightsAccumulateAndEvict) {
  RollingWindow w(100);
  w.add(10, 64);
  w.add(50, 128);
  EXPECT_EQ(w.sum(), 192);
  w.advance(120);  // cutoff 20: the 64-byte entry leaves
  EXPECT_EQ(w.sum(), 128);
  EXPECT_EQ(w.count(), 1u);
}

TEST(RollingWindow, AdvanceNeverMovesBackwards) {
  RollingWindow w(100);
  w.add(1000, 5);
  w.advance(500);  // regression: ignored, nothing un-evicted or re-evicted
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.sum(), 5);
  w.advance(1101);
  EXPECT_EQ(w.count(), 0u);
}

TEST(RollingWindow, PerSecondScalesBySpan) {
  RollingWindow w(500'000);  // half a second
  w.add(0, 10);
  EXPECT_DOUBLE_EQ(w.per_second(), 20.0);
  w.advance(600'000);
  EXPECT_DOUBLE_EQ(w.per_second(), 0.0);
}

TEST(RollingWindow, EdgeEventCountedInExactlyOneWindow) {
  // Regression for the window-boundary tick: the window at `now` is the
  // half-open interval (now - span, now]. An event landing exactly on the
  // edge between two adjacent windows belongs to the earlier one only —
  // present for every `now` in [t, t + span), evicted at the first tick
  // where now == t + span, so it is never counted twice and never lost.
  const std::int64_t span = 1000;
  const std::int64_t t = 5000;
  RollingWindow w(span);
  w.add(t);
  EXPECT_EQ(w.count(), 1u);          // its own window sees it immediately
  w.advance(t + span - 1);
  EXPECT_EQ(w.count(), 1u);          // last tick of the first window: in
  w.advance(t + span);
  EXPECT_EQ(w.count(), 0u);          // first tick of the next window: out
  EXPECT_EQ(w.sum(), 0);

  // The same edge with a fresh window and one advance step straight over
  // the boundary: the event is still counted exactly once overall.
  RollingWindow v(span);
  v.add(t);
  std::int64_t observed = 0;
  for (std::int64_t now = t; now <= t + span; ++now) {
    v.advance(now);
    observed += v.count();
  }
  EXPECT_EQ(observed, span);  // in for ticks [t, t+span), out at t+span
}

TEST(RollingWindow, NonPositiveSpanClampsToOne) {
  RollingWindow w(0);
  w.add(100);
  EXPECT_EQ(w.count(), 1u);
  w.advance(102);
  EXPECT_EQ(w.count(), 0u);
}

TEST(RollingWindow, ExtremeStampsSaturate) {
  // Stamps are trace input and may be any int64: the cutoff saturates
  // instead of overflowing below INT64_MIN.
  RollingWindow w(1000);
  w.add(INT64_MIN);
  w.add(INT64_MIN + 10);
  EXPECT_EQ(w.count(), 2u);
  w.add(INT64_MAX);  // every earlier entry falls out
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(saturating_sub(INT64_MAX, INT64_MIN), INT64_MAX);
  EXPECT_EQ(saturating_sub(INT64_MIN, 1), INT64_MIN);
  EXPECT_EQ(saturating_sub(5, 7), -2);
}

TEST(LiveAnalysisStamps, CriticalPathSaturatesOnExtremeStamps) {
  // One process whose local clock jumps from near INT64_MIN to near
  // INT64_MAX: the program edge's elapsed time does not fit an int64, so
  // the path cost saturates instead of wrapping to a negative clamped 0.
  LiveAnalysis live;
  Event first;
  first.type = meter::EventType::sockcrt;
  first.machine = 1;
  first.pid = 7;
  first.cpu_time = INT64_MIN + 5;
  Event second = first;
  second.type = meter::EventType::termproc;
  second.cpu_time = INT64_MAX - 5;
  live.add_event(first, live.names());
  live.add_event(second, live.names());
  EXPECT_EQ(live.cost_of(1), INT64_MAX);
}

}  // namespace
}  // namespace dpm::analysis::live
