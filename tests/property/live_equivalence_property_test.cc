// Randomized streaming-vs-batch equivalence: on arbitrary multi-channel
// workloads with random log interleavings and clock offsets, LiveAnalysis
// fed one event at a time must agree with order_events() on every pair,
// every Lamport clock, and every anomaly count.
#include <gtest/gtest.h>

#include "analysis/analysis_testing.h"
#include "analysis/live/aggregator.h"
#include "analysis/ordering.h"
#include "util/rng.h"

namespace dpm::analysis {
namespace {

using dpm::analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;
using meter::MeterTermProc;

/// Random multi-connection workload (the ordering property test's shape):
/// random machine pairs, per-connection message counts, per-machine clock
/// offsets, and a random per-process-ordered interleaving into the log.
/// Crucially, connects/accepts land at random positions relative to the
/// traffic they route, so the streaming core's parking path is exercised
/// constantly.
std::vector<std::pair<Stamp, meter::MeterBody>> random_workload(
    util::Rng& rng, int nconns) {
  std::vector<std::vector<std::pair<Stamp, meter::MeterBody>>> streams;
  std::int64_t offsets[8];
  for (auto& o : offsets) o = rng.uniform(-50000, 50000);

  for (int c = 0; c < nconns; ++c) {
    const auto ma = static_cast<std::uint16_t>(rng.uniform(0, 7));
    const auto mb = static_cast<std::uint16_t>(rng.uniform(0, 7));
    const std::int32_t pa = 100 + 2 * c, pb = 101 + 2 * c;
    const auto sa = static_cast<std::uint64_t>(10 + 2 * c);
    const auto sb = static_cast<std::uint64_t>(11 + 2 * c);
    const std::string na = "n" + std::to_string(2 * c);
    const std::string nb = "n" + std::to_string(2 * c + 1);

    std::vector<std::pair<Stamp, meter::MeterBody>> a_events, b_events;
    std::int64_t t = rng.uniform(0, 5000);
    a_events.push_back(
        {Stamp{ma, t + offsets[ma], 0}, MeterConnect{pa, 0, sa, na, nb}});
    b_events.push_back({Stamp{mb, t + 200 + offsets[mb], 0},
                        MeterAccept{pb, 0, 20, sb, nb, na}});
    const int msgs = static_cast<int>(rng.uniform(1, 12));
    for (int i = 0; i < msgs; ++i) {
      t += rng.uniform(100, 2000);
      a_events.push_back(
          {Stamp{ma, t + offsets[ma], 0}, MeterSend{pa, 0, sa, 32, ""}});
      b_events.push_back({Stamp{mb, t + rng.uniform(200, 900) + offsets[mb], 0},
                          MeterRecv{pb, 0, sb, 32, ""}});
    }
    a_events.push_back(
        {Stamp{ma, t + 3000 + offsets[ma], 0}, MeterTermProc{pa, 0, 0}});
    b_events.push_back(
        {Stamp{mb, t + 3200 + offsets[mb], 0}, MeterTermProc{pb, 0, 0}});
    streams.push_back(std::move(a_events));
    streams.push_back(std::move(b_events));
  }

  std::vector<std::pair<Stamp, meter::MeterBody>> out;
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (;;) {
    std::vector<std::size_t> ready;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] < streams[s].size()) ready.push_back(s);
    }
    if (ready.empty()) break;
    const std::size_t pick = ready[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ready.size()) - 1))];
    out.push_back(streams[pick][cursor[pick]++]);
  }
  return out;
}

class LiveEquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

INSTANTIATE_TEST_SUITE_P(Seeds, LiveEquivalenceProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(LiveEquivalenceProperty, StreamingMatchesBatchOnRandomWorkloads) {
  util::Rng rng(GetParam() * 7919);
  const auto events =
      random_workload(rng, static_cast<int>(rng.uniform(2, 8)));
  const Trace trace = dpm::analysis_testing::make_trace(events);
  const Ordering ord = order_events(trace);

  live::LiveAnalysis live;
  for (const Event& e : trace.events) live.add_event(e, trace.names);

  ASSERT_EQ(live.events(), trace.events.size());
  const auto st = live.stats();
  EXPECT_EQ(st.message_pairs, ord.message_pairs);
  EXPECT_EQ(st.cross_machine_pairs, ord.cross_machine_pairs);
  EXPECT_EQ(st.clock_anomalies, ord.clock_anomalies);
  EXPECT_EQ(st.max_anomaly_us, ord.max_anomaly_us);
  EXPECT_EQ(st.had_cycle, ord.had_cycle);
  EXPECT_FALSE(st.pairing_disorder);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_EQ(live.lamport_of(i), ord.events[i].lamport) << "at " << i;
    ASSERT_EQ(live.matched_send_of(i), ord.events[i].matched_send)
        << "at " << i;
  }

  // The critical path is consistent with what was streamed: its cost is
  // the maximum node cost, its steps connect end to end, and its
  // attribution sums to the total.
  const auto cp = live.critical_path();
  if (trace.events.empty()) return;
  ASSERT_TRUE(cp.valid);
  std::int64_t max_cost = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    max_cost = std::max(max_cost, live.cost_of(i));
  }
  EXPECT_EQ(cp.total_us, max_cost);
  std::int64_t attributed = 0;
  for (const auto& [proc, us] : cp.proc_us) attributed += us;
  for (const auto& [chan, us] : cp.channel_us) attributed += us;
  EXPECT_EQ(attributed, cp.total_us);
  for (std::size_t s = 1; s < cp.steps.size(); ++s) {
    EXPECT_EQ(cp.steps[s].from, cp.steps[s - 1].to);
  }
  if (!cp.steps.empty()) {
    EXPECT_EQ(cp.steps.back().to, cp.end_event);
  }
}

}  // namespace
}  // namespace dpm::analysis
