// Critical-path attribution: the incremental max-cost relaxation must
// report exact, hand-computable paths — per-process compute time from
// program edges, per-channel wait time from message edges.
#include <gtest/gtest.h>

#include "analysis/live/aggregator.h"
#include "analysis/trace_reader.h"
#include "analysis_testing.h"

namespace dpm::analysis {
namespace {

using analysis_testing::Stamp;
using live::EdgeKind;
using live::LiveAnalysis;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;

LiveAnalysis analyze(const std::vector<std::pair<Stamp, meter::MeterBody>>& evs) {
  const Trace trace = read_trace(analysis_testing::trace_text(evs));
  LiveAnalysis live;
  for (const Event& e : trace.events) live.add_event(e, trace.names);
  return live;
}

TEST(CriticalPath, EmptyIsInvalid) {
  LiveAnalysis live;
  EXPECT_FALSE(live.critical_path().valid);
  EXPECT_EQ(live.critical_path().total_us, 0);
}

TEST(CriticalPath, SingleProcessChain) {
  // Three events of one process at t = 0, 100, 250: the path is the
  // program chain, total = elapsed span, all of it attributed to the one
  // process.
  LiveAnalysis live = analyze({
      {Stamp{0, 0, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 100, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 250, 0}, MeterSend{1, 0, 5, 8, ""}},
  });
  const auto cp = live.critical_path();
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.total_us, 250);
  EXPECT_EQ(cp.end_event, 2u);
  ASSERT_EQ(cp.steps.size(), 2u);
  EXPECT_EQ(cp.steps[0].kind, EdgeKind::program);
  EXPECT_EQ(cp.steps[0].elapsed_us, 100);
  EXPECT_EQ(cp.steps[1].elapsed_us, 150);
  const ProcKey p{0, 1};
  ASSERT_TRUE(cp.proc_us.contains(p));
  EXPECT_EQ(cp.proc_us.at(p), 250);
  EXPECT_TRUE(cp.channel_us.empty());
}

TEST(CriticalPath, PingPongWithSkewAttributesBothChannels) {
  // Client (machine 0, pid 1) sends at t=1000; the server's clock runs
  // behind, stamping the receive t=900 (raw latency -100, clamped to 0
  // and counted as an anomaly). The server replies at 1700, received at
  // 2100 (latency 400). The relayed path — 900 compute + 0 + 800 compute
  // + 400 — beats the client's direct 1000→2100 program edge, so both
  // channels appear on the path with exact attribution.
  LiveAnalysis live = analyze({
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "X", "Y"}},
      {Stamp{1, 120, 0}, MeterAccept{2, 0, 7, 9, "Y", "X"}},
      {Stamp{0, 1000, 0}, MeterSend{1, 0, 5, 64, ""}},
      {Stamp{1, 900, 0}, MeterRecv{2, 0, 9, 64, ""}},
      {Stamp{1, 1700, 0}, MeterSend{2, 0, 9, 64, ""}},
      {Stamp{0, 2100, 0}, MeterRecv{1, 0, 5, 64, ""}},
  });
  const ProcKey client{0, 1};
  const ProcKey server{1, 2};

  const auto st = live.stats();
  EXPECT_EQ(st.message_pairs, 2u);
  EXPECT_EQ(st.cross_machine_pairs, 2u);
  EXPECT_EQ(st.clock_anomalies, 1u);
  EXPECT_EQ(st.max_anomaly_us, 100);

  const auto cp = live.critical_path();
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.total_us, 2100);
  EXPECT_EQ(cp.end_event, 5u);
  ASSERT_EQ(cp.steps.size(), 4u);
  EXPECT_EQ(cp.steps[0].kind, EdgeKind::program);  // connect -> send, 900
  EXPECT_EQ(cp.steps[0].elapsed_us, 900);
  EXPECT_EQ(cp.steps[1].kind, EdgeKind::message);  // clamped skewed hop
  EXPECT_EQ(cp.steps[1].elapsed_us, 0);
  EXPECT_EQ(cp.steps[2].kind, EdgeKind::program);  // server compute
  EXPECT_EQ(cp.steps[2].elapsed_us, 800);
  EXPECT_EQ(cp.steps[3].kind, EdgeKind::message);  // reply latency
  EXPECT_EQ(cp.steps[3].elapsed_us, 400);

  ASSERT_TRUE(cp.proc_us.contains(client));
  ASSERT_TRUE(cp.proc_us.contains(server));
  EXPECT_EQ(cp.proc_us.at(client), 900);
  EXPECT_EQ(cp.proc_us.at(server), 800);
  ASSERT_TRUE(cp.channel_us.contains({client, server}));
  ASSERT_TRUE(cp.channel_us.contains({server, client}));
  EXPECT_EQ(cp.channel_us.at({client, server}), 0);
  EXPECT_EQ(cp.channel_us.at({server, client}), 400);
}

TEST(CriticalPath, FanInPicksTheCostlierBranch) {
  // Two senders feed one receiver. The path must run through sender A's
  // 900 us message hop (cost 1000 into the first receive beats the
  // receiver's own 990 us program chain); sender B's 600 us hop loses to
  // the receiver's program edge and must not appear in the attribution.
  LiveAnalysis live = analyze({
      {Stamp{0, 0, 0}, MeterConnect{1, 0, 5, "A1", "B1"}},
      {Stamp{2, 10, 0}, MeterAccept{3, 0, 7, 9, "B1", "A1"}},
      {Stamp{1, 20, 0}, MeterConnect{2, 0, 6, "A2", "B2"}},
      {Stamp{2, 30, 0}, MeterAccept{3, 0, 8, 10, "B2", "A2"}},
      {Stamp{0, 100, 0}, MeterSend{1, 0, 5, 64, ""}},
      {Stamp{1, 500, 0}, MeterSend{2, 0, 6, 64, ""}},
      {Stamp{2, 1000, 0}, MeterRecv{3, 0, 9, 64, ""}},
      {Stamp{2, 1100, 0}, MeterRecv{3, 0, 10, 64, ""}},
  });
  const ProcKey sender_a{0, 1};
  const ProcKey sender_b{1, 2};
  const ProcKey receiver{2, 3};

  EXPECT_EQ(live.stats().message_pairs, 2u);

  const auto cp = live.critical_path();
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.total_us, 1100);
  EXPECT_EQ(cp.end_event, 7u);
  ASSERT_EQ(cp.steps.size(), 3u);
  EXPECT_EQ(cp.steps[1].kind, EdgeKind::message);
  EXPECT_EQ(cp.steps[1].elapsed_us, 900);

  ASSERT_TRUE(cp.channel_us.contains({sender_a, receiver}));
  EXPECT_EQ(cp.channel_us.at({sender_a, receiver}), 900);
  EXPECT_FALSE(cp.channel_us.contains({sender_b, receiver}));
  EXPECT_FALSE(cp.proc_us.contains(sender_b));
  EXPECT_EQ(cp.proc_us.at(sender_a), 100);   // connect -> send
  EXPECT_EQ(cp.proc_us.at(receiver), 100);   // recv -> recv
}

TEST(CriticalPath, GrowsMonotonicallyAsEventsStream) {
  // Feeding one event at a time: total_us never decreases, and each
  // prefix's path is exactly the chain so far.
  const Trace trace = read_trace(analysis_testing::trace_text({
      {Stamp{0, 0, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 40, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 90, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 170, 0}, MeterSend{1, 0, 5, 8, ""}},
  }));
  LiveAnalysis live;
  const std::int64_t expected_total[] = {0, 40, 90, 170};
  std::int64_t prev = -1;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    live.add_event(trace.events[i], trace.names);
    const auto cp = live.critical_path();
    ASSERT_TRUE(cp.valid);
    EXPECT_EQ(cp.total_us, expected_total[i]) << "after event " << i;
    EXPECT_GE(cp.total_us, prev);
    EXPECT_EQ(cp.steps.size(), i);
    prev = cp.total_us;
  }
}

}  // namespace
}  // namespace dpm::analysis
