// Streaming-vs-batch equivalence: LiveAnalysis fed one event (or one
// text chunk) at a time must reproduce order_events() exactly — same
// pairs, same Lamport clocks, same anomaly counts — on every scenario the
// batch path handles, including a trace recorded from a real metered
// session.
#include <gtest/gtest.h>

#include "analysis/live/aggregator.h"
#include "analysis/ordering.h"
#include "analysis_testing.h"
#include "apps/apps.h"
#include "control/session.h"
#include "filter/filter_program.h"
#include "kernel/world.h"

namespace dpm::analysis {
namespace {

using analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;

/// Batch-analyzes `text` and replays it through LiveAnalysis twice (event
/// by event, and via TraceTailer at several chunk sizes); every view must
/// agree with order_events.
void expect_equivalent(const std::string& text) {
  const Trace trace = read_trace(text);
  const Ordering ord = order_events(trace);

  auto compare = [&](live::LiveAnalysis& live, const char* what) {
    ASSERT_EQ(live.events(), trace.events.size()) << what;
    const auto st = live.stats();
    EXPECT_EQ(st.message_pairs, ord.message_pairs) << what;
    EXPECT_EQ(st.cross_machine_pairs, ord.cross_machine_pairs) << what;
    EXPECT_EQ(st.clock_anomalies, ord.clock_anomalies) << what;
    EXPECT_EQ(st.max_anomaly_us, ord.max_anomaly_us) << what;
    EXPECT_EQ(st.had_cycle, ord.had_cycle) << what;
    EXPECT_FALSE(st.pairing_disorder) << what;
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      EXPECT_EQ(live.lamport_of(i), ord.events[i].lamport)
          << what << " lamport at " << i;
      EXPECT_EQ(live.matched_send_of(i), ord.events[i].matched_send)
          << what << " matched_send at " << i;
    }
  };

  {
    live::LiveAnalysis live;
    for (const Event& e : trace.events) live.add_event(e, trace.names);
    compare(live, "event-by-event");
  }
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, text.size() + 1}) {
    live::LiveAnalysis live;
    live::TraceTailer tailer(live);
    for (std::size_t pos = 0; pos < text.size(); pos += chunk) {
      tailer.feed(std::string_view(text).substr(pos, chunk));
    }
    tailer.finish();
    EXPECT_EQ(tailer.malformed(), 0u);
    compare(live, "tailer");
  }
}

std::vector<std::pair<Stamp, meter::MeterBody>> connected_prefix() {
  return {
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 120, 0}, MeterAccept{2, 0, 7, 9, "131073", "196612"}},
  };
}

TEST(LiveEquivalence, StreamPairs) {
  auto events = connected_prefix();
  for (int i = 0; i < 4; ++i) {
    events.push_back({Stamp{0, 200 + i, 0}, MeterSend{1, 0, 5, 10, ""}});
  }
  for (int i = 0; i < 4; ++i) {
    events.push_back({Stamp{1, 300 + i, 0}, MeterRecv{2, 0, 9, 10, ""}});
  }
  expect_equivalent(analysis_testing::trace_text(events));
}

TEST(LiveEquivalence, InterleavedBidirectionalTraffic) {
  auto events = connected_prefix();
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t = 200 + 100 * i;
    events.push_back({Stamp{0, t, 0}, MeterSend{1, 0, 5, 64, ""}});
    events.push_back({Stamp{1, t + 40, 0}, MeterRecv{2, 0, 9, 64, ""}});
    events.push_back({Stamp{1, t + 50, 0}, MeterSend{2, 0, 9, 32, ""}});
    events.push_back({Stamp{0, t + 90, 0}, MeterRecv{1, 0, 5, 32, ""}});
  }
  expect_equivalent(analysis_testing::trace_text(events));
}

TEST(LiveEquivalence, ReceiveBeforeConnectionEvidence) {
  // The receive (and even the send) arrive before the connect/accept join
  // that routes them: the streaming core must park and then pair exactly
  // as the batch pass — which sees the whole table up front — does.
  expect_equivalent(analysis_testing::trace_text({
      {Stamp{0, 50, 0}, MeterSend{1, 0, 5, 16, ""}},
      {Stamp{1, 60, 0}, MeterRecv{2, 0, 9, 16, ""}},
      {Stamp{0, 100, 0}, MeterConnect{1, 0, 5, "196612", "131073"}},
      {Stamp{1, 120, 0}, MeterAccept{2, 0, 7, 9, "131073", "196612"}},
  }));
}

TEST(LiveEquivalence, DatagramByNameOwnership) {
  // Names learned from connect records route datagram traffic; both the
  // send's destName and the receive's sourceName resolve to owners.
  expect_equivalent(analysis_testing::trace_text({
      {Stamp{0, 10, 0}, MeterConnect{1, 0, 5, "65541", ""}},
      {Stamp{1, 20, 0}, MeterConnect{2, 0, 7, "131078", ""}},
      {Stamp{0, 100, 0}, MeterSend{1, 0, 5, 32, "131078"}},
      {Stamp{1, 150, 0}, MeterRecv{2, 0, 7, 32, "65541"}},
  }));
}

TEST(LiveEquivalence, DatagramBeforeNameResolution) {
  // Datagram traffic parked on unresolved names, flushed when the owner
  // appears.
  expect_equivalent(analysis_testing::trace_text({
      {Stamp{0, 100, 0}, MeterSend{1, 0, 5, 32, "131078"}},
      {Stamp{1, 150, 0}, MeterRecv{2, 0, 7, 32, "65541"}},
      {Stamp{0, 200, 0}, MeterConnect{1, 0, 5, "65541", ""}},
      {Stamp{1, 210, 0}, MeterConnect{2, 0, 7, "131078", ""}},
      {Stamp{0, 300, 0}, MeterSend{1, 0, 5, 32, "131078"}},
      {Stamp{1, 350, 0}, MeterRecv{2, 0, 7, 32, "65541"}},
  }));
}

TEST(LiveEquivalence, ClockSkewAnomalies) {
  auto events = connected_prefix();
  events.push_back({Stamp{0, 5000, 0}, MeterSend{1, 0, 5, 64, ""}});
  events.push_back({Stamp{1, 3000, 0}, MeterRecv{2, 0, 9, 64, ""}});
  expect_equivalent(analysis_testing::trace_text(events));
}

TEST(LiveEquivalence, UnmatchedTrafficStaysParked) {
  const std::string text = analysis_testing::trace_text({
      {Stamp{0, 1, 0}, MeterSend{1, 0, 5, 10, ""}},
      {Stamp{1, 2, 0}, MeterRecv{2, 0, 9, 10, ""}},
  });
  expect_equivalent(text);
  live::LiveAnalysis live;
  live::TraceTailer tailer(live);
  tailer.feed(text);
  tailer.finish();
  EXPECT_EQ(live.stats().message_pairs, 0u);
  EXPECT_EQ(live.stats().parked, 1u);  // the stream receive waits forever
}

TEST(LiveEquivalence, MultipleConnectionsSameNames) {
  // Two connects and two accepts under the same name pair join FIFO.
  std::vector<std::pair<Stamp, meter::MeterBody>> events;
  events.push_back({Stamp{0, 10, 0}, MeterConnect{1, 0, 5, "n1", "n2"}});
  events.push_back({Stamp{0, 20, 0}, MeterConnect{1, 0, 6, "n1", "n2"}});
  events.push_back({Stamp{1, 30, 0}, MeterAccept{2, 0, 7, 9, "n2", "n1"}});
  events.push_back({Stamp{1, 40, 0}, MeterAccept{2, 0, 7, 10, "n2", "n1"}});
  events.push_back({Stamp{0, 100, 0}, MeterSend{1, 0, 5, 8, ""}});
  events.push_back({Stamp{0, 110, 0}, MeterSend{1, 0, 6, 8, ""}});
  events.push_back({Stamp{1, 200, 0}, MeterRecv{2, 0, 9, 8, ""}});
  events.push_back({Stamp{1, 210, 0}, MeterRecv{2, 0, 10, 8, ""}});
  expect_equivalent(analysis_testing::trace_text(events));
}

TEST(LiveEquivalence, RecordedSessionTrace) {
  // A trace recorded end-to-end from a metered session (the same shape
  // the quickstart produces), checked live-vs-batch — and the live sink
  // fed during the run must agree with the tailed log afterwards.
  kernel::World world;
  const kernel::MachineId red = world.add_machine("red");
  world.add_machine("green");
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);

  live::LiveAnalysis from_sink;
  auto sink = std::make_shared<live::LiveRecordSink>(from_sink);
  filter::install_live_sink(world, sink);

  control::MonitorSession session(world, {.host = "red", .uid = 100});
  world.run();
  (void)session.drain_output();
  (void)session.command("filter f1 red");
  (void)session.command("newjob eq");
  (void)session.command("addprocess eq green pingpong_server 4810 5");
  (void)session.command("addprocess eq red pingpong_client green 4810 5 64");
  (void)session.command("setflags eq all");
  (void)session.command("startjob eq");
  (void)session.command("removejob eq");
  (void)session.command("getlog f1 eq.trace");
  session.send_line("bye");
  world.run();

  auto text = world.machine(red).fs.read_text("eq.trace");
  ASSERT_TRUE(text.has_value());
  ASSERT_FALSE(text->empty());
  expect_equivalent(*text);

  // The sink saw the records in log order; its clocks must match too.
  EXPECT_EQ(sink->dropped(), 0u);
  const Trace trace = read_trace(*text);
  const Ordering ord = order_events(trace);
  ASSERT_EQ(from_sink.events(), trace.events.size());
  EXPECT_EQ(from_sink.stats().message_pairs, ord.message_pairs);
  EXPECT_GT(ord.cross_machine_pairs, 0u);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(from_sink.lamport_of(i), ord.events[i].lamport);
  }
}

}  // namespace
}  // namespace dpm::analysis
