#include "analysis/comm_stats.h"

#include <gtest/gtest.h>

#include "analysis_testing.h"

namespace dpm::analysis {
namespace {

using analysis_testing::Stamp;
using meter::MeterFork;
using meter::MeterRecv;
using meter::MeterRecvCall;
using meter::MeterSend;
using meter::MeterSockCrt;
using meter::MeterTermProc;

TEST(CommStats, PerProcessCounters) {
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 100, 10000}, MeterSockCrt{1, 0, 5, 2, 1, 0}},
      {Stamp{0, 200, 10000}, MeterSend{1, 0, 5, 64, ""}},
      {Stamp{0, 300, 20000}, MeterSend{1, 0, 5, 36, ""}},
      {Stamp{0, 350, 20000}, MeterRecvCall{1, 0, 5}},
      {Stamp{0, 400, 20000}, MeterRecv{1, 0, 5, 128, ""}},
      {Stamp{0, 450, 20000}, MeterFork{1, 0, 2}},
      {Stamp{0, 500, 30000}, MeterTermProc{1, 0, 0}},
  });
  CommStats s = communication_statistics(trace);
  ASSERT_EQ(s.per_process.size(), 1u);
  const ProcessStats& p = s.per_process.at(ProcKey{0, 1});
  EXPECT_EQ(p.sends, 2u);
  EXPECT_EQ(p.send_bytes, 100u);
  EXPECT_EQ(p.recvs, 1u);
  EXPECT_EQ(p.recv_bytes, 128u);
  EXPECT_EQ(p.recv_calls, 1u);
  EXPECT_EQ(p.sockets_created, 1u);
  EXPECT_EQ(p.forks, 1u);
  EXPECT_TRUE(p.terminated);
  EXPECT_EQ(p.first_cpu_time, 100);
  EXPECT_EQ(p.last_cpu_time, 500);
  EXPECT_EQ(p.final_proc_time, 30000);
}

TEST(CommStats, FirstCpuTimeKeepsAZeroStamp) {
  // A process whose first record is stamped 0 is still "seen" there.
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 0, 0}, MeterSockCrt{1, 0, 5, 2, 1, 0}},
      {Stamp{0, 100, 0}, MeterSend{1, 0, 5, 8, ""}},
      {Stamp{0, 200, 0}, MeterTermProc{1, 0, 0}},
  });
  const CommStats s = communication_statistics(trace);
  const ProcessStats& p = s.per_process.at(ProcKey{0, 1});
  EXPECT_EQ(p.first_cpu_time, 0);
  EXPECT_EQ(p.last_cpu_time, 200);
}

TEST(CommStats, Totals) {
  auto trace = analysis_testing::make_trace({
      {Stamp{0, 1, 0}, MeterSend{1, 0, 5, 10, ""}},
      {Stamp{1, 2, 0}, MeterSend{2, 0, 6, 30, ""}},
      {Stamp{1, 3, 0}, MeterRecv{2, 0, 6, 10, ""}},
  });
  CommStats s = communication_statistics(trace);
  EXPECT_EQ(s.total_events, 3u);
  EXPECT_EQ(s.total_messages, 2u);
  EXPECT_EQ(s.total_bytes, 40u);
  EXPECT_EQ(s.per_process.size(), 2u);
}

TEST(CommStats, EmptyTrace) {
  Trace t;
  CommStats s = communication_statistics(t);
  EXPECT_EQ(s.total_events, 0u);
  EXPECT_TRUE(s.per_process.empty());
  EXPECT_TRUE(s.graph.edges.empty());
}

}  // namespace
}  // namespace dpm::analysis
