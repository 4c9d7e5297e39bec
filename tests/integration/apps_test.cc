// Application workloads under the monitor: the ring's structure is
// recovered by analysis; the distributed TSP matches a sequential solve;
// datagram loss shows up as missing receives, not errors.
#include <gtest/gtest.h>

#include "analysis/comm_stats.h"
#include "analysis/ordering.h"
#include "analysis/parallelism.h"
#include "apps/apps.h"
#include "control/session.h"
#include "testing.h"
#include "util/strings.h"

namespace dpm {
namespace {

std::unique_ptr<control::MonitorSession> boot(
    kernel::World& world, const std::vector<std::string>& names) {
  dpm::testing::add_machines(world, names);
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);
  auto s = std::make_unique<control::MonitorSession>(
      world, control::MonitorSession::Options{.host = names[0], .uid = 100});
  world.run();
  (void)s->drain_output();
  return s;
}

analysis::Trace fetch_trace(kernel::World& world,
                            control::MonitorSession& session,
                            const std::string& filter_name) {
  (void)session.command("getlog " + filter_name + " trace.out");
  auto text = world.machine(session.host()).fs.read_text("trace.out");
  EXPECT_TRUE(text.has_value());
  return analysis::read_trace(text.value_or(""));
}

TEST(AppsTest, RingStructureRecoveredByAnalysis) {
  kernel::World world(dpm::testing::quick_config(21));
  auto session = boot(world, {"yellow", "red", "green", "blue"});
  (void)session->command("filter f1");
  (void)session->command("newjob ring");
  const char* hosts[] = {"red", "green", "blue"};
  for (int i = 0; i < 3; ++i) {
    (void)session->command(util::strprintf(
        "addprocess ring %s ring_node %d 3 3 8600 red green blue", hosts[i],
        i));
  }
  (void)session->command("setflags ring all");
  std::string out = session->command("startjob ring");
  EXPECT_NE(out.find("terminated: reason: normal"), std::string::npos) << out;
  (void)session->command("removejob ring");

  analysis::Trace trace = fetch_trace(world, *session, "f1");
  analysis::CommStats stats = analysis::communication_statistics(trace);
  ASSERT_EQ(stats.per_process.size(), 3u);

  // The communication graph is exactly a 3-cycle.
  EXPECT_EQ(stats.graph.edges.size(), 3u);
  std::map<analysis::ProcKey, int> out_deg, in_deg;
  for (const auto& e : stats.graph.edges) {
    ++out_deg[e.from];
    ++in_deg[e.to];
    EXPECT_EQ(e.messages, 3u);  // three full circulations of the token
  }
  for (const auto& [k, d] : out_deg) EXPECT_EQ(d, 1);
  for (const auto& [k, d] : in_deg) EXPECT_EQ(d, 1);

  analysis::Ordering ordering = analysis::order_events(trace);
  EXPECT_FALSE(ordering.had_cycle);
  EXPECT_GT(ordering.message_pairs, 0u);
}

TEST(AppsTest, TspDistributedMatchesSequential) {
  kernel::World world(dpm::testing::quick_config(23));
  auto session = boot(world, {"yellow", "red", "green", "blue"});
  (void)session->command("filter f1");
  (void)session->command("newjob tsp");
  (void)session->command("addprocess tsp red tsp_master 9100 2 8 42");
  (void)session->command("addprocess tsp green tsp_worker red 9100");
  (void)session->command("addprocess tsp blue tsp_worker red 9100");
  (void)session->command("setflags tsp send receive");
  std::string out = session->command("startjob tsp");
  EXPECT_NE(out.find("terminated: reason: normal"), std::string::npos) << out;

  // The master printed its answer; compare with a 1-worker run.
  auto best_of = [](const std::string& text) -> std::int64_t {
    auto pos = text.find("best tour ");
    EXPECT_NE(pos, std::string::npos) << text;
    if (pos == std::string::npos) return -1;
    return util::parse_int(
               util::split(text.substr(pos + 10), " ").front())
        .value_or(-1);
  };
  const std::int64_t distributed = best_of(out);
  EXPECT_GT(distributed, 0);

  (void)session->command("removejob tsp");

  kernel::World world2(dpm::testing::quick_config(29));
  auto session2 = boot(world2, {"yellow", "red", "green"});
  (void)session2->command("filter f1");
  (void)session2->command("newjob tsp1");
  (void)session2->command("addprocess tsp1 red tsp_master 9100 1 8 42");
  (void)session2->command("addprocess tsp1 green tsp_worker red 9100");
  (void)session2->command("setflags tsp1 send");
  std::string out2 = session2->command("startjob tsp1");
  EXPECT_EQ(best_of(out2), distributed);  // same optimum either way
}

TEST(AppsTest, TspParallelismExceedsOne) {
  // The measurement study: with 3 workers the parallelism analysis should
  // see real overlap (this is the Lai & Miller-style use of the tool).
  kernel::World world(dpm::testing::quick_config(31));
  auto session = boot(world, {"yellow", "red", "green", "blue", "purple"});
  (void)session->command("filter f1");
  (void)session->command("newjob tsp");
  (void)session->command("addprocess tsp red tsp_master 9100 3 9 7");
  (void)session->command("addprocess tsp green tsp_worker red 9100");
  (void)session->command("addprocess tsp blue tsp_worker red 9100");
  (void)session->command("addprocess tsp purple tsp_worker red 9100");
  (void)session->command("setflags tsp all");
  (void)session->command("startjob tsp");
  (void)session->command("removejob tsp");
  analysis::Trace trace = fetch_trace(world, *session, "f1");
  ASSERT_EQ(trace.malformed, 0u);
  const analysis::ParallelismProfile p = analysis::measure_parallelism(trace);
  EXPECT_EQ(p.processes, 4u);
  EXPECT_GT(p.average, 1.2) << "workers should overlap";
}

TEST(AppsTest, PipelineFlowsEndToEnd) {
  kernel::World world(dpm::testing::quick_config(37));
  auto session = boot(world, {"yellow", "red", "green", "blue"});
  (void)session->command("filter f1");
  (void)session->command("newjob pipe");
  (void)session->command("addprocess pipe blue pipe_sink 8101");
  (void)session->command("addprocess pipe green pipe_stage 8100 blue 8101 400");
  (void)session->command("addprocess pipe red pipe_source green 8100 10 64");
  (void)session->command("setflags pipe send receive");
  std::string out = session->command("startjob pipe");
  EXPECT_NE(out.find("[pipe_sink] pipe_sink: 640 bytes"), std::string::npos)
      << out;
  (void)session->command("removejob pipe");
}

TEST(AppsTest, DatagramLossVisibleUnderLossyNetwork) {
  kernel::WorldConfig cfg = dpm::testing::quick_config(41);
  cfg.default_net.dgram_loss = 0.25;
  kernel::World world(cfg);
  auto session = boot(world, {"yellow", "red", "green"});
  (void)session->command("filter f1");
  (void)session->command("newjob d");
  (void)session->command("addprocess d red dgram_sink 8700 100");
  (void)session->command("addprocess d green dgram_sender red 8700 200 32");
  (void)session->command("setflags d send receive");
  std::string out = session->command("startjob d");
  // The sink reports how many datagrams actually arrived.
  auto pos = out.find("dgram_sink: ");
  ASSERT_NE(pos, std::string::npos) << out;
  const std::int64_t received =
      util::parse_int(util::split(out.substr(pos + 12), " ").front())
          .value_or(-1);
  EXPECT_GT(received, 100);  // most arrive ("delivery ... is likely")
  EXPECT_LT(received, 200);  // but not all: loss is real
  (void)session->command("removejob d");

  // Send records outnumber receive records in the trace accordingly.
  analysis::Trace trace = fetch_trace(world, *session, "f1");
  int sends = 0, recvs = 0;
  for (const auto& e : trace.events) {
    // Datagram sends carry a destination name; the sink's final stdout
    // report is a metered *stream* send and is excluded here.
    if (e.type == meter::EventType::send && e.dest_name != 0) ++sends;
    if (e.type == meter::EventType::recv && e.source_name != 0) ++recvs;
  }
  EXPECT_EQ(sends, 200);
  EXPECT_EQ(recvs, static_cast<int>(received));
}

}  // namespace
}  // namespace dpm
