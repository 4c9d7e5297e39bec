// The custom counting filter (§3.4: user-written filters obey one
// constraint — they read meter messages from their meter connections).
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "control/session.h"
#include "filter/count_filter.h"
#include "filter/descriptions.h"
#include "filter/templates.h"
#include "testing.h"

namespace dpm {
namespace {

TEST(CountFilterTest, AggregatesInsteadOfLogging) {
  kernel::World world(dpm::testing::quick_config(51));
  auto machines = dpm::testing::add_machines(world, {"yellow", "red", "green"});
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);
  control::MonitorSession session(
      world, control::MonitorSession::Options{.host = "yellow", .uid = 100});
  world.run();
  (void)session.drain_output();

  // The custom filter file instead of the default "filter".
  std::string out = session.command("filter agg yellow countfilter");
  ASSERT_NE(out.find("created"), std::string::npos) << out;
  (void)session.command("newjob j");
  (void)session.command("addprocess j red pingpong_server 4870 4");
  (void)session.command("addprocess j green pingpong_client red 4870 4 100");
  (void)session.command("setflags j send receive accept connect");
  (void)session.command("startjob j");
  (void)session.command("removejob j");
  (void)session.command("getlog agg summary");

  auto text = world.machine(machines[0]).fs.read_text("summary");
  ASSERT_TRUE(text.has_value());
  // The summary aggregates: one SEND line with the total, not one line
  // per event.
  EXPECT_NE(text->find("# countfilter summary"), std::string::npos) << *text;
  EXPECT_NE(text->find("event SEND"), std::string::npos) << *text;
  EXPECT_NE(text->find("event ACCEPT 1"), std::string::npos) << *text;
  EXPECT_NE(text->find("event CONNECT 1"), std::string::npos) << *text;
  // Two processes appear with their send byte totals.
  EXPECT_NE(text->find("sendBytes=400"), std::string::npos) << *text;
}

TEST(CountFilterTest, StandardAndCustomFiltersCoexist) {
  // §3.4: "Many filter processes may exist simultaneously" — one job logs
  // through the standard filter while another aggregates.
  kernel::World world(dpm::testing::quick_config(52));
  auto machines = dpm::testing::add_machines(world, {"yellow", "red"});
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);
  control::MonitorSession session(
      world, control::MonitorSession::Options{.host = "yellow", .uid = 100});
  world.run();
  (void)session.drain_output();

  (void)session.command("filter plain yellow");
  (void)session.command("filter agg yellow countfilter");
  (void)session.command("newjob a plain");
  (void)session.command("newjob b agg");
  (void)session.command("addprocess a red hello one");
  (void)session.command("addprocess b red hello two");
  (void)session.command("setflags a all");
  (void)session.command("setflags b all");
  (void)session.command("startjob a");
  (void)session.command("startjob b");
  (void)session.command("removejob a");
  (void)session.command("removejob b");
  (void)session.command("getlog plain t1");
  (void)session.command("getlog agg t2");

  auto t1 = world.machine(machines[0]).fs.read_text("t1");
  auto t2 = world.machine(machines[0]).fs.read_text("t2");
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_NE(t1->find("event=TERMPROC"), std::string::npos);  // raw records
  EXPECT_NE(t2->find("# countfilter summary"), std::string::npos);
  EXPECT_NE(t2->find("event TERMPROC 1"), std::string::npos);
}

TEST(CountFilterTest, ReportsWhyItsSupportFilesAreBad) {
  // countfilter loads its support files like every filter program, so a
  // bad file is reported with the parser's typed reason, not a generic
  // failure.
  auto run = [](const std::string& descriptions, const std::string& templates) {
    kernel::World world(dpm::testing::quick_config(53));
    auto machines = dpm::testing::add_machines(world, {"yellow"});
    world.add_account_everywhere(100);
    world.machine(machines[0]).fs.put_text("desc", descriptions);
    world.machine(machines[0]).fs.put_text("templ", templates);
    auto out = std::make_shared<kernel::HostPipe>();
    kernel::SpawnOpts opts;
    opts.stdout_fd = kernel::Descriptor::for_pipe(out);
    (void)world.spawn(machines[0], "countfilter", 100,
                      filter::make_count_filter_main(
                          {"countfilter", "summary", "desc", "templ", "4870"}),
                      opts);
    world.run();
    return out->host_drain();
  };

  // RECV reuses SEND's type number on line 3.
  const std::string dup = "SEND 1, pid,0,4,10\n# comment\nRECV 1, pid,0,4,10\n";
  const std::string desc_out = run(dup, filter::default_templates_text());
  EXPECT_EQ(desc_out.rfind("countfilter: bad descriptions: line 3: ", 0), 0u)
      << desc_out;

  const std::string templ_out =
      run(filter::default_descriptions_text(), "nonsense\n");
  EXPECT_EQ(templ_out.rfind("countfilter: bad templates: line 1: bad clause",
                            0),
            0u)
      << templ_out;
}

}  // namespace
}  // namespace dpm
