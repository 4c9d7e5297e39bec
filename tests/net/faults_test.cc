// Fault plans and the injector: DSL round-trips, reproducible random
// plans, and injected faults actually bending the fabric (bursts drop,
// spikes delay, partitions hold reliable traffic until they heal).
#include "net/faults.h"

#include <gtest/gtest.h>

#include "obs/snapshot.h"

namespace dpm::net {
namespace {

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const char* dsl =
      "drop@200ms net=0 for=50ms p=0.8\n"
      "spike@1s net=1 for=200ms add=5ms   # comment to end of line\n"
      "partition@500ms red blue for=2s; reset@1s red blue\n"
      "# a full-line comment\n"
      "crash@2s green; restart@3s green; kill@1500ms blue 104\n";
  std::string err;
  auto plan = FaultPlan::parse(dsl, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->events.size(), 7u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::drop_burst);
  EXPECT_EQ(plan->events[0].at, util::TimePoint{} + util::msec(200));
  EXPECT_DOUBLE_EQ(plan->events[0].loss, 0.8);
  EXPECT_EQ(plan->events[1].kind, FaultKind::latency_spike);
  EXPECT_EQ(plan->events[1].net, 1u);
  EXPECT_EQ(plan->events[1].extra_latency, util::msec(5));
  EXPECT_EQ(plan->events[2].a, "red");
  EXPECT_EQ(plan->events[2].b, "blue");
  EXPECT_EQ(plan->events[6].kind, FaultKind::kill);
  EXPECT_EQ(plan->events[6].pid, 104);

  // Canonical text parses back to the identical canonical text.
  const std::string canon = plan->to_string();
  auto again = FaultPlan::parse(canon, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->to_string(), canon);
}

TEST(FaultPlan, RejectsMalformedEvents) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("drop net=0 for=1ms p=1", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(FaultPlan::parse("drop@10ms net=0 p=1", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("drop@10ms net=0 for=1ms p=1.5", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("spike@10ms net=0 for=1ms", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("partition@1ms red for=1s", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("kill@1ms blue pid", &err).has_value());
  EXPECT_FALSE(FaultPlan::parse("explode@1ms red", &err).has_value());
}

TEST(FaultPlan, RandomIsReproducibleAndNeverTouchesTheHub) {
  const std::vector<std::string> machines = {"hub", "a", "b", "c"};
  const FaultPlan p1 = FaultPlan::random(42, machines, util::msec(500));
  const FaultPlan p2 = FaultPlan::random(42, machines, util::msec(500));
  EXPECT_FALSE(p1.empty());
  EXPECT_EQ(p1.to_string(), p2.to_string());

  for (const FaultEvent& ev : p1.events) {
    EXPECT_NE(ev.kind, FaultKind::kill);  // pids are not knowable at plan time
    if (ev.kind == FaultKind::crash || ev.kind == FaultKind::restart) {
      EXPECT_NE(ev.a, "hub");
    }
    EXPECT_GE(util::count_us(ev.at - util::TimePoint{}), 0);
  }
  // Every crash is paired with a later restart of the same machine.
  for (const FaultEvent& ev : p1.events) {
    if (ev.kind != FaultKind::crash) continue;
    bool restarted = false;
    for (const FaultEvent& other : p1.events) {
      if (other.kind == FaultKind::restart && other.a == ev.a &&
          other.at > ev.at) {
        restarted = true;
      }
    }
    EXPECT_TRUE(restarted) << "unrestarted crash of " << ev.a;
  }
}

TEST(FaultInjector, BurstDropsAndSpikeDelays) {
  sim::Executive exec;
  obs::Registry reg;
  Fabric fabric(exec, 7, &reg);
  NetworkConfig cfg;
  cfg.base_latency = util::msec(1);
  cfg.jitter_max = util::usec(0);
  cfg.per_kb = util::usec(0);
  fabric.configure_network(0, cfg);

  auto plan = FaultPlan::parse(
      "drop@1ms net=0 for=10ms p=1.0; spike@1ms net=0 for=10ms add=2ms");
  ASSERT_TRUE(plan.has_value());
  FaultInjector inj(exec, fabric, *plan, FaultHooks{}, &reg);
  inj.arm();

  int delivered = 0;
  std::int64_t reliable_at = -1;
  exec.schedule_at(exec.now() + util::msec(2), [&] {
    fabric.send(0, 1, 2, 0, /*droppable=*/true, 10, [&] { ++delivered; });
    fabric.send(0, 1, 2, 0, /*droppable=*/false, 10,
                [&] { reliable_at = util::count_us(exec.now()); });
  });
  exec.run();

  EXPECT_EQ(delivered, 0);  // burst at p=1.0 eats the datagram
  EXPECT_EQ(reliable_at, 2000 + 1000 + 2000);  // send + base + spike
  EXPECT_EQ(inj.injected(), 2u);
  EXPECT_EQ(reg.counter("faults.injections").value(), 2u);
  EXPECT_EQ(reg.counter("faults.drop_bursts").value(), 1u);
  EXPECT_EQ(reg.counter("faults.latency_spikes").value(), 1u);
  EXPECT_EQ(reg.counter("net.bytes_dropped").value(), 10u);

  // The faults.* instruments ride the standard snapshot schema.
  std::string err;
  auto snap = obs::parse_snapshot(reg.snapshot_jsonl(), &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->counters.at("faults.injections"), 2u);
  EXPECT_EQ(snap->counters.at("faults.drop_bursts"), 1u);
}

TEST(FaultInjector, PartitionHoldsReliableTrafficUntilHeal) {
  sim::Executive exec;
  obs::Registry reg;
  Fabric fabric(exec, 7, &reg);
  NetworkConfig cfg;
  cfg.base_latency = util::msec(1);
  cfg.jitter_max = util::usec(0);
  cfg.per_kb = util::usec(0);
  fabric.configure_network(0, cfg);

  // No machine_id hook: numeric names resolve directly.
  auto plan = FaultPlan::parse("partition@1ms 1 2 for=4ms");
  ASSERT_TRUE(plan.has_value());
  FaultInjector inj(exec, fabric, *plan, FaultHooks{}, &reg);
  inj.arm();

  int dgram_delivered = 0;
  int bystander_delivered = 0;
  std::int64_t reliable_at = -1;
  exec.schedule_at(exec.now() + util::msec(2), [&] {
    EXPECT_TRUE(fabric.partitioned(1, 2));
    EXPECT_FALSE(fabric.partitioned(1, 3));
    fabric.send(0, 1, 2, 0, /*droppable=*/true, 10,
                [&] { ++dgram_delivered; });
    fabric.send(0, 1, 2, 0, /*droppable=*/false, 10,
                [&] { reliable_at = util::count_us(exec.now()); });
    fabric.send(0, 1, 3, 0, /*droppable=*/true, 10,
                [&] { ++bystander_delivered; });
  });
  exec.run();

  EXPECT_EQ(dgram_delivered, 0);      // datagrams across the cut are lost
  EXPECT_EQ(bystander_delivered, 1);  // other pairs are untouched
  // Stream traffic resumes after the heal (5ms) plus normal latency.
  EXPECT_EQ(reliable_at, 5000 + 1000);
  EXPECT_FALSE(fabric.partitioned(1, 2));
  EXPECT_EQ(reg.counter("faults.partitions").value(), 1u);
  EXPECT_EQ(reg.gauge("faults.active_partitions").value(), 0);
  EXPECT_EQ(reg.gauge("faults.active_partitions").high_water(), 1);
}

TEST(FaultInjector, PastDueEventsFireAtInstallInPlanOrder) {
  // A plan installed after some of its times: those events fire at the
  // install time, in plan order, and never see the clock below it.
  sim::Executive exec;
  obs::Registry reg;
  Fabric fabric(exec, 7, &reg);
  exec.schedule_at(exec.now() + util::msec(5), [] {});
  exec.run();
  ASSERT_EQ(util::count_us(exec.now()), 5000);

  auto plan = FaultPlan::parse("crash@3ms a; restart@1ms b; crash@8ms c");
  ASSERT_TRUE(plan.has_value());
  std::vector<std::pair<std::string, std::int64_t>> fired;
  FaultHooks hooks;
  hooks.crash_machine = [&](const std::string& m) {
    fired.emplace_back(m, util::count_us(exec.now()));
  };
  hooks.restart_machine = hooks.crash_machine;
  FaultInjector inj(exec, fabric, *plan, hooks, &reg);
  inj.arm();
  exec.run();

  const std::vector<std::pair<std::string, std::int64_t>> want = {
      {"a", 5000}, {"b", 5000}, {"c", 8000}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(inj.injected(), 3u);
}

}  // namespace
}  // namespace dpm::net
