// Fault chaos: full monitoring sessions under randomized FaultPlans —
// loss bursts, latency spikes, partitions, stream resets, machine
// crash/restart pairs — must still terminate, keep the controller
// coherent, conserve every meter record exactly, and leave a surviving
// trace whose streaming analysis agrees with batch.
#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/live/aggregator.h"
#include "analysis/ordering.h"
#include "analysis/trace_reader.h"
#include "apps/apps.h"
#include "control/replay.h"
#include "control/session.h"
#include "net/faults.h"
#include "obs/snapshot.h"
#include "testing.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dpm {
namespace {

class FaultChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

// The three fixed seeds scripts/check_chaos.sh replays under sanitizers,
// plus two more for the regular suite.
INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaosTest,
                         ::testing::Values(11, 74, 1903, 29041, 57005));

/// Where repro artifacts land on failure: $DPM_CHAOS_REPRO_DIR or the
/// test's working directory (the build tree under ctest).
std::string repro_path(const char* stem, std::uint64_t seed) {
  const char* dir = std::getenv("DPM_CHAOS_REPRO_DIR");
  return util::strprintf("%s/%s_seed%llu.repro", dir ? dir : ".", stem,
                         static_cast<unsigned long long>(seed));
}

/// One full randomized-fault monitoring session, silently: every chaos
/// invariant that fails is recorded as "name: detail" instead of a gtest
/// assertion, so the same function doubles as the FaultShrinker's
/// re-execution probe. The workload draws from its own named RNG stream
/// ("workload") — the same discipline the kernel/fabric/fault streams
/// follow — so editing the fault plan can never perturb which workload
/// the session runs.
std::vector<std::string> drive_session_chaos(std::uint64_t seed,
                                             const kernel::WorldConfig& cfg,
                                             const net::FaultPlan& plan) {
  std::vector<std::string> violations;
  auto violate = [&](const std::string& name, const std::string& detail) {
    violations.push_back(detail.empty() ? name : name + ": " + detail);
  };

  util::Rng rng = util::Rng::named(seed, "workload");
  kernel::World world(cfg);
  auto machines = dpm::testing::add_machines(world, {"hub", "a", "b", "c"});
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);
  control::MonitorSession session(
      world, control::MonitorSession::Options{.host = "hub", .uid = 100});
  world.run();
  (void)session.drain_output();

  (void)session.command("filter f1 hub");
  (void)session.command("newjob storm");

  // Random workload mix across the three non-hub machines.
  const int npairs = static_cast<int>(rng.uniform(2, 4));
  const char* hosts[] = {"a", "b", "c"};
  for (int i = 0; i < npairs; ++i) {
    const int port = 5800 + i;
    const char* srv = hosts[rng.uniform(0, 2)];
    const char* cli = hosts[rng.uniform(0, 2)];
    const auto rounds = rng.uniform(5, 40);
    if (rng.bernoulli(0.5)) {
      (void)session.command(util::strprintf(
          "addprocess storm %s pingpong_server %d %lld", srv, port,
          static_cast<long long>(rounds)));
      (void)session.command(util::strprintf(
          "addprocess storm %s pingpong_client %s %d %lld 48", cli, srv, port,
          static_cast<long long>(rounds)));
    } else {
      (void)session.command(util::strprintf(
          "addprocess storm %s dgram_sink %d 50", srv, port));
      (void)session.command(util::strprintf(
          "addprocess storm %s dgram_sender %s %d %lld 48", cli, srv, port,
          static_cast<long long>(rounds)));
    }
  }
  (void)session.command("setflags storm all");

  if (!plan.empty()) world.install_faults(plan);
  session.send_line("startjob storm");

  // Termination: the world quiesces even with faults firing mid-flight.
  world.run_for(util::msec(80));
  const std::string mid_snapshot = world.obs_snapshot();
  world.run();
  (void)session.drain_output();

  // The controller survived and answers commands; reconcile clears any
  // machine marked down whose daemon (respawned by the restart boot
  // program) answers again.
  if (!session.controller_alive()) {
    violate("controller_alive", "controller died mid-storm");
    return violations;
  }
  (void)session.command("reconcile");
  std::string out = session.command("jobs storm");
  if (out.find("job 'storm'") == std::string::npos) {
    violate("controller_coherent", "jobs output: " + out);
  }

  // Exact record conservation at quiescence: every emitted record is
  // consumed, dropped, lost, stranded, malformed, pending, or buffered.
  const kernel::MeterConservation cons = world.meter_conservation();
  if (!cons.balanced()) {
    violate("conservation",
            util::strprintf("emitted=%llu accounted=%llu consumed=%llu "
                            "dropped=%llu lost=%llu stranded=%llu "
                            "malformed=%llu pending=%llu buffered=%llu",
                            (unsigned long long)cons.emitted,
                            (unsigned long long)cons.accounted(),
                            (unsigned long long)cons.consumed,
                            (unsigned long long)cons.dropped,
                            (unsigned long long)cons.lost,
                            (unsigned long long)cons.stranded,
                            (unsigned long long)cons.malformed,
                            (unsigned long long)cons.pending,
                            (unsigned long long)cons.buffered));
  }

  // Whatever trace survived is parseable, and streaming analysis agrees
  // with batch on it event for event.
  (void)session.command("getlog f1 t");
  auto text = world.machine(machines[0]).fs.read_text("t");
  if (!text.has_value()) {
    violate("trace_survives", "getlog produced no file");
    return violations;
  }
  analysis::Trace trace = analysis::read_trace(*text);
  if (trace.malformed != 0) {
    violate("trace_parses",
            std::to_string(trace.malformed) + " malformed lines");
  }
  analysis::Ordering ord = analysis::order_events(trace);

  analysis::live::LiveAnalysis live;
  for (const analysis::Event& e : trace.events) live.add_event(e, trace.names);
  if (live.events() != trace.events.size()) {
    violate("batch_live_equivalence", "live dropped events");
  } else {
    const auto st = live.stats();
    if (st.message_pairs != ord.message_pairs || st.had_cycle != ord.had_cycle) {
      violate("batch_live_equivalence", "stats disagree");
    }
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      if (live.lamport_of(i) != ord.events[i].lamport) {
        violate("batch_live_equivalence",
                "lamport disagrees at event " + std::to_string(i));
        break;
      }
    }
  }

  // Counters are monotone across the fault storm: nothing a fault does
  // may make an accumulated count go backwards.
  std::string err;
  auto mid = obs::parse_snapshot(mid_snapshot, &err);
  auto end = obs::parse_snapshot(world.obs_snapshot(), &err);
  if (!mid || !end) {
    violate("counter_monotonicity", "snapshot unparseable: " + err);
  } else {
    for (const auto& [name, value] : mid->counters) {
      auto it = end->counters.find(name);
      if (it == end->counters.end()) {
        violate("counter_monotonicity", "counter vanished: " + name);
        break;
      }
      if (it->second < value) {
        violate("counter_monotonicity", "counter went backwards: " + name);
        break;
      }
    }
  }

  // Cleanup still works.
  (void)session.command("stopjob storm");
  (void)session.command("removejob storm");
  (void)session.command("die");
  (void)session.command("die");
  world.run();
  if (session.controller_alive()) {
    violate("controller_shutdown", "controller survived die");
  }
  return violations;
}

/// The gtest wrapper: arm the seed's random plan, drive the session, and
/// on any violated chaos invariant (1) write the (seed, plan, invariant)
/// repro artifact immediately, then (2) run the FaultShrinker with
/// drive_session_chaos as its re-execution probe and rewrite the artifact
/// with the minimal still-failing plan.
void run_session_chaos(std::uint64_t seed, kernel::WorldConfig cfg) {
  // Reproducible random fault plan over the whole fleet (random() never
  // crashes the hub and pairs every crash with a restart).
  const net::FaultPlan plan =
      net::FaultPlan::random(seed, {"hub", "a", "b", "c"}, util::msec(150));
  ASSERT_FALSE(plan.empty());

  const std::vector<std::string> violations =
      drive_session_chaos(seed, cfg, plan);
  if (violations.empty()) return;

  for (const auto& v : violations) ADD_FAILURE() << v;
  const std::string invariant =
      violations.front().substr(0, violations.front().find(':'));
  const std::string path = repro_path("chaos", seed);
  // Artifact first — even if the shrink itself dies, the full repro is on
  // disk; then shrink and rewrite with the minimal plan attached.
  control::replay::write_chaos_repro(path, seed, plan, invariant);
  control::replay::FaultShrinker shrinker(
      [&](const net::FaultPlan& candidate) -> std::optional<std::string> {
        auto vs = drive_session_chaos(seed, cfg, candidate);
        for (const auto& v : vs) {
          if (v.compare(0, invariant.size(), invariant) == 0) {
            return v.substr(0, v.find(':'));
          }
        }
        return std::nullopt;
      });
  const control::replay::ShrinkResult r = shrinker.shrink(plan, invariant);
  control::replay::write_chaos_repro(path, seed, plan, invariant, &r);
  ADD_FAILURE() << "repro written to " << path << " (shrunk "
                << r.original_events << " -> " << r.minimal_events
                << " events in " << r.probes << " probes)";
}

TEST_P(FaultChaosTest, SessionSurvivesRandomFaultPlan) {
  const std::uint64_t seed = GetParam();
  run_session_chaos(seed, dpm::testing::quick_config(seed));
}

TEST_P(FaultChaosTest, ShardedFanInSessionSurvivesStorm) {
  // A sharded session — local filters on every machine, aggregators in an
  // arity-4 tree, pipelined controller RPC — hit with a targeted
  // storm: an aggregator host crashes mid-fan-in, the controller is
  // partitioned from one shard (and heals), plus a seeded loss burst.
  // Both conservation ledgers must balance and the surviving trace must
  // stream-analyze identically to batch, through the aggregation tier.
  const std::uint64_t seed = GetParam();
  kernel::World world(dpm::testing::quick_config(seed));
  std::vector<std::string> names = {"hub"};
  for (int i = 1; i <= 12; ++i) names.push_back("n" + std::to_string(i));
  auto machines = dpm::testing::add_machines(world, names);
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);
  control::MonitorSession session(
      world, control::MonitorSession::Options{.host = "hub", .uid = 100});
  world.run();
  (void)session.drain_output();

  (void)session.command("filter f1 hub");
  std::string fan = session.command("fanin f1 4 n 1 12");
  ASSERT_NE(fan.find("12 local filters (0 failed), 3 aggregators (0 failed)"),
            std::string::npos)
      << fan;

  // One metered burst sender per machine plus two cross-machine pairs, so
  // records flow through every leaf and pairs survive for the analysis.
  (void)session.command("newjob storm");
  (void)session.command(
      "addgroup storm n 1 12 1 burst_sender self 9 30 48 512 4 500");
  (void)session.command("addprocess storm n2 pingpong_server 5900 12");
  (void)session.command("addprocess storm n3 pingpong_client n2 5900 12 48");
  (void)session.command("setflags storm all");

  // The targeted storm, jittered per seed: n5 hosts the second-group
  // aggregator (groups n1-n4, n5-n8, n9-n12 at arity 4); n9 is a shard
  // the controller loses mid-run.
  const long long j = static_cast<long long>(seed % 7);
  const auto dsl = util::strprintf(
      "drop@%lldms net=0 for=20ms p=0.5\n"
      "partition@%lldms hub n9 for=40ms\n"
      "crash@%lldms n5\n"
      "restart@%lldms n5\n"
      "reset@%lldms hub n1\n",
      8 + j, 12 + j, 20 + j, 70 + j, 45 + j);
  auto plan = net::FaultPlan::parse(dsl);
  ASSERT_TRUE(plan.has_value());
  world.install_faults(*plan);
  session.send_line("startjob storm");
  world.run_for(util::msec(80));
  const std::string mid_snapshot = world.obs_snapshot();
  world.run();
  (void)session.drain_output();

  ASSERT_TRUE(session.controller_alive());
  (void)session.command("reconcile");
  std::string out = session.command("jobs storm");
  EXPECT_NE(out.find("job 'storm'"), std::string::npos) << out;

  // Tier-0: every emitted record accounted for.
  const kernel::MeterConservation cons = world.meter_conservation();
  EXPECT_TRUE(cons.balanced())
      << "emitted=" << cons.emitted << " accounted=" << cons.accounted()
      << " consumed=" << cons.consumed << " dropped=" << cons.dropped
      << " lost=" << cons.lost << " stranded=" << cons.stranded
      << " malformed=" << cons.malformed << " pending=" << cons.pending
      << " buffered=" << cons.buffered;
  // Tier-1: everything the local filters and aggregators forwarded is
  // accounted for too, even with an aggregator dead mid-tree.
  const kernel::FanInConservation fic = world.fanin_conservation();
  EXPECT_GT(fic.forwarded, 0u);
  EXPECT_TRUE(fic.balanced())
      << "forwarded=" << fic.forwarded << " accounted=" << fic.accounted()
      << " consumed=" << fic.consumed << " lost=" << fic.lost
      << " overflow=" << fic.overflow << " stranded=" << fic.stranded
      << " malformed=" << fic.malformed << " buffered=" << fic.buffered;

  // The trace that reached the root through the tree is parseable and
  // batch/live equivalent.
  (void)session.command("getlog f1 t");
  auto text = world.machine(machines[0]).fs.read_text("t");
  ASSERT_TRUE(text.has_value());
  analysis::Trace trace = analysis::read_trace(*text);
  EXPECT_EQ(trace.malformed, 0u);
  analysis::Ordering ord = analysis::order_events(trace);
  analysis::live::LiveAnalysis live;
  for (const analysis::Event& e : trace.events) live.add_event(e, trace.names);
  ASSERT_EQ(live.events(), trace.events.size());
  EXPECT_EQ(live.stats().message_pairs, ord.message_pairs);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_EQ(live.lamport_of(i), ord.events[i].lamport) << "at " << i;
  }

  // Counter monotonicity across the storm.
  std::string err;
  auto mid = obs::parse_snapshot(mid_snapshot, &err);
  ASSERT_TRUE(mid.has_value()) << err;
  auto end = obs::parse_snapshot(world.obs_snapshot(), &err);
  ASSERT_TRUE(end.has_value()) << err;
  for (const auto& [name, value] : mid->counters) {
    auto it = end->counters.find(name);
    ASSERT_NE(it, end->counters.end()) << name;
    EXPECT_GE(it->second, value) << name;
  }

  (void)session.command("stopjob storm");
  (void)session.command("removejob storm");
  (void)session.command("die");
  (void)session.command("die");
  world.run();
  EXPECT_FALSE(session.controller_alive());

  // On failure, commit the repro artifact. No shrink pass here: the
  // targeted five-event storm is hand-written and already near-minimal.
  if (::testing::Test::HasFailure()) {
    const std::string path = repro_path("chaos_fanin", seed);
    control::replay::write_chaos_repro(path, seed, *plan, "sharded_fanin");
    ADD_FAILURE() << "repro written to " << path;
  }
}

}  // namespace
}  // namespace dpm
