// Chaos quickstart: a monitoring session that survives real failures.
//
// A three-machine world runs a metered pingpong job while a scripted
// fault plan cuts the red↔green link for two seconds of sim time and then
// crashes green outright (its meterdaemon and the metered client die with
// it). The controller's hardened RPCs notice — green is marked down, the
// `jobs` listing says so — and once the plan restarts the machine, the
// `reconcile` command probes the respawned daemon, clears the mark, and
// declares the dead process "[presumed dead]". The session then proves
// that nothing was silently lost: every emitted meter record is accounted
// for exactly, and the surviving trace still renders as a Chrome trace.
//
//   chaos            # verbose walk-through
//   chaos --smoke    # quiet self-check (the ctest entry)
#include <cstring>
#include <iostream>
#include <string>

#include "analysis/live/aggregator.h"
#include "analysis/live/chrome_trace.h"
#include "analysis/ordering.h"
#include "analysis/trace_reader.h"
#include "apps/apps.h"
#include "control/session.h"
#include "kernel/world.h"
#include "net/faults.h"

int main(int argc, char** argv) {
  using namespace dpm;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  kernel::World world;
  const kernel::MachineId hub = world.add_machine("hub");
  world.add_machine("red");
  world.add_machine("green");
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);

  control::MonitorSession session(world, {.host = "hub", .uid = 100});
  world.run();
  (void)session.drain_output();

  std::string transcript;
  auto run = [&](const std::string& cmd) {
    const std::string out = session.command(cmd);
    transcript += out;
    if (!smoke) std::cout << cmd << "\n" << out;
  };

  run("filter f1 hub");
  run("newjob demo");
  run("addprocess demo red pingpong_server 5000 2000");
  run("addprocess demo green pingpong_client red 5000 2000 128");
  run("setflags demo all");

  // The fault plan, in the scenario DSL (reproducible by construction):
  // cut the red↔green link for 2s of sim time, crash green mid-job (its
  // daemon and the metered client die with it), and bring the machine
  // back late enough that reconciliation has a fresh daemon to talk to.
  // Times are anchored to the session's current sim clock — a plan armed
  // in the past would fire before the job exists.
  const std::int64_t t0 = util::count_us(world.now() - util::TimePoint{});
  auto at = [t0](std::int64_t off_us) {
    return std::to_string(t0 + off_us) + "us";
  };
  std::string dsl_err;
  auto plan = net::FaultPlan::parse(
      "partition@" + at(100'000) + " red green for=2s\n"
      "crash@" + at(500'000) + " green\n"
      "restart@" + at(4'000'000) + " green\n",
      &dsl_err);
  if (!plan) {
    std::cerr << "bad fault plan: " << dsl_err << "\n";
    return 1;
  }
  world.install_faults(*plan);
  if (!smoke) std::cout << "fault plan: " << plan->to_string() << "\n";

  session.send_line("startjob demo");

  // Run into the storm: the partition holds the stream, then the crash
  // kills green's daemon and the client with it.
  world.run_until(util::TimePoint{} + util::usec(t0 + 800'000));

  // The next RPC at green exhausts its deadline/retry budget and marks
  // the machine down.
  run("stopjob demo");
  run("jobs demo");
  if (transcript.find("marked down") == std::string::npos ||
      transcript.find("DOWN") == std::string::npos) {
    std::cerr << "controller never reported green down\n" << transcript;
    return 1;
  }

  // Let the plan restart green (its boot program respawns the daemon),
  // then reconcile: the mark clears and the dead client is declared.
  world.run_until(util::TimePoint{} + util::usec(t0 + 4'500'000));
  run("reconcile");
  run("jobs demo");
  if (transcript.find("reconciled") == std::string::npos ||
      transcript.find("presumed dead") == std::string::npos) {
    std::cerr << "reconcile did not recover green\n" << transcript;
    return 1;
  }

  run("removejob demo");
  run("getlog f1 demo.trace");
  session.send_line("bye");
  world.run();

  // Exact record conservation: emitted == consumed + dropped + lost +
  // stranded + malformed + pending + buffered, even across the crash.
  const kernel::MeterConservation cons = world.meter_conservation();
  if (!smoke) {
    std::cout << "\nmeter records: emitted=" << cons.emitted
              << " consumed=" << cons.consumed << " dropped=" << cons.dropped
              << " lost=" << cons.lost << " stranded=" << cons.stranded
              << " malformed=" << cons.malformed << " pending=" << cons.pending
              << " buffered=" << cons.buffered << "\n";
  }
  if (!cons.balanced()) {
    std::cerr << "record conservation violated: emitted=" << cons.emitted
              << " accounted=" << cons.accounted() << "\n";
    return 1;
  }

  // The surviving trace still analyzes and renders.
  auto text = world.machine(hub).fs.read_text("demo.trace");
  if (!text) {
    std::cerr << "no trace retrieved\n";
    return 1;
  }
  const analysis::Trace trace = analysis::read_trace(*text);
  if (trace.events.empty() || trace.malformed != 0) {
    std::cerr << "surviving trace unusable: events=" << trace.events.size()
              << " malformed=" << trace.malformed << "\n";
    return 1;
  }
  const analysis::Ordering ord = analysis::order_events(trace);
  analysis::live::LiveAnalysis live;
  for (const analysis::Event& e : trace.events) live.add_event(e, trace.names);
  const std::string json = analysis::live::chrome_trace_json(live);
  const auto check = analysis::live::check_chrome_trace(json);
  if (!check.ok) {
    std::cerr << "chrome trace schema check failed: " << check.error << "\n";
    return 1;
  }

  if (!smoke) {
    std::cout << "trace: " << trace.events.size() << " events, "
              << ord.message_pairs << " pairs (had_cycle="
              << (ord.had_cycle ? "yes" : "no") << ")\n"
              << "chrome export: " << check.events << " trace events, "
              << check.slices << " slices, " << check.flow_pairs
              << " flows -- schema ok\n"
              << "\ngreen died, the monitor noticed, reconciled, and kept "
                 "every record accounted for.\n";
  }
  return 0;
}
