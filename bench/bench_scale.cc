// Cluster-scale monitoring: hierarchical fan-in vs a flat session, and
// the controller's job ops across every machine.
//
// Two claims are measured, both in simulated time (deterministic, so the
// recorded numbers are stable across runs and machines):
//
//  1. Throughput. N machines each run one burst_sender whose traffic is
//     1-in-`every` large datagrams; the session filter's rule accepts
//     exactly those. Flat topology wires every sender's meter stream to
//     the root filter; hierarchical (`fanin`) runs a local filter per
//     machine and aggregators in an arity-bounded tree, so only accepted
//     records cross the fabric. We record events/s through the session,
//     cross-fabric bytes (net.bytes_remote), and both conservation
//     ledgers, and require near-linear per-machine scaling from the
//     smallest to the largest hierarchical run.
//
//  2. Controller latency. In the largest hierarchical world, waves of
//     `waiter` processes are created/started/stopped/killed across all
//     machines. Each op is one round of pipelined RPCs carrying one
//     request per machine (multi-create, batch start/stop/kill), so each
//     must add exactly `machines` to daemon.rpc_calls. The waves also
//     push the session past 100k processes in full mode.
//
// Every run writes BENCH_scale.json. The "smoke" section is produced in
// both modes at the same small sizes, so scripts/check_bench.sh can
// compare a fresh --smoke run against the committed file key-for-key.
#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/strings.h"

namespace dpm::bench {
namespace {

/// The session's selection rule: large sends only. burst_sender's big
/// datagrams (512 B) pass `msgLength>256`; its small ones (64 B) do not.
constexpr const char* kScaleRules = "machine=#*, pid=#*, type=1, msgLength>256\n";

struct ScaleConfig {
  std::vector<std::size_t> sizes;  // machine counts, ascending
  int arity = 4;                   // fan-in tree arity
  int count = 32;                  // datagrams per sender
  int every = 4;                   // 1-in-every is large (accepted)
  int gap_us = 300;                // inter-send gap
  int per_machine = 3;             // waiters per machine per wave
  int waves = 2;                   // waves through the peak session
};

struct TopoResult {
  std::size_t machines = 0;
  bool hier = false;
  std::uint64_t offered = 0;       // meter records emitted by senders
  std::uint64_t accepted = 0;      // records accepted at the root filter
  std::uint64_t expected = 0;      // machines * ceil(count/every)
  std::uint64_t bytes_remote = 0;  // cross-fabric bytes over the window
  double window_ms = 0;            // startjob -> quiescence, simulated
  double events_per_s = 0;         // offered / window
  double per_machine_eps = 0;
  bool lossless = false;           // no tier-0/tier-1 loss buckets
  bool tier0_ok = false;
  bool tier1_ok = false;
};

struct WaveResult {
  double create_ms = 0, start_ms = 0, stop_ms = 0, kill_ms = 0;
  std::uint64_t created = 0, started = 0, stopped = 0, removed = 0;
  // daemon.rpc_calls added by addgroup/startjob/stopjob/removejob.
  std::uint64_t rpcs[4] = {0, 0, 0, 0};
};

struct SuiteResult {
  std::vector<TopoResult> topologies;
  double hier_scaling = 0;  // per-machine eps, largest hier / smallest hier
  double flat_scaling = 0;
  std::vector<WaveResult> waves;
  std::size_t session_machines = 0;
  std::uint64_t session_processes = 0;  // through the one peak session
  bool session_tier0_ok = false;
  bool session_tier1_ok = false;
  int errors = 0;  // invariant violations, detailed on stderr
};

/// A world of `machines`+1 machines ("hub" plus m1..mN) with the monitor
/// installed, daemons running, and a session filter "f1" on hub — with a
/// local-filter/aggregator tree over m1..mN when `hier`.
struct Cluster {
  std::unique_ptr<kernel::World> world;
  std::unique_ptr<control::MonitorSession> session;
};

std::size_t count_substr(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Parses the leading count out of a controller summary line, located by
/// `marker`: "job 'w0': 24 of 24 processes created across 8 machines".
std::uint64_t summary_count(const std::string& out, const char* marker) {
  const auto p = out.find(marker);
  if (p == std::string::npos) return 0;
  auto ls = out.rfind('\n', p);
  ls = ls == std::string::npos ? 0 : ls + 1;
  const auto sep = out.find("': ", ls);
  if (sep == std::string::npos || sep > p) return 0;
  return std::strtoull(out.c_str() + sep + 3, nullptr, 10);
}

Cluster make_cluster(std::size_t machines, bool hier, const ScaleConfig& cfg,
                     int* errors) {
  kernel::WorldConfig wc;
  // A flat session concentrates every sender's meter connection on the
  // root filter's machine; the default 64-descriptor table would cap it.
  wc.max_descriptors = 4096;
  Cluster c;
  c.world = std::make_unique<kernel::World>(wc);
  c.world->add_machine("hub");
  for (std::size_t i = 1; i <= machines; ++i) {
    c.world->add_machine("m" + std::to_string(i));
  }
  control::install_monitor(*c.world);
  apps::install_everywhere(*c.world);
  control::spawn_meterdaemons(*c.world);
  c.world->machine_by_name("hub")->fs.put_text("tmpl_scale", kScaleRules);

  c.session = std::make_unique<control::MonitorSession>(
      *c.world, control::MonitorSession::Options{.host = "hub"});
  c.world->run();
  (void)c.session->drain_output();

  (void)c.session->command("filter f1 hub filter descriptions tmpl_scale");
  if (hier) {
    const std::string out = c.session->command(util::strprintf(
        "fanin f1 %d m 1 %zu", cfg.arity, machines));
    if (count_substr(out, "(0 failed)") != 2) {
      std::fprintf(stderr, "bench_scale: fanin build failed:\n%s", out.c_str());
      ++*errors;
    }
  }
  return c;
}

TopoResult run_sender_load(Cluster& c, std::size_t machines, bool hier,
                           const ScaleConfig& cfg, int* errors) {
  TopoResult r;
  r.machines = machines;
  r.hier = hier;
  auto& world = *c.world;
  auto& s = *c.session;

  (void)s.command("newjob jA f1");
  (void)s.command("setflags jA send");
  const std::string out_add = s.command(util::strprintf(
      "addgroup jA m 1 %zu 1 burst_sender self 9 %d 64 512 %d %d",
      machines, cfg.count, cfg.every, cfg.gap_us));
  if (summary_count(out_add, "processes created") != machines) {
    std::fprintf(stderr, "bench_scale: sender addgroup failed (%zu m):\n%s",
                 machines, out_add.c_str());
    ++*errors;
  }

  const double t0 = sim_us(world);
  const auto a0 = world.obs().counter("filter.accepted").value();
  const auto b0 = world.obs().counter("net.bytes_remote").value();
  const auto e0 = world.meter_conservation().emitted;
  (void)s.command("startjob jA");
  const double window_us = sim_us(world) - t0;

  r.accepted = world.obs().counter("filter.accepted").value() - a0;
  r.bytes_remote = world.obs().counter("net.bytes_remote").value() - b0;
  const auto t0c = world.meter_conservation();
  const auto t1c = world.fanin_conservation();
  r.offered = t0c.emitted - e0;
  const auto per_sender = static_cast<std::uint64_t>(
      (cfg.count + cfg.every - 1) / cfg.every);
  r.expected = machines * per_sender;
  r.window_ms = window_us / 1000.0;
  r.events_per_s = window_us > 0
                       ? static_cast<double>(r.offered) / (window_us / 1e6)
                       : 0;
  r.per_machine_eps = r.events_per_s / static_cast<double>(machines);
  r.tier0_ok = t0c.balanced();
  r.tier1_ok = t1c.balanced();
  r.lossless = t0c.dropped == 0 && t0c.lost == 0 && t0c.stranded == 0 &&
               t0c.malformed == 0 && t1c.lost == 0 && t1c.overflow == 0 &&
               t1c.stranded == 0 && t1c.malformed == 0;

  if (!r.tier0_ok || !r.tier1_ok) {
    std::fprintf(stderr,
                 "bench_scale: conservation violated (%zu machines, %s)\n",
                 machines, hier ? "hier" : "flat");
    ++*errors;
  }
  if (r.offered != machines * static_cast<std::uint64_t>(cfg.count)) {
    std::fprintf(stderr,
                 "bench_scale: offered %llu != %zu senders * %d records\n",
                 static_cast<unsigned long long>(r.offered), machines,
                 cfg.count);
    ++*errors;
  }
  if (r.lossless && r.accepted != r.expected) {
    std::fprintf(stderr,
                 "bench_scale: lossless %s@%zu accepted %llu, expected %llu\n",
                 hier ? "hier" : "flat", machines,
                 static_cast<unsigned long long>(r.accepted),
                 static_cast<unsigned long long>(r.expected));
    ++*errors;
  }
  return r;
}

WaveResult run_wave(Cluster& c, const std::string& job, std::size_t machines,
                    const ScaleConfig& cfg, int* errors) {
  WaveResult r;
  auto& world = *c.world;
  auto& s = *c.session;
  const auto expect = machines * static_cast<std::uint64_t>(cfg.per_machine);
  const obs::Counter& rpc_calls = world.obs().counter("daemon.rpc_calls");

  (void)s.command(util::strprintf("newjob %s f1", job.c_str()));

  // Runs one op, returning its output; `ms` gets its simulated duration
  // and `rpcs` the RPCs it issued.
  auto op = [&](const std::string& line, double* ms, std::uint64_t* rpcs) {
    const double t = sim_us(world);
    const std::uint64_t n = rpc_calls.value();
    std::string out = s.command(line);
    *ms = (sim_us(world) - t) / 1000.0;
    *rpcs = rpc_calls.value() - n;
    return out;
  };
  const std::string out_add =
      op(util::strprintf("addgroup %s m 1 %zu %d waiter", job.c_str(),
                         machines, cfg.per_machine),
         &r.create_ms, &r.rpcs[0]);
  r.created = summary_count(out_add, "processes created");
  r.started = count_substr(op("startjob " + job, &r.start_ms, &r.rpcs[1]),
                           "' started.");
  r.stopped = count_substr(op("stopjob " + job, &r.stop_ms, &r.rpcs[2]),
                           "' stopped.");
  r.removed = count_substr(op("removejob " + job, &r.kill_ms, &r.rpcs[3]),
                           "' removed");

  if (r.created != expect || r.started != expect || r.stopped != expect ||
      r.removed != expect) {
    std::fprintf(
        stderr,
        "bench_scale: wave '%s' created/started/stopped/removed = "
        "%llu/%llu/%llu/%llu, expected %llu each\n",
        job.c_str(), static_cast<unsigned long long>(r.created),
        static_cast<unsigned long long>(r.started),
        static_cast<unsigned long long>(r.stopped),
        static_cast<unsigned long long>(r.removed),
        static_cast<unsigned long long>(expect));
    ++*errors;
  }
  // One request per machine per op, whatever the process count.
  for (std::uint64_t n : r.rpcs) {
    if (n != machines) {
      std::fprintf(stderr,
                   "bench_scale: wave '%s' op cost %llu RPCs on %zu "
                   "machines (want one per machine)\n",
                   job.c_str(), static_cast<unsigned long long>(n), machines);
      ++*errors;
    }
  }
  return r;
}

SuiteResult run_suite(const ScaleConfig& cfg) {
  SuiteResult suite;

  const TopoResult* small_hier = nullptr;
  const TopoResult* big_hier = nullptr;
  const TopoResult* small_flat = nullptr;
  const TopoResult* big_flat = nullptr;
  Cluster peak;  // the largest hierarchical world, kept for the waves

  suite.topologies.reserve(cfg.sizes.size() * 2);
  for (std::size_t m : cfg.sizes) {
    for (bool hier : {false, true}) {
      Cluster c = make_cluster(m, hier, cfg, &suite.errors);
      suite.topologies.push_back(
          run_sender_load(c, m, hier, cfg, &suite.errors));
      std::fflush(stderr);
      if (hier && m == cfg.sizes.back()) peak = std::move(c);
    }
  }
  for (const TopoResult& r : suite.topologies) {
    if (r.hier && r.machines == cfg.sizes.front()) small_hier = &r;
    if (r.hier && r.machines == cfg.sizes.back()) big_hier = &r;
    if (!r.hier && r.machines == cfg.sizes.front()) small_flat = &r;
    if (!r.hier && r.machines == cfg.sizes.back()) big_flat = &r;
  }
  if (small_hier && big_hier && small_hier->per_machine_eps > 0) {
    suite.hier_scaling = big_hier->per_machine_eps / small_hier->per_machine_eps;
  }
  if (small_flat && big_flat && small_flat->per_machine_eps > 0) {
    suite.flat_scaling = big_flat->per_machine_eps / small_flat->per_machine_eps;
  }
  // Identical offered load must yield identical selection through either
  // topology whenever nothing was lost on the way.
  for (std::size_t m : cfg.sizes) {
    const TopoResult *flat = nullptr, *hier = nullptr;
    for (const TopoResult& r : suite.topologies) {
      if (r.machines != m) continue;
      (r.hier ? hier : flat) = &r;
    }
    if (flat && hier && flat->lossless && hier->lossless &&
        flat->accepted != hier->accepted) {
      std::fprintf(stderr,
                   "bench_scale: flat/hier accepted diverge at %zu machines: "
                   "%llu vs %llu\n",
                   m, static_cast<unsigned long long>(flat->accepted),
                   static_cast<unsigned long long>(hier->accepted));
      ++suite.errors;
    }
  }

  // ---- controller waves through the peak hierarchical session ----
  const std::size_t peak_m = cfg.sizes.back();
  suite.session_machines = peak_m + 1;  // + hub
  suite.session_processes = peak_m;     // the senders already run
  for (int k = 0; k < cfg.waves; ++k) {
    suite.waves.push_back(run_wave(peak, util::strprintf("w%d", k), peak_m,
                                   cfg, &suite.errors));
    suite.session_processes += suite.waves.back().created;
  }

  const auto t0c = peak.world->meter_conservation();
  const auto t1c = peak.world->fanin_conservation();
  suite.session_tier0_ok = t0c.balanced();
  suite.session_tier1_ok = t1c.balanced();
  if (!suite.session_tier0_ok || !suite.session_tier1_ok) {
    std::fprintf(stderr,
                 "bench_scale: peak session conservation violated after "
                 "%llu processes\n",
                 static_cast<unsigned long long>(suite.session_processes));
    ++suite.errors;
  }
  return suite;
}

std::string suite_json(const SuiteResult& s, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"topologies\": [\n";
  for (std::size_t i = 0; i < s.topologies.size(); ++i) {
    const TopoResult& r = s.topologies[i];
    out += util::strprintf(
        "%s    {\"topology\": \"%s\", \"machines\": %zu, \"offered\": %llu, "
        "\"accepted\": %llu, \"expected\": %llu, \"bytes_remote\": %llu, "
        "\"window_ms\": %.2f, \"events_per_s\": %.0f, "
        "\"per_machine_eps\": %.1f, \"lossless\": %s, "
        "\"tier0_balanced\": %s, \"tier1_balanced\": %s}%s\n",
        pad.c_str(), r.hier ? "hier" : "flat", r.machines,
        static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.accepted),
        static_cast<unsigned long long>(r.expected),
        static_cast<unsigned long long>(r.bytes_remote), r.window_ms,
        r.events_per_s, r.per_machine_eps, r.lossless ? "true" : "false",
        r.tier0_ok ? "true" : "false", r.tier1_ok ? "true" : "false",
        i + 1 < s.topologies.size() ? "," : "");
  }
  out += pad + "  ],\n";
  out += util::strprintf(
      "%s  \"scaling\": {\"hier\": %.3f, \"flat\": %.3f},\n", pad.c_str(),
      s.hier_scaling, s.flat_scaling);
  out += pad + "  \"waves\": [\n";
  for (std::size_t i = 0; i < s.waves.size(); ++i) {
    const WaveResult& w = s.waves[i];
    out += util::strprintf(
        "%s    {\"create_ms\": %.2f, \"start_ms\": %.2f, "
        "\"stop_ms\": %.2f, \"kill_ms\": %.2f, \"procs\": %llu, "
        "\"rpcs_per_op\": [%llu, %llu, %llu, %llu]}%s\n",
        pad.c_str(), w.create_ms, w.start_ms, w.stop_ms, w.kill_ms,
        static_cast<unsigned long long>(w.created),
        static_cast<unsigned long long>(w.rpcs[0]),
        static_cast<unsigned long long>(w.rpcs[1]),
        static_cast<unsigned long long>(w.rpcs[2]),
        static_cast<unsigned long long>(w.rpcs[3]),
        i + 1 < s.waves.size() ? "," : "");
  }
  out += pad + "  ],\n";
  out += util::strprintf(
      "%s  \"session\": {\"machines\": %zu, \"processes\": %llu, "
      "\"tier0_balanced\": %s, \"tier1_balanced\": %s}\n",
      pad.c_str(), s.session_machines,
      static_cast<unsigned long long>(s.session_processes),
      s.session_tier0_ok ? "true" : "false",
      s.session_tier1_ok ? "true" : "false");
  out += pad + "}";
  return out;
}

constexpr const char* kJsonPath = "BENCH_scale.json";

void print_suite(const char* label, const SuiteResult& s) {
  for (const TopoResult& r : s.topologies) {
    std::printf(
        "bench_scale %s: %-4s %4zu machines: %7llu offered, %6llu accepted, "
        "%8llu remote bytes, %8.1f ms, %9.0f ev/s (%7.1f /machine)\n",
        label, r.hier ? "hier" : "flat", r.machines,
        static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.accepted),
        static_cast<unsigned long long>(r.bytes_remote), r.window_ms,
        r.events_per_s, r.per_machine_eps);
  }
  for (const WaveResult& w : s.waves) {
    std::printf(
        "bench_scale %s: wave %llu procs: create %.2f, start %.2f, stop "
        "%.2f, kill %.2f ms; %llu RPCs per op\n",
        label, static_cast<unsigned long long>(w.created), w.create_ms,
        w.start_ms, w.stop_ms, w.kill_ms,
        static_cast<unsigned long long>(w.rpcs[1]));
  }
  std::printf(
      "bench_scale %s: scaling hier %.3f flat %.3f | session %zu machines, "
      "%llu processes\n",
      label, s.hier_scaling, s.flat_scaling, s.session_machines,
      static_cast<unsigned long long>(s.session_processes));
}

int run(bool full) {
  ScaleConfig smoke_cfg;
  smoke_cfg.sizes = {4, 8};
  smoke_cfg.arity = 4;
  smoke_cfg.count = 32;
  smoke_cfg.every = 4;
  smoke_cfg.gap_us = 300;
  smoke_cfg.per_machine = 3;
  smoke_cfg.waves = 2;

  SuiteResult smoke = run_suite(smoke_cfg);
  print_suite("smoke", smoke);

  SuiteResult fullr;
  if (full) {
    ScaleConfig full_cfg;
    full_cfg.sizes = {10, 100, 1000};
    full_cfg.arity = 16;
    full_cfg.count = 400;
    full_cfg.every = 16;
    // The window opens at `startjob` and closes at quiescence, so it
    // includes the RPC ramp that staggers 1000 senders into life (~2.3 s
    // of simulated time at the largest size). A 20 s steady send phase
    // (400 records, 50 ms apart) amortizes the ramp below 15% of the
    // window, so the scaling ratio measures the monitoring path rather
    // than job-start latency — and costs no wall clock, since the
    // discrete-event executive's work scales with events, not sim time.
    full_cfg.gap_us = 50000;
    full_cfg.per_machine = 10;
    // 10 waves of 10k waiters: >100k processes through the one session.
    full_cfg.waves = 10;
    fullr = run_suite(full_cfg);
    print_suite("full", fullr);
  }

  int errors = smoke.errors + fullr.errors;
  if (full) {
    if (fullr.hier_scaling < 0.75) {
      std::fprintf(stderr, "bench_scale: hier scaling %.3f < 0.75\n",
                   fullr.hier_scaling);
      ++errors;
    }
    if (fullr.session_machines < 1000 || fullr.session_processes < 100000) {
      std::fprintf(stderr, "bench_scale: session %zu machines / %llu procs "
                           "under the 1000/100k floor\n",
                   fullr.session_machines,
                   static_cast<unsigned long long>(fullr.session_processes));
      ++errors;
    }
    const TopoResult *bf = nullptr, *bh = nullptr;
    for (const TopoResult& r : fullr.topologies) {
      if (r.machines == 1000) (r.hier ? bh : bf) = &r;
    }
    if (bf && bh && bh->bytes_remote * 2 > bf->bytes_remote) {
      std::fprintf(stderr,
                   "bench_scale: hier@1000 moved %llu remote bytes, not under "
                   "half of flat's %llu\n",
                   static_cast<unsigned long long>(bh->bytes_remote),
                   static_cast<unsigned long long>(bf->bytes_remote));
      ++errors;
    }
  }

  std::ofstream out(kJsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"cluster_scale\",\n  \"mode\": \""
      << (full ? "full" : "smoke") << "\",\n";
  out << "  \"smoke\": " << suite_json(smoke, 2);
  if (full) out << ",\n  \"full\": " << suite_json(fullr, 2);
  out << "\n}\n";
  if (!out.good()) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", kJsonPath);
    return 1;
  }
  std::printf("wrote %s\n", kJsonPath);
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return dpm::bench::run(false);
  }
  return dpm::bench::run(true);
}
