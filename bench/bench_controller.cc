// E4 — controller/daemon RPC and job setup (§3.5.1).
//
// "The stream connection between the controller and a meterdaemon exists
// for the duration of a single exchange of messages. ... communication
// between the controller and the meterdaemons is infrequent enough that
// establishing these connections as they are needed does not introduce
// significant overhead." The benchmark quantifies the temporary-
// connection exchange against a long-lived connection, and job setup
// latency as processes/machines scale.
//
// Counters:
//   sim_us_per_rpc     simulated cost of one exchange
//   sim_ms_setup       simulated time to build a whole job
//
// `--smoke` skips the timings: it measures each figure once, writes
// BENCH_controller.json into the cwd, and exits 1 unless a temporary
// connection costs more per exchange than the long-lived one (the
// paper's trade-off) and a 16-process startjob across 3 machines costs 3
// RPCs (one request per machine). Everything it writes is simulated
// time, so scripts/check_bench.sh requires the committed file to
// reproduce exactly.
#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "daemon/protocol.h"
#include "daemon/rpc_pipeline.h"
#include "util/strings.h"

namespace dpm::bench {
namespace {

constexpr int kExchanges = 50;

/// Simulated µs per setflags exchange against a live daemon, each over a
/// fresh connection (the paper's design).
double temporary_us_per_rpc() {
  auto world = make_world(2);
  control::spawn_meterdaemons(*world);
  // A target process on m0 to manipulate.
  auto victim = world->spawn(1, "victim", 100, [](kernel::Sys& sys) {
    sys.sleep(util::sec(30));
  });
  double elapsed = 0;
  // The driver runs on m1 so both RPC strategies cross the network.
  (void)world->spawn(2, "driver", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("m0", daemon::kDaemonPort);
    const double t0 = sim_us(sys.world());
    for (int i = 0; i < kExchanges; ++i) {
      daemon::SetFlagsRequest req;
      req.uid = 100;
      req.pid = *victim;
      req.flags = meter::M_SEND;
      auto reply = daemon::rpc_call(sys, *addr, req, daemon::RpcOptions{});
      benchmark::DoNotOptimize(reply.ok());
    }
    elapsed = sim_us(sys.world()) - t0;
  });
  world->run_for(util::msec(500));
  (void)world->proc_kill(1, *victim, 100);
  world->run();
  return elapsed / kExchanges;
}

/// The same exchanges over one long-lived connection (the design the
/// paper rejected as "undependable ... across machine boundaries").
double long_lived_us_per_rpc() {
  auto world = make_world(2);
  // A bare echo-style request server standing in for the daemon's
  // dispatcher, so only the connection strategy differs.
  (void)world->spawn(1, "server", 100, [](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.bind_port(*ls, 700);
    (void)sys.listen(*ls, 4);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto req = daemon::recv_msg(sys, *conn);
      if (!req.ok()) break;
      (void)daemon::send_msg(sys, *conn, daemon::SimpleReply{0});
    }
  });
  double elapsed = 0;
  (void)world->spawn(2, "driver", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("m0", 700);
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.connect(*fd, *addr);
    const double t0 = sim_us(sys.world());
    for (int i = 0; i < kExchanges; ++i) {
      daemon::SetFlagsRequest req;
      req.uid = 100;
      req.pid = 1;
      req.flags = meter::M_SEND;
      (void)daemon::send_msg(sys, *fd, req);
      auto reply = daemon::recv_msg(sys, *fd);
      benchmark::DoNotOptimize(reply.ok());
    }
    elapsed = sim_us(sys.world()) - t0;
    (void)sys.close(*fd);
  });
  world->run();
  return elapsed / kExchanges;
}

/// Whole-job setup: filter + newjob + N processes over 3 machines +
/// setflags, in simulated µs. `start_rpcs` gets the daemon.rpc_calls the
/// job's startjob then adds.
double job_setup_us(int nprocs, std::uint64_t* start_rpcs) {
  auto world = make_world(4);
  control::spawn_meterdaemons(*world);
  control::MonitorSession session(*world, {.host = "m0", .uid = 100});
  world->run();
  (void)session.drain_output();
  const double t0 = sim_us(*world);
  (void)session.command("filter f1 m0");
  (void)session.command("newjob j");
  for (int i = 0; i < nprocs; ++i) {
    (void)session.command("addprocess j m" + std::to_string(1 + i % 3) +
                          " hello p" + std::to_string(i));
  }
  (void)session.command("setflags j all");
  const double setup = sim_us(*world) - t0;
  const obs::Counter& calls = world->obs().counter("daemon.rpc_calls");
  const std::uint64_t before = calls.value();
  (void)session.command("startjob j");
  *start_rpcs = calls.value() - before;
  (void)session.command("removejob j");
  return setup;
}

void BM_RpcTemporaryConnections(benchmark::State& state) {
  double total = 0;
  for (auto _ : state) total += temporary_us_per_rpc();
  state.counters["sim_us_per_rpc"] =
      total / static_cast<double>(state.iterations());
}

void BM_RpcLongLivedConnection(benchmark::State& state) {
  double total = 0;
  for (auto _ : state) total += long_lived_us_per_rpc();
  state.counters["sim_us_per_rpc"] =
      total / static_cast<double>(state.iterations());
}

void BM_JobSetup(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  double total = 0;
  std::uint64_t start_rpcs = 0;
  for (auto _ : state) total += job_setup_us(nprocs, &start_rpcs);
  state.counters["sim_ms_setup"] =
      total / static_cast<double>(state.iterations()) / 1000.0;
  state.counters["sim_ms_per_proc"] =
      total / static_cast<double>(state.iterations()) / 1000.0 / nprocs;
}

BENCHMARK(BM_RpcTemporaryConnections)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RpcLongLivedConnection)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JobSetup)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

constexpr const char* kJsonPath = "BENCH_controller.json";

int smoke() {
  const double temporary = temporary_us_per_rpc();
  const double long_lived = long_lived_us_per_rpc();
  std::string setups;
  std::uint64_t start_rpcs = 0;
  for (int n : {1, 4, 16}) {
    const double ms = job_setup_us(n, &start_rpcs) / 1000.0;
    std::printf("bench_controller smoke: job setup %2d procs: %.2f ms "
                "(%.2f ms/proc)\n",
                n, ms, ms / n);
    setups += util::strprintf(
        "%s    {\"procs\": %d, \"sim_ms\": %.2f, \"sim_ms_per_proc\": "
        "%.2f}",
        setups.empty() ? "" : ",\n", n, ms, ms / n);
  }
  // The last setup is the 16-process job on m1..m3.
  std::printf("bench_controller smoke: exchange %.1f us temporary, %.1f us "
              "long-lived; 16-process startjob on 3 machines: %llu RPCs\n",
              temporary, long_lived,
              static_cast<unsigned long long>(start_rpcs));

  std::ofstream out(kJsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"controller\",\n"
      << util::strprintf("  \"exchange_sim_us\": {\"temporary\": %.1f, "
                         "\"long_lived\": %.1f},\n",
                         temporary, long_lived)
      << "  \"job_setup\": [\n" << setups << "\n  ],\n"
      << util::strprintf("  \"startjob_16_procs_3_machines_rpc_calls\": "
                         "%llu\n}\n",
                         static_cast<unsigned long long>(start_rpcs));
  if (!out.good()) {
    std::fprintf(stderr, "bench_controller: cannot write %s\n", kJsonPath);
    return 1;
  }
  std::printf("wrote %s\n", kJsonPath);

  int errors = 0;
  if (!(temporary > long_lived)) {
    std::fprintf(stderr,
                 "bench_controller: temporary connection %.1f us is not "
                 "dearer than the long-lived one's %.1f us\n",
                 temporary, long_lived);
    ++errors;
  }
  if (start_rpcs != 3) {
    std::fprintf(stderr,
                 "bench_controller: 16-process startjob on 3 machines cost "
                 "%llu RPCs, want 3\n",
                 static_cast<unsigned long long>(start_rpcs));
    ++errors;
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return dpm::bench::smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
