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
#include "bench_util.h"

#include "daemon/protocol.h"

namespace dpm::bench {
namespace {

constexpr int kExchanges = 50;

/// One setflags RPC per exchange against a live daemon.
void BM_RpcTemporaryConnections(benchmark::State& state) {
  double total = 0;
  for (auto _ : state) {
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
    total += elapsed;
  }
  state.counters["sim_us_per_rpc"] =
      total / static_cast<double>(state.iterations()) / kExchanges;
}

/// The same exchanges over one long-lived connection (the design the
/// paper rejected as "undependable ... across machine boundaries").
void BM_RpcLongLivedConnection(benchmark::State& state) {
  double total = 0;
  for (auto _ : state) {
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
    total += elapsed;
  }
  state.counters["sim_us_per_rpc"] =
      total / static_cast<double>(state.iterations()) / kExchanges;
}

/// Whole-job setup latency: filter + newjob + N processes + setflags.
void BM_JobSetup(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  double total = 0;
  for (auto _ : state) {
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
    total += sim_us(*world) - t0;
    (void)session.command("startjob j");
    (void)session.command("removejob j");
  }
  state.counters["sim_ms_setup"] =
      total / static_cast<double>(state.iterations()) / 1000.0;
  state.counters["sim_ms_per_proc"] =
      total / static_cast<double>(state.iterations()) / 1000.0 / nprocs;
}

BENCHMARK(BM_RpcTemporaryConnections)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RpcLongLivedConnection)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JobSetup)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dpm::bench

BENCHMARK_MAIN();
