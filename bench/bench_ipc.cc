// E5 — the IPC substrate (§3.1): stream vs datagram behaviour that the
// monitor's model rests on. Stream throughput and round-trip latency vs
// message size; local vs remote hops; datagram delivery under loss.
//
// Counters:
//   sim_us_rt        simulated round-trip time
//   sim_mbytes_per_s simulated stream throughput
//   delivery_rate    datagrams delivered / sent
//
// `--smoke` skips the timings: it runs each case once, writes
// BENCH_ipc.json into the cwd, and exits 1 unless the paper's claims hold:
// a local stream round trip is faster than a remote one at every size
// measured both ways; every stream byte arrives, in order; every local
// datagram arrives, and so does every remote one at 0% loss; and remote
// delivery at 5% and 25% loss lies within 3 sigma of the configured rate.
// Everything it writes is simulated, so scripts/check_bench.sh requires
// the committed file to reproduce exactly.
#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/strings.h"

namespace dpm::bench {
namespace {

/// Byte `i` of a checked stream: any lost, duplicated or reordered byte
/// shows up as a mismatch.
std::uint8_t pattern(std::size_t i) { return static_cast<std::uint8_t>(i % 251); }

util::Bytes pattern_bytes(std::size_t from, std::size_t n) {
  util::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = pattern(from + i);
  return b;
}

constexpr int kRounds = 50;

struct RoundTrip {
  double sim_us = 0;     // per round trip
  bool in_order = true;  // every echo equalled what was sent
};

/// `kRounds` echoes of `size` bytes between a client and a server on m0,
/// the client on m0 (local) or m1 (remote).
RoundTrip stream_round_trip(std::size_t size, bool local) {
  auto world = make_world(2);
  (void)world->spawn(1, "server", 100, [&](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.bind_port(*ls, 5000);
    (void)sys.listen(*ls, 2);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto d = sys.recv_exact(*conn, size);
      if (!d.ok()) break;
      if (!sys.send(*conn, *d).ok()) break;
    }
  });
  RoundTrip r;
  (void)world->spawn(local ? 1u : 2u, "client", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("m0", 5000);
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.connect(*fd, *addr);
    const double t0 = sim_us(sys.world());
    for (int i = 0; i < kRounds; ++i) {
      const util::Bytes msg = pattern_bytes(static_cast<std::size_t>(i) * size, size);
      (void)sys.send(*fd, msg);
      auto echo = sys.recv_exact(*fd, size);
      if (!echo.ok() || *echo != msg) r.in_order = false;
    }
    r.sim_us = (sim_us(sys.world()) - t0) / kRounds;
    (void)sys.close(*fd);
  });
  world->run();
  return r;
}

constexpr std::size_t kStreamBytes = 1 << 20;

struct Throughput {
  double sim_mbytes_per_s = 0;
  std::size_t received = 0;
  bool in_order = true;  // every received byte was the next one sent
};

/// Streams kStreamBytes from m1 to m0 in `chunk`-byte sends.
Throughput stream_throughput(std::size_t chunk) {
  auto world = make_world(2);
  Throughput r;
  (void)world->spawn(1, "sink", 100, [&](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.bind_port(*ls, 5001);
    (void)sys.listen(*ls, 2);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto d = sys.recv(*conn, 65536);
      if (!d.ok() || d->empty()) break;
      for (std::uint8_t b : *d) {
        if (b != pattern(r.received++)) r.in_order = false;
      }
    }
  });
  double elapsed = 0;
  (void)world->spawn(2, "source", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("m0", 5001);
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.connect(*fd, *addr);
    const double t0 = sim_us(sys.world());
    for (std::size_t sent = 0; sent < kStreamBytes; sent += chunk) {
      (void)sys.send(*fd, pattern_bytes(sent, chunk));
    }
    (void)sys.close(*fd);
    elapsed = sim_us(sys.world()) - t0;
  });
  world->run();
  r.sim_mbytes_per_s =
      static_cast<double>(kStreamBytes) / (1 << 20) / (elapsed / 1e6);
  return r;
}

constexpr int kDatagrams = 500;

/// Datagrams delivered of kDatagrams sent to m0, from m0 (local) or m1
/// (remote), on a network that loses `loss_pct` percent of them.
int datagram_delivery(int loss_pct, bool local) {
  kernel::WorldConfig cfg;
  cfg.default_net.dgram_loss = static_cast<double>(loss_pct) / 100.0;
  auto world = make_world(2, cfg);
  int got = 0;
  (void)world->spawn(1, "sink", 100, [&](kernel::Sys& sys) {
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::dgram);
    (void)sys.bind_port(*fd, 5002);
    for (;;) {
      auto sel = sys.select({*fd}, false, util::msec(50));
      if (!sel.ok() || sel->timed_out) break;
      if (sys.recvfrom(*fd).ok()) ++got;
    }
  });
  (void)world->spawn(local ? 1u : 2u, "source", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("m0", 5002);
    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::dgram);
    util::Bytes msg(64, 0x22);
    for (int i = 0; i < kDatagrams; ++i) {
      (void)sys.sendto(*fd, msg, *addr);
      sys.sleep(util::usec(200));
    }
  });
  world->run();
  return got;
}

void BM_StreamRoundTrip(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const bool local = state.range(1) != 0;
  double total = 0;
  for (auto _ : state) total += stream_round_trip(size, local).sim_us;
  state.counters["sim_us_rt"] = total / static_cast<double>(state.iterations());
}

void BM_StreamThroughput(benchmark::State& state) {
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  double total = 0;
  for (auto _ : state) total += stream_throughput(chunk).sim_mbytes_per_s;
  state.counters["sim_mbytes_per_s"] = total / static_cast<double>(state.iterations());
}

void BM_DatagramDelivery(benchmark::State& state) {
  const int loss_pct = static_cast<int>(state.range(0));
  std::int64_t delivered = 0;
  for (auto _ : state) delivered += datagram_delivery(loss_pct, /*local=*/false);
  state.counters["delivery_rate"] = static_cast<double>(delivered) /
                                    static_cast<double>(state.iterations()) /
                                    kDatagrams;
}

BENCHMARK(BM_StreamRoundTrip)
    ->Args({64, 0})->Args({1024, 0})->Args({16384, 0})  // remote
    ->Args({64, 1})->Args({1024, 1})                    // local
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamThroughput)->Arg(256)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DatagramDelivery)->Arg(0)->Arg(5)->Arg(25)
    ->Unit(benchmark::kMillisecond);

constexpr const char* kJsonPath = "BENCH_ipc.json";

const char* hop_name(bool local) { return local ? "local" : "remote"; }

int smoke() {
  int errors = 0;
  auto fail = [&errors](const std::string& why) {
    std::fprintf(stderr, "bench_ipc: %s\n", why.c_str());
    ++errors;
  };

  // Round trips: every size remote, the two smaller ones local too.
  struct RtCase {
    std::size_t size;
    bool local;
  };
  const RtCase rt_cases[] = {{64, false}, {1024, false}, {16384, false},
                             {64, true},  {1024, true}};
  std::string rt_rows;
  double remote_us[2] = {0, 0};  // 64 B and 1 KiB, for the local check
  for (const RtCase& c : rt_cases) {
    const RoundTrip r = stream_round_trip(c.size, c.local);
    std::printf("bench_ipc smoke: stream round trip %5zu B %-6s %9.2f sim us%s\n",
                c.size, hop_name(c.local), r.sim_us,
                r.in_order ? "" : "  (bytes differ)");
    rt_rows += util::strprintf(
        "%s    {\"size\": %zu, \"hop\": \"%s\", \"sim_us\": %.2f, "
        "\"in_order\": %s}",
        rt_rows.empty() ? "" : ",\n", c.size, hop_name(c.local), r.sim_us,
        r.in_order ? "true" : "false");
    if (!r.in_order) {
      fail(util::strprintf("%zu B %s round trip: an echo differs from what "
                           "was sent",
                           c.size, hop_name(c.local)));
    }
    const int slot = c.size == 64 ? 0 : c.size == 1024 ? 1 : -1;
    if (slot < 0) continue;
    if (!c.local) {
      remote_us[slot] = r.sim_us;
    } else if (!(r.sim_us < remote_us[slot])) {
      fail(util::strprintf("%zu B: local round trip %.2f sim us is not "
                           "faster than remote %.2f",
                           c.size, r.sim_us, remote_us[slot]));
    }
  }

  std::string tp_rows;
  for (std::size_t chunk : {std::size_t{256}, std::size_t{4096}, std::size_t{65536}}) {
    const Throughput t = stream_throughput(chunk);
    std::printf("bench_ipc smoke: stream throughput %5zu B chunks %6.2f sim "
                "MB/s, %zu of %zu bytes%s\n",
                chunk, t.sim_mbytes_per_s, t.received, kStreamBytes,
                t.in_order ? " in order" : " out of order");
    tp_rows += util::strprintf(
        "%s    {\"chunk\": %zu, \"sim_mbytes_per_s\": %.2f, \"bytes\": %zu, "
        "\"received\": %zu, \"in_order\": %s}",
        tp_rows.empty() ? "" : ",\n", chunk, t.sim_mbytes_per_s, kStreamBytes,
        t.received, t.in_order ? "true" : "false");
    if (t.received != kStreamBytes || !t.in_order) {
      fail(util::strprintf("%zu B chunks: %zu of %zu stream bytes arrived%s",
                           chunk, t.received, kStreamBytes,
                           t.in_order ? "" : ", out of order"));
    }
  }

  std::string dg_rows;
  for (bool local : {false, true}) {
    for (int loss_pct : {0, 5, 25}) {
      const int got = datagram_delivery(loss_pct, local);
      std::printf("bench_ipc smoke: datagrams %-6s at %2d%% loss: %d of %d "
                  "delivered\n",
                  hop_name(local), loss_pct, got, kDatagrams);
      dg_rows += util::strprintf(
          "%s    {\"hop\": \"%s\", \"loss_pct\": %d, \"sent\": %d, "
          "\"delivered\": %d}",
          dg_rows.empty() ? "" : ",\n", hop_name(local), loss_pct, kDatagrams,
          got);
      if (local || loss_pct == 0) {
        // Local hops never drop; a lossless network drops nothing.
        if (got != kDatagrams) {
          fail(util::strprintf("%s at %d%% loss: %d of %d datagrams "
                               "delivered, want all",
                               hop_name(local), loss_pct, got, kDatagrams));
        }
        continue;
      }
      // Each remote datagram survives independently with p = 1 - loss.
      const double p = 1.0 - static_cast<double>(loss_pct) / 100.0;
      const double mean = kDatagrams * p;
      const double sigma = std::sqrt(kDatagrams * p * (1.0 - p));
      if (std::fabs(got - mean) > 3 * sigma) {
        fail(util::strprintf("remote at %d%% loss: %d of %d delivered, "
                             "outside %.1f +- 3 x %.1f",
                             loss_pct, got, kDatagrams, mean, sigma));
      }
    }
  }

  std::ofstream out(kJsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"ipc\",\n"
      << util::strprintf("  \"round_trips\": %d,\n", kRounds)
      << "  \"stream_round_trip\": [\n" << rt_rows << "\n  ],\n"
      << "  \"stream_throughput\": [\n" << tp_rows << "\n  ],\n"
      << "  \"datagrams\": [\n" << dg_rows << "\n  ]\n}\n";
  if (!out.good()) {
    std::fprintf(stderr, "bench_ipc: cannot write %s\n", kJsonPath);
    return 1;
  }
  std::printf("wrote %s\n", kJsonPath);
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
