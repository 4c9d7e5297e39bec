// E1 — metering cost at the kernel (§3.2, §4.1).
//
// The paper's design claim: buffering meter messages makes the number of
// messages sent to the filter "considerably smaller" than the number of
// events; M_IMMEDIATE trades that for promptness. This benchmark measures
// (a) the simulated CPU cost added to a metered process per event, and
// (b) the meter-message amplification, across buffer sizes and the
// immediate mode.
//
// Counters:
//   sim_us_per_send  simulated cost of one send syscall under this config
//   events           meter events generated
//   flushes          meter messages (batches) actually sent
//   meter_bytes      bytes shipped over the meter connection
//
// `--smoke` skips the timings: it runs each configuration once, writes
// BENCH_meter_overhead.json into the cwd, and exits 1 unless the paper's
// buffering claim holds: the unmetered run emits no events, M_IMMEDIATE
// and one record per batch send one meter message per event, k records
// per batch send ceil(events/k) messages, and the simulated cost of a
// send falls as k grows. Everything it writes is simulated, so
// scripts/check_bench.sh requires the committed file to reproduce
// exactly.
#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/strings.h"

namespace dpm::bench {
namespace {

constexpr int kSends = 400;

struct SendRun {
  double sim_us = 0;  // the kSends sends, in simulated time
  kernel::MeterStats meter;
};

/// Runs `kSends` socketpair sends under the given metering mode.
/// buffer_msgs == 0 means unmetered; immediate==true forces M_IMMEDIATE.
SendRun run_sends(std::uint32_t buffer_msgs, bool immediate,
                  meter::Flags flags) {
  kernel::WorldConfig cfg;
  if (buffer_msgs > 0) cfg.meter_buffer_msgs = buffer_msgs;
  cfg.meter_buffer_bytes = 1 << 20;  // count-driven flushing only
  auto world = make_world(2, cfg);

  // Meter sink on m1.
  (void)world->spawn(2, "sink", 100, [](kernel::Sys& sys) {
    auto ls =
        sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    (void)sys.bind_port(*ls, 4500);
    (void)sys.listen(*ls, 4);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto data = sys.recv(*conn, 65536);
      if (!data.ok() || data->empty()) break;
    }
  });

  std::int64_t t0 = 0, t1 = 0;
  (void)world->spawn(1, "app", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    if (buffer_msgs > 0) {
      auto addr = sys.resolve("m1", 4500);
      auto ms =
          sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
      (void)sys.connect(*ms, *addr);
      meter::Flags f = flags;
      if (immediate) f |= meter::M_IMMEDIATE;
      (void)sys.setmeter(meter::SETMETER_SELF, static_cast<std::int32_t>(f),
                         *ms);
      (void)sys.close(*ms);
    }
    auto pair = sys.socketpair();
    t0 = util::count_us(world->now());
    for (int i = 0; i < kSends; ++i) {
      (void)sys.send(pair->first, "0123456789abcdef");
    }
    t1 = util::count_us(world->now());
  });
  world->run();
  return SendRun{static_cast<double>(t1 - t0), world->meter_stats()};
}

void run_send_workload(benchmark::State& state, std::uint32_t buffer_msgs,
                       bool immediate, meter::Flags flags) {
  double total_sim_us = 0;
  std::uint64_t events = 0, flushes = 0, bytes = 0;

  for (auto _ : state) {
    const SendRun run = run_sends(buffer_msgs, immediate, flags);
    total_sim_us += run.sim_us;
    events += run.meter.events;
    flushes += run.meter.flushes;
    bytes += run.meter.bytes;
  }

  const double iters = static_cast<double>(state.iterations());
  state.counters["sim_us_per_send"] = total_sim_us / iters / kSends;
  state.counters["events"] = static_cast<double>(events) / iters;
  state.counters["flushes"] = static_cast<double>(flushes) / iters;
  state.counters["meter_bytes"] = static_cast<double>(bytes) / iters;
}

void BM_Unmetered(benchmark::State& state) {
  run_send_workload(state, 0, false, 0);
}

void BM_MeteredBuffered(benchmark::State& state) {
  run_send_workload(state, static_cast<std::uint32_t>(state.range(0)), false,
                    meter::M_ALL);
}

void BM_MeteredImmediate(benchmark::State& state) {
  run_send_workload(state, 1, true, meter::M_ALL);
}

void BM_MeteredSendFlagOnly(benchmark::State& state) {
  run_send_workload(state, 8, false, meter::M_SEND);
}

BENCHMARK(BM_Unmetered)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MeteredBuffered)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MeteredImmediate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MeteredSendFlagOnly)->Unit(benchmark::kMillisecond);

constexpr const char* kJsonPath = "BENCH_meter_overhead.json";

int smoke() {
  struct Config {
    const char* name;
    std::uint32_t buffer_msgs;  // 0 = unmetered
    bool immediate;
    meter::Flags flags;
  };
  const Config configs[] = {
      {"unmetered", 0, false, 0},
      {"buffered_1", 1, false, meter::M_ALL},
      {"buffered_4", 4, false, meter::M_ALL},
      {"buffered_8", 8, false, meter::M_ALL},
      {"buffered_16", 16, false, meter::M_ALL},
      {"buffered_64", 64, false, meter::M_ALL},
      {"immediate", 1, true, meter::M_ALL},
      {"send_only_8", 8, false, meter::M_SEND},
  };
  int errors = 0;
  auto fail = [&errors](const std::string& why) {
    std::fprintf(stderr, "bench_meter_overhead: %s\n", why.c_str());
    ++errors;
  };
  std::string rows;
  double last_buffered_us = 0;
  for (const Config& c : configs) {
    const SendRun run = run_sends(c.buffer_msgs, c.immediate, c.flags);
    const std::uint64_t events = run.meter.events;
    const std::uint64_t messages = run.meter.flushes;
    const double us_per_send = run.sim_us / kSends;
    std::printf("bench_meter_overhead smoke: %-12s events %4llu, meter "
                "messages %4llu, %.2f sim us/send\n",
                c.name, static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(messages), us_per_send);
    rows += util::strprintf(
        "%s    {\"config\": \"%s\", \"events\": %llu, \"messages\": "
        "%llu, \"sim_us_per_send\": %.2f}",
        rows.empty() ? "" : ",\n", c.name,
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(messages), us_per_send);

    if (c.buffer_msgs == 0) {
      if (events != 0) fail("the unmetered run emitted events");
      continue;
    }
    // One message per event when immediate; otherwise a message per k
    // events, the last one partly filled.
    const std::uint32_t k = c.immediate ? 1 : c.buffer_msgs;
    if (events == 0 || messages != (events + k - 1) / k) {
      fail(util::strprintf("%s: %llu meter messages for %llu events, want "
                           "ceil(events/%u)",
                           c.name, static_cast<unsigned long long>(messages),
                           static_cast<unsigned long long>(events), k));
    }
    if (c.flags == meter::M_ALL && !c.immediate) {
      if (last_buffered_us > 0 && !(us_per_send < last_buffered_us)) {
        fail(util::strprintf("%s: %.2f sim us per send does not fall below "
                             "the smaller batch's %.2f",
                             c.name, us_per_send, last_buffered_us));
      }
      last_buffered_us = us_per_send;
    }
  }

  std::ofstream out(kJsonPath, std::ios::trunc);
  out << "{\n  \"bench\": \"meter_overhead\",\n"
      << util::strprintf("  \"sends\": %d,\n", kSends)
      << "  \"configs\": [\n" << rows << "\n  ]\n}\n";
  if (!out.good()) {
    std::fprintf(stderr, "bench_meter_overhead: cannot write %s\n",
                 kJsonPath);
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
