// Task-switch microbench: the host cost of one executive task switch, and
// of one in-place advance.
//
// Two tasks hand control to each other through the executive, the way a
// simulated process blocks in a syscall and is woken by its peer: each
// makes the other runnable and parks. Every resume the executive counts
// (Executive::switches) is one task switch: a stack switch into the task
// and one back when it parks. A second round has one task sleep with
// nothing else pending, the way a lone process pays for its syscalls:
// each wake-up would be the executive's next dispatch, so each sleep
// advances the clock in place and switches nothing. The figures are host
// time, so no run bounds them; the smoke instead checks that the executive
// did exactly the switches the ping-pong implies, and that the lone
// sleeper switched nothing and moved the clock by exactly its sleeps.
//
//   bench_executive --smoke   100k rounds of each: check the counts, print
//                             ns per switch and ns per in-place advance
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "sim/executive.h"

namespace dpm::bench {
namespace {

struct PingPong {
  std::uint64_t switches = 0;
  std::uint64_t expected = 0;
  double seconds = 0;
};

// Each task wakes its peer and parks `rounds` times, then wakes the peer
// once more and finishes. Each is resumed once to start and once after
// every park: 2 * (rounds + 1) task switches in all.
PingPong ping_pong(std::uint64_t rounds) {
  sim::Executive exec;
  sim::TaskId a = sim::kNoTask;
  sim::TaskId b = sim::kNoTask;
  auto body = [&exec, rounds](const sim::TaskId& peer) {
    return [&exec, &peer, rounds] {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        exec.make_runnable(peer);
        exec.park_current();
      }
      exec.make_runnable(peer);
    };
  };
  a = exec.spawn("ping", body(b));
  b = exec.spawn("pong", body(a));
  const auto t0 = std::chrono::steady_clock::now();
  exec.run();
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
  return {exec.switches(), 2 * (rounds + 1), took.count()};
}

struct LoneSleeper {
  std::uint64_t switches = 0;  // during the sleeps
  std::int64_t advanced_us = 0;
  double seconds = 0;
};

// One task sleeps `steps` times for 1 us with nothing else pending.
LoneSleeper lone_sleeper(std::uint64_t steps) {
  sim::Executive exec;
  LoneSleeper r;
  exec.spawn("sleeper", [&exec, &r, steps] {
    const std::uint64_t switches0 = exec.switches();
    const util::TimePoint t0 = exec.now();
    const auto h0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < steps; ++i) exec.sleep_for(util::usec(1));
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - h0;
    r.seconds = took.count();
    r.switches = exec.switches() - switches0;
    r.advanced_us = util::count_us(exec.now() - t0);
  });
  exec.run();
  return r;
}

int smoke() {
  constexpr std::uint64_t kRounds = 100000;
  const PingPong r = ping_pong(kRounds);
  if (r.switches != r.expected) {
    std::fprintf(stderr, "bench_executive: %llu task switches for %llu rounds, expected %llu\n",
                 static_cast<unsigned long long>(r.switches),
                 static_cast<unsigned long long>(kRounds),
                 static_cast<unsigned long long>(r.expected));
    return 1;
  }
  std::printf("bench_executive: %llu task switches in %.1f ms: %.0f ns per task switch\n",
              static_cast<unsigned long long>(r.switches), r.seconds * 1e3,
              r.seconds * 1e9 / static_cast<double>(r.switches));

  const LoneSleeper s = lone_sleeper(kRounds);
  if (s.switches != 0 || s.advanced_us != static_cast<std::int64_t>(kRounds)) {
    std::fprintf(stderr, "bench_executive: %llu sleeps of 1 us by a lone task made %llu task "
                 "switches and moved the clock %lld us, expected 0 and %llu\n",
                 static_cast<unsigned long long>(kRounds),
                 static_cast<unsigned long long>(s.switches),
                 static_cast<long long>(s.advanced_us),
                 static_cast<unsigned long long>(kRounds));
    return 1;
  }
  std::printf("bench_executive: %llu in-place advances in %.1f ms: %.1f ns per advance\n",
              static_cast<unsigned long long>(kRounds), s.seconds * 1e3,
              s.seconds * 1e9 / static_cast<double>(kRounds));
  return 0;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--smoke") != 0) {
    std::fprintf(stderr, "usage: bench_executive --smoke\n");
    return 2;
  }
  return dpm::bench::smoke();
}
