// Task-switch microbench: the host cost of one executive task switch.
//
// Two tasks hand control to each other through the executive, the way a
// simulated process blocks in a syscall and is woken by its peer: each
// makes the other runnable and parks. Every resume the executive counts
// (Executive::switches) is one task switch: a stack switch into the task
// and one back when it parks. The figure is host time, so no run bounds
// it; the smoke instead checks that the executive did exactly the switches
// the ping-pong implies.
//
//   bench_executive --smoke   100k rounds: check the count, print ns/switch
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
