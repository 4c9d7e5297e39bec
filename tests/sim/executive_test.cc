#include "sim/executive.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace dpm::sim {
namespace {

using util::TimePoint;
using util::usec;

TEST(Executive, EventsAdvanceTime) {
  Executive exec;
  std::vector<std::int64_t> at;
  exec.schedule_after(usec(10), [&] { at.push_back(util::count_us(exec.now())); });
  exec.schedule_after(usec(5), [&] { at.push_back(util::count_us(exec.now())); });
  exec.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(util::count_us(exec.now()), 10);
}

TEST(Executive, TaskRunsAndFinishes) {
  Executive exec;
  bool ran = false;
  const TaskId id = exec.spawn("t", [&] { ran = true; });
  exec.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(exec.task_finished(id));
  EXPECT_EQ(exec.live_tasks(), 0u);
}

TEST(Executive, SleepAdvancesSimTime) {
  Executive exec;
  std::int64_t woke_at = -1;
  exec.spawn("sleeper", [&] {
    exec.sleep_for(usec(250));
    woke_at = util::count_us(exec.now());
  });
  exec.run();
  EXPECT_EQ(woke_at, 250);
}

TEST(Executive, ParkAndWake) {
  Executive exec;
  int stage = 0;
  TaskId waiter = 0;
  waiter = exec.spawn("waiter", [&] {
    stage = 1;
    exec.park_current();
    stage = 2;
  });
  exec.run();
  EXPECT_EQ(stage, 1);  // parked
  exec.make_runnable(waiter);
  exec.run();
  EXPECT_EQ(stage, 2);
}

TEST(Executive, WakePendingWhileRunningIsNotLost) {
  Executive exec;
  int stage = 0;
  TaskId id = exec.spawn("self", [&] {
    // A wake arrives while we are running; the next park must consume it
    // instead of blocking.
    exec.make_runnable(exec.current_task());
    exec.park_current();
    stage = 1;
  });
  exec.run();
  EXPECT_EQ(stage, 1);
  EXPECT_TRUE(exec.task_finished(id));
}

TEST(Executive, TwoTasksInterleaveDeterministically) {
  Executive exec;
  std::vector<int> order;
  exec.spawn("a", [&] {
    order.push_back(1);
    exec.sleep_for(usec(10));
    order.push_back(3);
  });
  exec.spawn("b", [&] {
    order.push_back(2);
    exec.sleep_for(usec(5));
    order.push_back(4);
  });
  exec.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Executive, AbortUnwindsParkedTask) {
  Executive exec;
  bool cleaned = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  const TaskId id = exec.spawn("victim", [&] {
    Guard g{&cleaned};
    exec.park_current();  // never woken normally
  });
  exec.run();
  EXPECT_FALSE(cleaned);
  exec.abort_task(id);
  exec.run();
  EXPECT_TRUE(cleaned);
  EXPECT_TRUE(exec.task_finished(id));
}

TEST(Executive, RunUntilStopsAtBoundary) {
  Executive exec;
  int fired = 0;
  exec.schedule_after(usec(10), [&] { ++fired; });
  exec.schedule_after(usec(20), [&] { ++fired; });
  exec.run_until(TimePoint{} + usec(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(util::count_us(exec.now()), 15);
  exec.run();
  EXPECT_EQ(fired, 2);
}

// The in-place advance: a task blocking until t whose wake-up would be
// the very next dispatch moves the clock itself, with no switch.

TEST(Executive, LoneSleeperAdvancesInPlace) {
  obs::Registry reg;
  Executive exec;
  exec.set_obs(&reg);
  const obs::Counter& dispatched = reg.counter("sim.events_dispatched");
  constexpr std::uint64_t kSleeps = 1000;
  std::uint64_t switches = 0;
  std::uint64_t seq = 0;
  std::uint64_t events = 0;
  std::int64_t start_us = -1;
  exec.spawn("sleeper", [&] {
    switches = exec.switches();
    seq = exec.next_seq();
    events = dispatched.value();
    start_us = util::count_us(exec.now());
    for (std::uint64_t i = 0; i < kSleeps; ++i) {
      exec.sleep_for(usec(3));
      ASSERT_EQ(util::count_us(exec.now()),
                start_us + 3 * static_cast<std::int64_t>(i + 1));
    }
    switches = exec.switches() - switches;
    seq = exec.next_seq() - seq;
    events = dispatched.value() - events;
  });
  exec.run();
  EXPECT_EQ(util::count_us(exec.now()), start_us + 3 * 1000);
  EXPECT_EQ(switches, 0u);
  EXPECT_EQ(seq, kSleeps);
  EXPECT_EQ(events, kSleeps);
  EXPECT_EQ(exec.switches(), 1u);  // the first resume only
  // Each advance is an instant of its own, closed by the next one, as
  // each queued wake-up would have been.
  EXPECT_EQ(reg.histogram("sim.events_per_tick").count(), kSleeps - 1);
  EXPECT_EQ(reg.histogram("sim.events_per_tick").sum(),
            static_cast<std::int64_t>(kSleeps - 1));
}

TEST(Executive, EarlierEventForcesTheQueuedPath) {
  Executive exec;
  std::vector<std::string> order;
  auto at = [&exec](const char* what) {
    return what + std::to_string(util::count_us(exec.now()));
  };
  exec.schedule_after(usec(5), [&] { order.push_back(at("event@")); });
  exec.spawn("sleeper", [&] {
    exec.sleep_for(usec(10));
    order.push_back(at("sleeper@"));
  });
  exec.run();
  EXPECT_EQ(order, (std::vector<std::string>{"event@5", "sleeper@10"}));
  EXPECT_EQ(exec.switches(), 2u);  // started, then resumed by its wake-up
}

TEST(Executive, SecondRunnableTaskForcesTheQueuedPath) {
  Executive exec;
  std::vector<std::string> order;
  auto at = [&exec](const char* what) {
    return what + std::to_string(util::count_us(exec.now()));
  };
  exec.spawn("sleeper", [&] {
    exec.sleep_for(usec(10));
    order.push_back(at("sleeper@"));
  });
  exec.spawn("other", [&] { order.push_back(at("other@")); });
  exec.run();
  EXPECT_EQ(order, (std::vector<std::string>{"other@0", "sleeper@10"}));
  EXPECT_EQ(exec.switches(), 3u);
}

TEST(Executive, EventDueExactlyAtTheTargetRunsFirst) {
  // The event was scheduled first, so its sequence number is lower than
  // the wake-up's would be: it must run before the sleeper wakes.
  Executive exec;
  std::vector<std::string> order;
  exec.schedule_after(usec(10), [&] { order.push_back("event"); });
  exec.spawn("sleeper", [&] {
    exec.sleep_for(usec(10));
    order.push_back("sleeper");
  });
  exec.run();
  EXPECT_EQ(order, (std::vector<std::string>{"event", "sleeper"}));
  EXPECT_EQ(util::count_us(exec.now()), 10);
  EXPECT_EQ(exec.switches(), 2u);
}

TEST(Executive, RunUntilBoundsTheAdvance) {
  Executive exec;
  bool woke = false;
  exec.spawn("sleeper", [&] {
    exec.sleep_for(usec(20));
    woke = true;
  });
  exec.run_until(TimePoint{} + usec(15));
  EXPECT_FALSE(woke);  // parked: the advance may not pass the bound
  EXPECT_EQ(util::count_us(exec.now()), 15);
  EXPECT_EQ(exec.live_tasks(), 1u);
  exec.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(util::count_us(exec.now()), 20);
  EXPECT_EQ(exec.switches(), 2u);

  // A target exactly at the bound is within it, as an event due there
  // would be.
  Executive at_bound;
  bool done = false;
  at_bound.spawn("sleeper", [&] {
    at_bound.sleep_for(usec(15));
    done = true;
  });
  at_bound.run_until(TimePoint{} + usec(15));
  EXPECT_TRUE(done);
  EXPECT_EQ(at_bound.switches(), 1u);
}

TEST(Executive, PendingWakeForcesTheQueuedPath) {
  // The queued path's first park consumes the pending wake; the sleep
  // parks again and ends on its own wake-up at its target, which leaves
  // no stale wake-up queued (an advance would have kept the wake).
  Executive exec;
  std::int64_t back_at = -1;
  bool woke_again = false;
  exec.spawn("self", [&] {
    exec.make_runnable(exec.current_task());
    exec.sleep_for(usec(10));
    back_at = util::count_us(exec.now());
    exec.park_current();  // nothing is left to wake it
    woke_again = true;
  });
  exec.run();
  EXPECT_EQ(back_at, 10);
  EXPECT_FALSE(woke_again);
  EXPECT_EQ(util::count_us(exec.now()), 10);
  EXPECT_EQ(exec.switches(), 2u);
}

TEST(Executive, DestructorAbortsLiveTasks) {
  bool cleaned = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  {
    Executive exec;
    exec.spawn("stuck", [&exec, &cleaned] {
      Guard g{&cleaned};
      exec.park_current();
    });
    exec.run();
    EXPECT_FALSE(cleaned);
  }
  EXPECT_TRUE(cleaned);
}

TEST(Executive, MakeRunnableIdempotent) {
  Executive exec;
  int wakes = 0;
  TaskId id = exec.spawn("w", [&] {
    exec.park_current();
    ++wakes;
  });
  exec.run();
  exec.make_runnable(id);
  exec.make_runnable(id);  // double wake: only one resume happens
  exec.run();
  EXPECT_EQ(wakes, 1);
  EXPECT_TRUE(exec.task_finished(id));
}

TEST(Executive, ManyTasksDrainCleanly) {
  Executive exec;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    exec.spawn("n", [&exec, &done, i] {
      exec.sleep_for(usec(i % 7));
      ++done;
    });
  }
  exec.run();
  EXPECT_EQ(done, 100);
}

TEST(Executive, ParkInsideCatchHandlerKeepsOwnException) {
  // Both tasks park while handling an exception, so both are live in the
  // one thread at once; each `throw;` must rethrow the task's own value.
  Executive exec;
  int seen_a = 0;
  int seen_b = 0;
  auto body = [&exec](int value, int* seen) {
    return [&exec, value, seen] {
      try {
        throw value;
      } catch (int) {
        exec.park_current();
        try {
          throw;
        } catch (int rethrown) {
          *seen = rethrown;
        }
      }
    };
  };
  const TaskId a = exec.spawn("a", body(1, &seen_a));
  const TaskId b = exec.spawn("b", body(2, &seen_b));
  exec.run();
  exec.make_runnable(a);
  exec.make_runnable(b);
  exec.run();
  EXPECT_EQ(seen_a, 1);
  EXPECT_EQ(seen_b, 2);
  EXPECT_EQ(exec.live_tasks(), 0u);
}

// 1/3 divided on SSE, so it rounds by MXCSR. Under FE_UPWARD it is one
// ulp above the round-to-nearest quotient. (glibc's fegetround reads the
// other half of the state, the x87 control word.)
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Executive, FloatingPointControlIsPerTask) {
  // MXCSR and the x87 control word are callee-saved, so a switch keeps
  // them per task: a body's rounding mode survives its park and never
  // reaches the executive.
  Executive exec;
  const double nearest = third();
  int mode_in_task = -1;
  double third_in_task = 0;
  const TaskId id = exec.spawn("upward", [&] {
    std::fesetround(FE_UPWARD);
    exec.park_current();
    mode_in_task = std::fegetround();
    third_in_task = third();
  });
  exec.run();
  const int mode_outside = std::fegetround();
  const double third_outside = third();
  exec.make_runnable(id);
  exec.run();
  std::fesetround(FE_TONEAREST);  // in case a switch leaked the task's mode
  EXPECT_EQ(mode_outside, FE_TONEAREST);
  EXPECT_EQ(third_outside, nearest);
  EXPECT_EQ(mode_in_task, FE_UPWARD);
  EXPECT_GT(third_in_task, nearest);
}

// A frame of its own: where a call made on the task's stack lands.
[[gnu::noinline]] std::uintptr_t callee_frame() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

TEST(Executive, TaskFramesAreAbiAligned) {
  // The hand-built first frame must leave the stack pointer where the
  // x86-64 ABI puts it at a call: 16-byte aligned. glibc's printf saves
  // the vector registers with aligned stores, so "%f" of a double faults
  // or misprints on a misaligned stack.
  Executive exec;
  std::uintptr_t first = 1;
  std::uintptr_t after_park = 1;
  char text[32] = {};
  const TaskId id = exec.spawn("aligned", [&] {
    first = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    exec.park_current();
    after_park = callee_frame();
    volatile double x = 2.5;
    std::snprintf(text, sizeof text, "%f", x);
  });
  exec.run();
  exec.make_runnable(id);
  exec.run();
  EXPECT_EQ(first % 16, 0u);
  EXPECT_EQ(after_park % 16, 0u);
  EXPECT_STREQ(text, "2.500000");
}

// Recurses `depth` frames deep; no stack holds SIZE_MAX of them.
int recurse(std::size_t depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[0];
}

// The PROT_NONE mapping directly below the one holding `addr`, or an empty
// range when the mapping below is not an adjacent inaccessible page.
std::pair<std::uintptr_t, std::uintptr_t> guard_below(const void* addr) {
  const auto at = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream maps("/proc/self/maps");
  std::uintptr_t prev_lo = 0;
  std::uintptr_t prev_hi = 0;
  bool prev_inaccessible = false;
  for (std::string line; std::getline(maps, line);) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) != 3) continue;
    if (lo <= at && at < hi) {
      if (prev_inaccessible && prev_hi == lo) return {prev_lo, prev_hi};
      break;
    }
    prev_lo = lo;
    prev_hi = hi;
    prev_inaccessible = std::strcmp(perms, "---p") == 0;
  }
  return {0, 0};
}

// Written by the task, read by the fault handler on the same thread.
std::atomic<std::uintptr_t> guard_lo{0};
std::atomic<std::uintptr_t> guard_hi{0};

void report_fault(int, siginfo_t* info, void*) {
  const auto at = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const char* what = at >= guard_lo && at < guard_hi ? "overflow hit the guard page\n"
                                                     : "fault outside any guard page\n";
  [[maybe_unused]] const ssize_t n = write(STDERR_FILENO, what, std::strlen(what));
  _exit(1);
}

TEST(ExecutiveDeathTest, StackOverflowDiesOnGuardPage) {
  EXPECT_DEATH(
      {
        // The task's stack is exhausted when the fault arrives, so the
        // handler needs a stack of its own.
        static char alt_stack[64 * 1024];
        stack_t ss{};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof alt_stack;
        sigaltstack(&ss, nullptr);
        struct sigaction sa {};
        sa.sa_sigaction = report_fault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        Executive exec;
        exec.spawn("deep", [] {
          const char here = 0;
          const auto [lo, hi] = guard_below(&here);
          guard_lo = lo;
          guard_hi = hi;
          recurse(SIZE_MAX);
        });
        exec.run();
      },
      "overflow hit the guard page");
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(Executive, FinishedTasksReleaseTheirStacks) {
  constexpr std::size_t kTasks = 10000;
  const std::size_t before = mapping_count();
  Executive exec;
  std::vector<TaskId> ids;
  ids.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    ids.push_back(exec.spawn("parked", [&exec] { exec.park_current(); }));
  }
  exec.run();
  ASSERT_EQ(exec.live_tasks(), kTasks);
  // Each live stack is two mappings: the stack and its guard page.
  EXPECT_GE(mapping_count(), before + 2 * kTasks);
  for (TaskId id : ids) exec.abort_task(id);
  exec.run();
  EXPECT_EQ(exec.live_tasks(), 0u);
  // With the executive (and every Task object) still alive, the stacks
  // must already be gone: a finished task holds no mapping. The slack is
  // for the allocator, which maps regions for the tasks' heap objects
  // (about 40 under asan).
  EXPECT_LE(mapping_count(), before + 64);
}

}  // namespace
}  // namespace dpm::sim
