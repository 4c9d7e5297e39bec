// CPU model: the non-preemptive FIFO CPU serializes local processes;
// syscalls have costs; machines run independently; clocks are skewed.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "testing.h"

namespace dpm::kernel {
namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : world_(dpm::testing::quick_config()) {
    machines_ = dpm::testing::add_machines(world_, {"red", "green"});
    world_.add_account_everywhere(100);
  }
  World world_;
  std::vector<MachineId> machines_;
};

TEST_F(CpuTest, ComputeAdvancesSimTime) {
  (void)world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
    sys.compute(util::msec(25));
  });
  world_.run();
  EXPECT_GE(util::count_us(world_.now()), 25000);
}

TEST_F(CpuTest, LocalProcessesContendForTheCpu) {
  // Two 20ms computations on ONE machine take >= 40ms of simulated time.
  (void)world_.spawn(machines_[0], "a", 100,
                     [&](Sys& sys) { sys.compute(util::msec(20)); });
  (void)world_.spawn(machines_[0], "b", 100,
                     [&](Sys& sys) { sys.compute(util::msec(20)); });
  world_.run();
  EXPECT_GE(util::count_us(world_.now()), 40000);
}

TEST_F(CpuTest, SecondChargeQueuesBehindTheFirstOnTheFifoCpu) {
  // b's charge starts where a's ends (cpu_free_at), so it ends at a's end
  // plus its own cost. When b charges, a's wake-up is still queued before
  // b's end, so b cannot advance the clock in place past it.
  std::vector<std::pair<char, std::int64_t>> ends;
  (void)world_.spawn(machines_[0], "a", 100, [&](Sys& sys) {
    sys.compute(util::msec(20));
    ends.emplace_back('a', util::count_us(world_.now()));
  });
  (void)world_.spawn(machines_[0], "b", 100, [&](Sys& sys) {
    sys.compute(util::msec(30));
    ends.emplace_back('b', util::count_us(world_.now()));
  });
  world_.run();
  const std::vector<std::pair<char, std::int64_t>> want = {{'a', 20000},
                                                           {'b', 20000 + 30000}};
  EXPECT_EQ(ends, want);
  EXPECT_EQ(util::count_us(world_.now()), 50000);
  EXPECT_EQ(world_.machine(machines_[0]).cpu_free_at,
            util::TimePoint{} + util::usec(50000));
}

TEST_F(CpuTest, RemoteProcessesRunInParallel) {
  // The same two computations on DIFFERENT machines overlap.
  (void)world_.spawn(machines_[0], "a", 100,
                     [&](Sys& sys) { sys.compute(util::msec(20)); });
  (void)world_.spawn(machines_[1], "b", 100,
                     [&](Sys& sys) { sys.compute(util::msec(20)); });
  world_.run();
  const auto total = util::count_us(world_.now());
  EXPECT_GE(total, 20000);
  EXPECT_LT(total, 30000);
}

TEST_F(CpuTest, SleepDoesNotHoldTheCpu) {
  // A sleeping process lets another one compute.
  std::int64_t b_done_at = 0;
  (void)world_.spawn(machines_[0], "sleeper", 100,
                     [&](Sys& sys) { sys.sleep(util::msec(100)); });
  (void)world_.spawn(machines_[0], "worker", 100, [&](Sys& sys) {
    sys.compute(util::msec(10));
    b_done_at = util::count_us(world_.now());
  });
  world_.run();
  EXPECT_LT(b_done_at, 20000);  // did not wait for the sleeper
}

TEST_F(CpuTest, CpuTimeAccumulatesPerProcess) {
  Pid pid = 0;
  {
    auto r = world_.spawn(machines_[0], "p", 100, [&](Sys& sys) {
      sys.compute(util::msec(5));
      sys.sleep(util::msec(50));  // sleep is not CPU time
      sys.compute(util::msec(7));
    });
    ASSERT_TRUE(r.ok());
    pid = *r;
  }
  world_.run();
  Process* p = world_.find_process(machines_[0], pid);
  ASSERT_NE(p, nullptr);
  // 12ms of compute plus small syscall costs; well under 13ms.
  EXPECT_GE(p->cpu_used.count(), 12000);
  EXPECT_LT(p->cpu_used.count(), 13000);
}

TEST_F(CpuTest, ClocksDisagreeAcrossMachines) {
  std::int64_t red_reading = 0, green_reading = 0;
  (void)world_.spawn(machines_[0], "a", 100, [&](Sys& sys) {
    sys.sleep(util::msec(100));
    red_reading = sys.clock_us();
  });
  (void)world_.spawn(machines_[1], "b", 100, [&](Sys& sys) {
    sys.sleep(util::msec(100));
    green_reading = sys.clock_us();
  });
  world_.run();
  // The default machine model assigns distinct offsets (seeded); two
  // machines read the same instant differently.
  EXPECT_NE(red_reading, green_reading);
}

TEST_F(CpuTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    World w(dpm::testing::quick_config(seed));
    auto ms = dpm::testing::add_machines(w, {"red", "green"});
    w.add_account_everywhere(100);
    std::int64_t finish = 0;
    (void)w.spawn(ms[0], "srv", 100, [&](Sys& sys) {
      auto ls = sys.socket(SockDomain::internet, SockType::stream);
      (void)sys.bind_port(*ls, 4000);
      (void)sys.listen(*ls, 1);
      auto conn = sys.accept(*ls);
      for (int i = 0; i < 20; ++i) {
        auto d = sys.recv_exact(*conn, 8);
        if (!d.ok()) break;
        (void)sys.send(*conn, *d);
      }
      finish = util::count_us(w.now());
    });
    (void)w.spawn(ms[1], "cli", 100, [&](Sys& sys) {
      sys.sleep(util::msec(5));
      auto addr = sys.resolve("red", 4000);
      auto fd = sys.socket(SockDomain::internet, SockType::stream);
      (void)sys.connect(*fd, *addr);
      util::Bytes m(8, 1);
      for (int i = 0; i < 20; ++i) {
        (void)sys.send(fd.value(), m);
        (void)sys.recv_exact(fd.value(), 8);
      }
    });
    w.run();
    return finish;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), 0);
}

}  // namespace
}  // namespace dpm::kernel
