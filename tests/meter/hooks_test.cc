// Kernel metering hooks (§3.2): buffering vs immediate delivery, flush on
// termination, event counts per syscall, M_IMMEDIATE, and the meter
// socket as the one transport: records cross machines only as fabric
// payload.
#include "kernel/meter_hooks.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "meter/meterflags.h"
#include "meter/metermsgs.h"
#include "net/faults.h"
#include "testing.h"

namespace dpm::kernel {
namespace {

class HooksTest : public ::testing::Test {
 protected:
  HooksTest() { reset({}); }

  void reset(WorldConfig cfg) {
    world_ = std::make_unique<World>(cfg);
    machines_ = dpm::testing::add_machines(*world_, {"red", "green"});
    world_->add_account_everywhere(100);
  }

  /// Collects raw meter bytes on green:4500 across any number of
  /// connections.
  void spawn_sink() {
    (void)world_->spawn(machines_[1], "sink", 100, [this](Sys& sys) {
      auto ls = sys.socket(SockDomain::internet, SockType::stream);
      (void)sys.bind_port(*ls, 4500);
      (void)sys.listen(*ls, 8);
      std::vector<Fd> conns;
      for (;;) {
        std::vector<Fd> fds = conns;
        fds.push_back(*ls);
        auto sel = sys.select(fds, false, util::sec(30));
        if (!sel.ok() || sel->timed_out) break;
        for (Fd fd : sel->readable) {
          if (fd == *ls) {
            auto c = sys.accept(*ls);
            if (c.ok()) conns.push_back(*c);
            continue;
          }
          auto data = sys.recv(fd, 65536);
          if (!data.ok() || data->empty()) {
            (void)sys.close(fd);
            conns.erase(std::remove(conns.begin(), conns.end(), fd),
                        conns.end());
            continue;
          }
          collected_.insert(collected_.end(), data->begin(), data->end());
        }
      }
    });
  }

  /// Runs `body` as a fully metered process (flags | M_ALL extras).
  void run_metered(meter::Flags flags, std::function<void(Sys&)> body) {
    (void)world_->spawn(machines_[0], "app", 100, [&, flags](Sys& sys) {
      sys.sleep(util::msec(5));
      auto addr = sys.resolve("green", 4500);
      auto ms = sys.socket(SockDomain::internet, SockType::stream);
      ASSERT_TRUE(sys.connect(*ms, *addr).ok());
      ASSERT_TRUE(sys.setmeter(meter::SETMETER_SELF,
                               static_cast<std::int32_t>(flags), *ms)
                      .ok());
      ASSERT_TRUE(sys.close(*ms).ok());
      body(sys);
    });
    world_->run();
  }

  std::vector<meter::MeterMsg> messages() const {
    std::vector<meter::MeterMsg> out;
    std::size_t pos = 0;
    while (auto m = meter::MeterMsg::parse_stream(collected_, pos)) {
      out.push_back(std::move(*m));
    }
    return out;
  }

  std::unique_ptr<World> world_;
  std::vector<MachineId> machines_;
  util::Bytes collected_;
};

TEST_F(HooksTest, EveryEventKindIsEmitted) {
  spawn_sink();
  run_metered(meter::M_ALL, [](Sys& sys) {
    auto pair = sys.socketpair();            // 2x sockcrt + connect + accept
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(sys.send(pair->first, "x").ok());       // send
    ASSERT_TRUE(sys.recv(pair->second, 16).ok());       // recvcall + recv
    auto d = sys.dup(pair->first);                      // dup
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(sys.close(*d).ok());                    // destsock
    auto child = sys.fork([](Sys&) {});                 // fork
    ASSERT_TRUE(child.ok());
    (void)sys.waitchange(true);
  });
  auto msgs = messages();
  std::map<meter::EventType, int> counts;
  for (const auto& m : msgs) ++counts[m.type()];
  EXPECT_EQ(counts[meter::EventType::sockcrt], 2);
  EXPECT_EQ(counts[meter::EventType::connect], 1);
  EXPECT_EQ(counts[meter::EventType::accept], 1);
  EXPECT_EQ(counts[meter::EventType::send], 1);
  EXPECT_GE(counts[meter::EventType::recvcall], 1);
  EXPECT_GE(counts[meter::EventType::recv], 1);
  EXPECT_EQ(counts[meter::EventType::dup], 1);
  EXPECT_GE(counts[meter::EventType::destsock], 1);
  EXPECT_EQ(counts[meter::EventType::fork], 1);
  // Two termprocs: the child inherits metering and its exit is recorded.
  EXPECT_EQ(counts[meter::EventType::termproc], 2);
}

TEST_F(HooksTest, OnlyFlaggedEventsAreRecorded) {
  spawn_sink();
  // §3.2: "one can meter both accepts and connects, or only one of the
  // two or neither".
  run_metered(meter::M_SOCKET, [](Sys& sys) {
    auto pair = sys.socketpair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(sys.send(pair->first, "x").ok());
    ASSERT_TRUE(sys.recv(pair->second, 16).ok());
  });
  auto msgs = messages();
  ASSERT_EQ(msgs.size(), 2u);  // only the two socket creates
  EXPECT_EQ(msgs[0].type(), meter::EventType::sockcrt);
  EXPECT_EQ(msgs[1].type(), meter::EventType::sockcrt);
}

TEST_F(HooksTest, BufferingReducesFlushes) {
  WorldConfig cfg;
  cfg.meter_buffer_msgs = 8;
  cfg.meter_buffer_bytes = 64 * 1024;
  reset(cfg);
  spawn_sink();
  run_metered(meter::M_SEND, [](Sys& sys) {
    auto pair = sys.socketpair();
    for (int i = 0; i < 32; ++i) (void)sys.send(pair->first, "x");
  });
  const MeterStats stats = world_->meter_stats();
  EXPECT_EQ(stats.events, 32u);  // 32 sends; termproc not flagged
  // 32 events in batches of 8 -> ~4-5 flushes, far fewer than events
  // ("the number of meter messages is considerably smaller", §4.1).
  EXPECT_LE(stats.flushes, 6u);
  EXPECT_GE(stats.flushes, 4u);
}

TEST_F(HooksTest, ByteThresholdAlsoTriggersFlush) {
  WorldConfig cfg;
  cfg.meter_buffer_msgs = 100000;   // never flush by count
  cfg.meter_buffer_bytes = 200;     // ~4 send records
  reset(cfg);
  spawn_sink();
  run_metered(meter::M_SEND, [](Sys& sys) {
    auto pair = sys.socketpair();
    for (int i = 0; i < 20; ++i) (void)sys.send(pair->first, "x");
  });
  const MeterStats stats = world_->meter_stats();
  EXPECT_EQ(stats.events, 20u);
  EXPECT_GE(stats.flushes, 4u);  // size-driven batches
  EXPECT_LE(stats.flushes, 6u);
}

class BufferSweep : public HooksTest,
                    public ::testing::WithParamInterface<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, BufferSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

TEST_P(BufferSweep, FlushCountMatchesBatchArithmetic) {
  WorldConfig cfg;
  cfg.meter_buffer_msgs = GetParam();
  cfg.meter_buffer_bytes = 1 << 20;
  reset(cfg);
  spawn_sink();
  run_metered(meter::M_SEND, [](Sys& sys) {
    auto pair = sys.socketpair();
    for (int i = 0; i < 64; ++i) (void)sys.send(pair->first, "x");
  });
  const MeterStats stats = world_->meter_stats();
  EXPECT_EQ(stats.events, 64u);
  // ceil(64 / batch) threshold flushes; termproc is not flagged so the
  // exit flush only fires when a partial batch remains.
  const std::uint64_t expected = (64 + GetParam() - 1) / GetParam();
  EXPECT_GE(stats.flushes, expected);
  EXPECT_LE(stats.flushes, expected + 1);
  // Every event arrived at the sink regardless of batching.
  EXPECT_EQ(messages().size(), 64u);
}

TEST_F(HooksTest, ImmediateFlushesEveryEvent) {
  spawn_sink();
  run_metered(meter::M_SEND | meter::M_IMMEDIATE, [](Sys& sys) {
    auto pair = sys.socketpair();
    for (int i = 0; i < 10; ++i) (void)sys.send(pair->first, "x");
  });
  const MeterStats stats = world_->meter_stats();
  EXPECT_EQ(stats.flushes, stats.events);
  EXPECT_EQ(stats.events, 10u);
}

TEST_F(HooksTest, TerminationFlushesPendingMessages) {
  WorldConfig cfg;
  cfg.meter_buffer_msgs = 1000;  // never flush on threshold
  cfg.meter_buffer_bytes = 1 << 20;
  reset(cfg);
  spawn_sink();
  run_metered(meter::M_ALL, [](Sys& sys) {
    auto fd = sys.socket(SockDomain::internet, SockType::dgram);
    (void)sys.close(*fd);
    // exit without any flush trigger: §3.2 "As part of process
    // termination, any unsent messages are forwarded to the filter."
  });
  auto msgs = messages();
  // Four events: the helper's close of its (already-registered) meter
  // descriptor is itself a metered destsock, then sockcrt + destsock for
  // the datagram socket, then the termproc recorded at exit.
  ASSERT_EQ(msgs.size(), 4u);
  EXPECT_EQ(msgs[0].type(), meter::EventType::destsock);
  EXPECT_EQ(msgs[1].type(), meter::EventType::sockcrt);
  EXPECT_EQ(msgs[2].type(), meter::EventType::destsock);
  EXPECT_EQ(msgs[3].type(), meter::EventType::termproc);
}

TEST_F(HooksTest, HeaderCarriesLocalClockAndQuantizedCpu) {
  spawn_sink();
  run_metered(meter::M_SOCKET | meter::M_IMMEDIATE, [](Sys& sys) {
    sys.compute(util::msec(25));
    (void)sys.socket(SockDomain::internet, SockType::dgram);
  });
  auto msgs = messages();
  ASSERT_EQ(msgs.size(), 1u);
  // procTime is quantized to 10ms (§4.1) and reflects ~25ms of CPU.
  EXPECT_EQ(msgs[0].header.proc_time % 10000, 0);
  EXPECT_EQ(msgs[0].header.proc_time, 20000);
  // cpuTime is a local clock reading near the simulated instant.
  EXPECT_GT(msgs[0].header.cpu_time, 0);
}

TEST_F(HooksTest, AcceptRecordMatchesFig41) {
  spawn_sink();
  std::vector<meter::MeterMsg> done;
  run_metered(meter::M_ACCEPT | meter::M_CONNECT | meter::M_IMMEDIATE,
              [](Sys& sys) {
                auto ls = sys.socket(SockDomain::internet, SockType::stream);
                auto bound = sys.bind_port(*ls, 4700);
                ASSERT_TRUE(bound.ok());
                (void)sys.listen(*ls, 1);
                auto child = sys.fork([](Sys& csys) {
                  auto addr = csys.resolve("red", 4700);
                  auto fd =
                      csys.socket(SockDomain::internet, SockType::stream);
                  ASSERT_TRUE(csys.connect(*fd, *addr).ok());
                });
                ASSERT_TRUE(child.ok());
                ASSERT_TRUE(sys.accept(*ls).ok());
                (void)sys.waitchange(true);
              });
  auto msgs = messages();
  const meter::MeterAccept* accept = nullptr;
  const meter::MeterConnect* connect = nullptr;
  for (const auto& m : msgs) {
    if (auto* a = std::get_if<meter::MeterAccept>(&m.body)) accept = a;
    if (auto* c = std::get_if<meter::MeterConnect>(&m.body)) connect = c;
  }
  ASSERT_NE(accept, nullptr);
  ASSERT_NE(connect, nullptr);
  // The accept names mirror the connect names (how analysis pairs them).
  EXPECT_EQ(accept->sock_name, connect->peer_name);
  EXPECT_EQ(accept->peer_name, connect->sock_name);
  EXPECT_NE(accept->new_sock, accept->sock);
}

TEST_F(HooksTest, DroppedBatchesAreCountedSeparately) {
  // A flush with no meter socket loses the batch (Appendix C): nothing is
  // sent, so no CPU is booked and nothing is counted as delivered — the
  // loss must land in the dropped_* counters, not in flushes/bytes.
  auto pid = world_->spawn(machines_[0], "idle", 100,
                           [](Sys& sys) { sys.sleep(util::sec(1)); });
  ASSERT_TRUE(pid.ok());
  world_->run_for(util::msec(100));
  Process* p = world_->find_process(machines_[0], *pid);
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->meter_sock, 0u);

  // Pending bytes with no socket: possible when the socket is torn down
  // out from under the process (Appendix C loss scenarios).
  p->meter_pending.assign(64, 0x5a);
  p->meter_pending_count = 2;
  const util::Duration cpu_before = p->cpu_used;
  meter_flush(*world_, *p);

  const MeterStats stats = world_->meter_stats();
  EXPECT_EQ(stats.flushes, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.dropped_batches, 1u);
  EXPECT_EQ(stats.dropped_bytes, 64u);
  EXPECT_EQ(p->cpu_used, cpu_before);  // the lost batch costs nothing
  EXPECT_TRUE(p->meter_pending.empty());
  world_->run();
}

TEST_F(HooksTest, MeteringCostsCpuTime) {
  // Monitoring is cheap but not free (§2.2): the metered run charges more
  // CPU to the machine than the unmetered run.
  auto measure = [&](bool metered) {
    reset({});
    spawn_sink();
    Pid pid = 0;
    if (metered) {
      (void)world_->spawn(machines_[0], "app", 100, [&](Sys& sys) {
        sys.sleep(util::msec(5));
        auto addr = sys.resolve("green", 4500);
        auto ms = sys.socket(SockDomain::internet, SockType::stream);
        (void)sys.connect(*ms, *addr);
        (void)sys.setmeter(meter::SETMETER_SELF,
                           static_cast<std::int32_t>(meter::M_ALL), *ms);
        (void)sys.close(*ms);
        auto pair = sys.socketpair();
        for (int i = 0; i < 100; ++i) (void)sys.send(pair->first, "x");
        pid = sys.getpid();
      });
    } else {
      (void)world_->spawn(machines_[0], "app", 100, [&](Sys& sys) {
        sys.sleep(util::msec(5));
        auto pair = sys.socketpair();
        for (int i = 0; i < 100; ++i) (void)sys.send(pair->first, "x");
        pid = sys.getpid();
      });
    }
    world_->run();
    Process* p = world_->find_process(machines_[0], pid);
    return p ? p->cpu_used.count() : 0;
  };
  const auto unmetered = measure(false);
  const auto metered = measure(true);
  EXPECT_GT(metered, unmetered);
}

TEST_F(HooksTest, OversizedRecordIsDeliveredWhole) {
  // A single record bigger than the whole batch byte threshold still
  // arrives intact: the pending buffer overshoots the threshold and the
  // flush ships the record whole, never clipped to meter_buffer_bytes.
  WorldConfig cfg;
  cfg.meter_buffer_bytes = 48;  // smaller than one accept record below
  reset(cfg);
  spawn_sink();
  const std::string big_name(200, 'n');
  run_metered(meter::M_ACCEPT, [&](Sys& sys) {
    Process* self = sys.world().find_process(machines_[0], sys.getpid());
    ASSERT_NE(self, nullptr);
    meter::MeterAccept body{sys.getpid(), 0, 7, 8, big_name, big_name};
    meter_emit(sys.world(), *self,
               MeterEventDraft{meter::M_ACCEPT, std::move(body)});
  });
  auto msgs = messages();
  ASSERT_EQ(msgs.size(), 1u);
  const auto* acc = std::get_if<meter::MeterAccept>(&msgs[0].body);
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->sock_name, big_name);
  EXPECT_EQ(acc->peer_name, big_name);
  EXPECT_TRUE(world_->meter_conservation().balanced());
}

using MeterTransport = HooksTest;

TEST_F(MeterTransport, RemoteEdgePaysTheFabric) {
  // The meter socket is the only transport, so a record metered on red
  // reaches green's filter only as fabric payload: every metered byte is
  // booked in net.bytes_remote, and a partition holds the batches back
  // until it heals instead of letting them through.
  auto plan = net::FaultPlan::parse("partition@20ms red green for=100ms");
  ASSERT_TRUE(plan.has_value());
  world_->install_faults(*plan);
  spawn_sink();
  (void)world_->spawn(machines_[0], "app", 100, [](Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("green", 4500);
    auto ms = sys.socket(SockDomain::internet, SockType::stream);
    ASSERT_TRUE(sys.connect(*ms, *addr).ok());
    ASSERT_TRUE(sys.setmeter(meter::SETMETER_SELF,
                             static_cast<std::int32_t>(meter::M_SEND), *ms)
                    .ok());
    ASSERT_TRUE(sys.close(*ms).ok());
    auto pair = sys.socketpair();
    for (int i = 0; i < 16; ++i) (void)sys.send(pair->first, "x");
    sys.sleep(util::msec(20));  // wake inside the partition window
    for (int i = 0; i < 16; ++i) (void)sys.send(pair->first, "x");
  });

  // Mid-partition: the two batches flushed before it arrived; the two
  // flushed during it are still held by the fabric.
  world_->run_for(util::msec(80));
  EXPECT_EQ(messages().size(), 16u);

  world_->run();
  EXPECT_EQ(messages().size(), 32u);
  const std::uint64_t meter_bytes =
      world_->obs().counter("kernel.meter_bytes").value();
  EXPECT_GT(meter_bytes, 0u);
  EXPECT_GE(world_->obs().counter("net.bytes_remote").value(), meter_bytes);
  const MeterConservation cons = world_->meter_conservation();
  EXPECT_EQ(cons.emitted, 32u);
  EXPECT_EQ(cons.consumed, 32u);
  EXPECT_TRUE(cons.balanced());
}

}  // namespace
}  // namespace dpm::kernel
