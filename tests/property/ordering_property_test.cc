// Properties of the deduced global ordering on randomized workloads.
#include <gtest/gtest.h>

#include "analysis/ordering.h"
#include "analysis/report.h"
#include "analysis/analysis_testing.h"
#include "util/rng.h"

namespace dpm::analysis {
namespace {

using dpm::analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;
using meter::MeterTermProc;

/// Random multi-connection workload: `nconns` connections between random
/// machine pairs, each with a random number of one-directional messages,
/// events interleaved into the log in a random (but per-process ordered)
/// way, with random per-machine clock offsets.
struct Workload {
  std::vector<std::pair<Stamp, meter::MeterBody>> events;
  std::size_t total_msgs = 0;
};

Workload random_workload(util::Rng& rng, int nconns) {
  Workload w;
  std::vector<std::vector<std::pair<Stamp, meter::MeterBody>>> streams;
  std::int64_t offsets[8];
  for (auto& o : offsets) o = rng.uniform(-50000, 50000);

  for (int c = 0; c < nconns; ++c) {
    // Star topology: machine 0 talks to everyone, so every machine pair
    // with traffic is estimated *directly* by the clock-alignment BFS
    // (transitive composition is exercised by the deterministic
    // alignment tests; its per-pair bound is weaker by construction).
    const auto ma = static_cast<std::uint16_t>(0);
    const auto mb = static_cast<std::uint16_t>(rng.uniform(1, 7));
    const std::int32_t pa = 100 + 2 * c, pb = 101 + 2 * c;
    const auto sa = static_cast<std::uint64_t>(10 + 2 * c);
    const auto sb = static_cast<std::uint64_t>(11 + 2 * c);
    const std::string na = "n" + std::to_string(2 * c);
    const std::string nb = "n" + std::to_string(2 * c + 1);

    std::vector<std::pair<Stamp, meter::MeterBody>> sa_events, sb_events;
    std::int64_t t = rng.uniform(0, 5000);
    sa_events.push_back({Stamp{ma, t + offsets[ma], 0},
                         MeterConnect{pa, 0, sa, na, nb}});
    sb_events.push_back({Stamp{mb, t + 200 + offsets[mb], 0},
                         MeterAccept{pb, 0, 20, sb, nb, na}});
    const int msgs = static_cast<int>(rng.uniform(1, 12));
    for (int i = 0; i < msgs; ++i) {
      t += rng.uniform(100, 2000);
      sa_events.push_back({Stamp{ma, t + offsets[ma], 0},
                           MeterSend{pa, 0, sa, 32, ""}});
      sb_events.push_back(
          {Stamp{mb, t + rng.uniform(200, 900) + offsets[mb], 0},
           MeterRecv{pb, 0, sb, 32, ""}});
    }
    w.total_msgs += static_cast<std::size_t>(msgs);
    sa_events.push_back({Stamp{ma, t + 3000 + offsets[ma], 0},
                         MeterTermProc{pa, 0, 0}});
    sb_events.push_back({Stamp{mb, t + 3200 + offsets[mb], 0},
                         MeterTermProc{pb, 0, 0}});
    streams.push_back(std::move(sa_events));
    streams.push_back(std::move(sb_events));
  }

  // Interleave streams randomly but keep each stream's internal order
  // (exactly what independent meter connections do to the log).
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (;;) {
    std::vector<std::size_t> live;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] < streams[s].size()) live.push_back(s);
    }
    if (live.empty()) break;
    const std::size_t pick =
        live[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1))];
    w.events.push_back(streams[pick][cursor[pick]++]);
  }
  return w;
}

class OrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST_P(OrderingProperty, InvariantsOnRandomWorkloads) {
  util::Rng rng(GetParam());
  Workload w = random_workload(rng, static_cast<int>(rng.uniform(2, 8)));
  auto trace = dpm::analysis_testing::make_trace(w.events);
  Ordering o = order_events(trace);

  // Every message pairs (both sides metered, distinct name pairs).
  EXPECT_EQ(o.message_pairs, w.total_msgs);
  EXPECT_FALSE(o.had_cycle);

  // Lamport respects program order within each process...
  std::map<ProcKey, std::uint64_t> last;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto key = trace.events[i].proc();
    auto [it, fresh] = last.try_emplace(key, o.lamport_of(i));
    if (!fresh) {
      EXPECT_LT(it->second, o.lamport_of(i));
      it->second = o.lamport_of(i);
    }
  }
  // ...and the send-before-receive constraint for every matched pair.
  for (const auto& oe : o.events) {
    if (oe.matched_send) {
      EXPECT_GT(o.lamport_of(oe.index), o.lamport_of(*oe.matched_send));
    }
  }

  // Alignment restores causality for matched pairs.
  ClockAlignment a = estimate_clock_alignment(trace, o);
  for (const auto& oe : o.events) {
    if (!oe.matched_send) continue;
    const Event& recv = trace.events[oe.index];
    const Event& send = trace.events[*oe.matched_send];
    EXPECT_GE(a.aligned(recv), a.aligned(send))
        << "pair " << *oe.matched_send << " -> " << oe.index;
  }
}

TEST_P(OrderingProperty, FullReportComposesStandaloneRoutines) {
  // full_report shares one set of derived facts across its sections; each
  // section must read exactly as the routine run on its own.
  util::Rng rng(GetParam() + 31);
  Workload w = random_workload(rng, static_cast<int>(rng.uniform(2, 8)));
  auto trace = dpm::analysis_testing::make_trace(w.events);
  const std::string composed =
      render_comm_stats(communication_statistics(trace)) +
      render_connections(connection_table(trace)) +
      render_ordering(trace, order_events(trace)) +
      render_parallelism(measure_parallelism(trace)) + "== timeline ==\n" +
      render_timeline(trace) + diagnose(trace).render();
  EXPECT_EQ(full_report(trace), composed);
}

TEST_P(OrderingProperty, LogShufflingDoesNotChangePairing) {
  // The same logical workload interleaved differently into the log must
  // produce the same pairing — only *per-process* order is guaranteed by
  // the meter connections, not global log order.
  util::Rng rng(GetParam() + 77);
  Workload w = random_workload(rng, 4);
  auto trace1 = dpm::analysis_testing::make_trace(w.events);
  Ordering o1 = order_events(trace1);

  // Constrained shuffle: split into per-process streams, re-interleave
  // with a different random schedule.
  std::map<std::pair<std::uint16_t, std::int32_t>,
           std::vector<std::pair<Stamp, meter::MeterBody>>> by_proc;
  for (const auto& ev : w.events) {
    const auto pid = std::visit([](const auto& b) { return b.pid; }, ev.second);
    by_proc[{ev.first.machine, pid}].push_back(ev);
  }
  std::vector<std::vector<std::pair<Stamp, meter::MeterBody>>> streams;
  for (auto& [key, evs] : by_proc) streams.push_back(std::move(evs));
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<std::pair<Stamp, meter::MeterBody>> shuffled;
  util::Rng rng2(GetParam() + 999);
  for (;;) {
    std::vector<std::size_t> live;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] < streams[s].size()) live.push_back(s);
    }
    if (live.empty()) break;
    const std::size_t pick = live[static_cast<std::size_t>(
        rng2.uniform(0, static_cast<std::int64_t>(live.size()) - 1))];
    shuffled.push_back(streams[pick][cursor[pick]++]);
  }

  auto trace2 = dpm::analysis_testing::make_trace(shuffled);
  Ordering o2 = order_events(trace2);
  EXPECT_EQ(o1.message_pairs, o2.message_pairs);
  EXPECT_EQ(o1.had_cycle, o2.had_cycle);
  EXPECT_EQ(o1.clock_anomalies, o2.clock_anomalies);
}

}  // namespace
}  // namespace dpm::analysis
