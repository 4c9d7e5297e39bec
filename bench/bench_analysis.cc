// E6 — the analysis routines (§3.3): real-time throughput of trace
// parsing, communication statistics, structure recovery, ordering and
// parallelism over synthetic traces of growing size, plus ordering
// recovery under heavy clock skew.
//
// Counters:
//   events_per_s   analysis throughput (real time)
//   pairs          matched send/receive pairs found
//   anomalies      clock anomalies detected
//
// `--smoke` skips the timings and checks E6's figures on the same traces
// instead: every line parses, every message pairs, every cross-machine
// pair under the -60 ms skew is a clock anomaly, and full_report equals
// its sections run as standalone routines. Exits nonzero on a mismatch.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "analysis/report.h"
#include "filter/descriptions.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::bench {
namespace {

/// A synthetic trace: `pairs` processes on distinct machines, each pair
/// exchanging `msgs` messages over a matched connection, with per-machine
/// clock offsets to stress the alignment logic.
std::string synthetic_trace(int pairs, int msgs, std::int64_t skew_us) {
  const filter::Descriptions desc =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  std::string out;
  auto emit = [&](meter::MeterBody body, std::uint16_t machine,
                  std::int64_t t) {
    meter::MeterMsg m;
    m.body = std::move(body);
    m.header.machine = machine;
    m.header.cpu_time = t + machine * skew_us;
    m.header.proc_time = 0;
    auto rec = desc.decode(m.serialize());
    out += filter::trace_line(*rec, {});
  };

  for (int p = 0; p < pairs; ++p) {
    const auto ma = static_cast<std::uint16_t>(2 * p);
    const auto mb = static_cast<std::uint16_t>(2 * p + 1);
    const std::int32_t pid_a = 100 + p, pid_b = 200 + p;
    const std::string name_a = std::to_string(1000000 + p);
    const std::string name_b = std::to_string(2000000 + p);
    emit(meter::MeterConnect{pid_a, 0, 10, name_a, name_b}, ma, 0);
    emit(meter::MeterAccept{pid_b, 0, 20, 21, name_b, name_a}, mb, 500);
    for (int i = 0; i < msgs; ++i) {
      const std::int64_t t = 1000 + i * 400;
      emit(meter::MeterSend{pid_a, 0, 10,
                            static_cast<std::uint32_t>(64 + i % 32), ""},
           ma, t);
      emit(meter::MeterRecvCall{pid_b, 0, 21}, mb, t + 100);
      emit(meter::MeterRecv{pid_b, 0, 21,
                            static_cast<std::uint32_t>(64 + i % 32), ""},
           mb, t + 200);
    }
    emit(meter::MeterTermProc{pid_a, 0, 0}, ma, 1000 + msgs * 400);
    emit(meter::MeterTermProc{pid_b, 0, 0}, mb, 1200 + msgs * 400);
  }
  return out;
}

void BM_TraceParse(benchmark::State& state) {
  const std::string text = synthetic_trace(static_cast<int>(state.range(0)),
                                           50, 0);
  std::size_t events = 0;
  for (auto _ : state) {
    analysis::Trace t = analysis::read_trace(text);
    benchmark::DoNotOptimize(t.events.data());
    events += t.events.size();
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_CommStats(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 0));
  std::size_t events = 0;
  for (auto _ : state) {
    analysis::CommStats s = analysis::communication_statistics(trace);
    benchmark::DoNotOptimize(s.total_events);
    events += trace.events.size();
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_Ordering(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 0));
  std::size_t events = 0, pairs = 0;
  for (auto _ : state) {
    analysis::Ordering o = analysis::order_events(trace);
    benchmark::DoNotOptimize(o.message_pairs);
    events += trace.events.size();
    pairs = o.message_pairs;
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["pairs"] = static_cast<double>(pairs);
}

void BM_OrderingUnderSkew(benchmark::State& state) {
  // Heavy skew: every cross-machine pair is a clock anomaly, yet ordering
  // recovery and alignment still work (§4.1's point that order must be
  // deduced from the trace, not the clocks).
  const analysis::Trace trace =
      analysis::read_trace(synthetic_trace(4, 100, -60000));
  std::size_t anomalies = 0;
  for (auto _ : state) {
    analysis::Ordering o = analysis::order_events(trace);
    analysis::ClockAlignment a =
        analysis::estimate_clock_alignment(trace, o);
    benchmark::DoNotOptimize(a.offset_us.size());
    anomalies = o.clock_anomalies;
  }
  state.counters["anomalies"] = static_cast<double>(anomalies);
}

void BM_Parallelism(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 3000));
  for (auto _ : state) {
    analysis::ParallelismProfile p = analysis::measure_parallelism(trace);
    benchmark::DoNotOptimize(p.average);
  }
}

void BM_FullReport(benchmark::State& state) {
  const analysis::Trace trace = analysis::read_trace(
      synthetic_trace(static_cast<int>(state.range(0)), 50, 2000));
  for (auto _ : state) {
    std::string report = analysis::full_report(trace);
    benchmark::DoNotOptimize(report);
  }
}

BENCHMARK(BM_TraceParse)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_CommStats)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_Ordering)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(BM_OrderingUnderSkew);
BENCHMARK(BM_Parallelism)->Arg(2)->Arg(8);
BENCHMARK(BM_FullReport)->Arg(8);

/// Checks one synthetic trace of `pairs` x `msgs`; false on any mismatch.
/// With `all_anomalies`, every cross-machine pair must be flagged.
bool check_trace(int pairs, int msgs, std::int64_t skew_us,
                 bool all_anomalies) {
  const analysis::Trace trace =
      analysis::read_trace(synthetic_trace(pairs, msgs, skew_us));
  const analysis::Ordering o = analysis::order_events(trace);
  // Per pair: connect, accept, msgs x (send, recvcall, recv), 2 termprocs.
  const auto want_events = static_cast<std::size_t>(pairs * (4 + 3 * msgs));
  const auto want_pairs = static_cast<std::size_t>(pairs * msgs);
  const std::string composed =
      analysis::render_comm_stats(analysis::communication_statistics(trace)) +
      analysis::render_connections(analysis::connection_table(trace)) +
      analysis::render_ordering(trace, o) +
      analysis::render_parallelism(analysis::measure_parallelism(trace)) +
      "== timeline ==\n" + analysis::render_timeline(trace) +
      analysis::diagnose(trace).render();
  const bool events_ok =
      trace.events.size() == want_events && trace.malformed == 0;
  const bool pairs_ok = o.message_pairs == want_pairs && !o.had_cycle;
  const bool anomalies_ok =
      !all_anomalies || (o.cross_machine_pairs == want_pairs &&
                         o.clock_anomalies == o.cross_machine_pairs);
  const bool report_ok = analysis::full_report(trace) == composed;
  std::printf(
      "pairs=%d msgs=%d skew=%lldus: events %zu/%zu malformed %zu, "
      "message_pairs %zu/%zu, anomalies %zu of %zu cross-machine, "
      "full_report %s composed routines\n",
      pairs, msgs, static_cast<long long>(skew_us), trace.events.size(),
      want_events, trace.malformed, o.message_pairs, want_pairs,
      o.clock_anomalies, o.cross_machine_pairs,
      report_ok ? "==" : "!=");
  return events_ok && pairs_ok && anomalies_ok && report_ok;
}

int smoke() {
  bool ok = true;
  // The traces the benchmarks above time, at their sizes and skews.
  for (int pairs : {2, 8, 32}) ok = check_trace(pairs, 50, 0, false) && ok;
  for (int pairs : {2, 8}) ok = check_trace(pairs, 50, 3000, false) && ok;
  ok = check_trace(8, 50, 2000, false) && ok;
  ok = check_trace(4, 100, -60000, true) && ok;
  std::printf("bench_analysis smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
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
