// Streaming vs batch causal analysis (analysis/live/ vs order_events).
//
// The streaming aggregator must earn its keep: consuming a trace one
// event at a time — with pairing, incremental Lamport/critical-path
// relaxation, and rolling windows all live — has to stay within ~15% of
// the batch pipeline (read_trace + order_events) it mirrors, or "run it
// during the computation" would be a tax nobody pays. Both sides consume
// identical trace text, produced by a FilterEngine over the shared
// pipeline workloads (workloads.h) plus a pairing-heavy stream workload
// that drives the relaxation machinery on every event:
//
//   batch:      read_trace(text) + order_events(trace)   per pass
//   streaming:  TraceTailer::feed in 8 KiB chunks into a fresh
//               LiveAnalysis (windows + critical path maintained) per pass
//
// Every run writes BENCH_live.json: per-workload events/sec for both
// sides, the streaming/batch ratio, and the equivalence verdict (pair
// counts and every Lamport clock compared). `bench_live --smoke` asserts
// only equivalence — timing assertions under ctest or sanitizers are
// flaky by construction; the recorded ratios are the benchmark's output.
#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/live/aggregator.h"
#include "analysis/ordering.h"
#include "analysis/trace_reader.h"
#include "obs/snapshot.h"
#include "util/strings.h"
#include "workloads.h"

namespace dpm::bench {
namespace {

/// Trace text of one workload: the records rendered by an accept-all
/// filter, exactly what a filter log (and thus both analysis paths)
/// contains.
std::string make_trace_text(Workload w, int events) {
  auto engine = make_engine(/*rules=*/"");
  return engine.feed(1, make_batch(w, events));
}

/// The pipeline workloads exercise parsing, parking, and connection
/// joining but complete no send/receive pairs (their names never resolve).
/// This one drives the full happens-before machinery: a joined
/// connect/accept stream channel with every send paired to a
/// cross-machine receive, so incremental Lamport/critical-path relaxation
/// runs for each event.
std::string make_paired_trace_text(int events) {
  using namespace meter;
  std::vector<MeterMsg> msgs;
  msgs.reserve(static_cast<std::size_t>(events) + 2);
  auto stamp = [](MeterMsg m, std::uint16_t machine,
                  std::int64_t t) {
    m.header.machine = machine;
    m.header.cpu_time = t;
    m.header.proc_time = t / 10;
    return m;
  };
  MeterMsg c;
  c.body = MeterConnect{1, 0, 5, "111", "222"};
  msgs.push_back(stamp(std::move(c), 1, 0));
  MeterMsg a;
  a.body = MeterAccept{2, 0, 6, 7, "222", "111"};
  msgs.push_back(stamp(std::move(a), 2, 500));
  for (int i = 0; i < events; ++i) {
    MeterMsg m;
    if (i % 2 == 0) {
      m.body = MeterSend{1, 0, 5,
                         static_cast<std::uint32_t>(64 + i % 512), ""};
      msgs.push_back(stamp(std::move(m), 1, 1000 * i));
    } else {
      m.body = MeterRecv{2, 0, 7,
                         static_cast<std::uint32_t>(64 + i % 512), ""};
      msgs.push_back(stamp(std::move(m), 2, 1000 * i + 700));
    }
  }
  util::Bytes batch;
  for (const auto& m : msgs) m.serialize_into(batch);
  auto engine = make_engine(/*rules=*/"");
  return engine.feed(1, batch);
}

struct WorkloadResult {
  const char* workload = "";
  int events = 0;            // trace events parsed per pass
  std::size_t pairs = 0;     // message pairs (identical on both sides)
  double batch_eps = 0;      // events/sec, read_trace + order_events
  double live_eps = 0;       // events/sec, TraceTailer + LiveAnalysis
  double ratio = 0;          // live / batch
  bool equivalent = false;   // pairs + every Lamport clock match
};

/// Streams `text` through a fresh LiveAnalysis in 8 KiB chunks.
analysis::live::LiveAnalysis stream_once(const std::string& text) {
  analysis::live::LiveAnalysis live;
  analysis::live::TraceTailer tailer(live);
  constexpr std::size_t kChunk = 8192;
  for (std::size_t pos = 0; pos < text.size(); pos += kChunk) {
    tailer.feed(std::string_view(text).substr(pos, kChunk));
  }
  tailer.finish();
  return live;
}

bool check_equivalence(const std::string& text, std::size_t* pairs_out) {
  const analysis::Trace trace = analysis::read_trace(text);
  const analysis::Ordering ord = analysis::order_events(trace);
  analysis::live::LiveAnalysis live = stream_once(text);
  const auto st = live.stats();
  *pairs_out = st.message_pairs;
  if (live.events() != trace.events.size()) return false;
  if (st.message_pairs != ord.message_pairs) return false;
  if (st.cross_machine_pairs != ord.cross_machine_pairs) return false;
  if (st.had_cycle != ord.had_cycle) return false;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    if (live.lamport_of(i) != ord.events[i].lamport) return false;
    const auto ms = live.matched_send_of(i);
    if (ms != ord.events[i].matched_send) return false;
  }
  return true;
}

WorkloadResult run_workload(const char* name, const std::string& text,
                            double min_seconds, int reps) {
  WorkloadResult r;
  r.workload = name;
  {
    const analysis::Trace probe = analysis::read_trace(text);
    r.events = static_cast<int>(probe.events.size());
  }
  r.equivalent = check_equivalence(text, &r.pairs);

  const auto per_pass = static_cast<std::uint64_t>(r.events);
  r.batch_eps = best_rate(
      reps, per_pass,
      [&] {
        const analysis::Trace trace = analysis::read_trace(text);
        const analysis::Ordering ord = analysis::order_events(trace);
        benchmark::DoNotOptimize(ord.message_pairs);
      },
      min_seconds);
  r.live_eps = best_rate(
      reps, per_pass,
      [&] {
        analysis::live::LiveAnalysis live = stream_once(text);
        benchmark::DoNotOptimize(live.stats().message_pairs);
      },
      min_seconds);
  r.ratio = r.batch_eps > 0 ? r.live_eps / r.batch_eps : 0;
  return r;
}

constexpr const char* kJsonPath = "BENCH_live.json";

bool write_bench_json(const WorkloadResult (&rs)[4],
                      const std::string& snapshot_jsonl,
                      const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\n  \"bench\": \"live_vs_batch_analysis\",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const WorkloadResult& r = rs[i];
    out << util::strprintf(
        "    {\n"
        "      \"workload\": \"%s\",\n"
        "      \"events\": %d,\n"
        "      \"message_pairs\": %zu,\n"
        "      \"batch_events_per_s\": %.0f,\n"
        "      \"live_events_per_s\": %.0f,\n"
        "      \"live_over_batch\": %.3f,\n"
        "      \"equivalent\": %s\n"
        "    }%s\n",
        r.workload, r.events, r.pairs, r.batch_eps, r.live_eps, r.ratio,
        r.equivalent ? "true" : "false", i + 1 < 4 ? "," : "");
  }
  out << util::strprintf(
      "  ],\n"
      "  \"obs_snapshot\": %s\n"
      "}\n",
      obs::jsonl_to_json_array(snapshot_jsonl, 4).c_str());
  return out.good();
}

int run(int events, double min_seconds, int reps, bool smoke) {
  WorkloadResult rs[4];
  int i = 0;
  for (Workload w : kWorkloads) {
    rs[i++] = run_workload(workload_name(w), make_trace_text(w, events),
                           min_seconds, reps);
  }
  rs[i] = run_workload("paired", make_paired_trace_text(events), min_seconds,
                       reps);

  // The live.* registry of one streaming pass over the paired workload,
  // embedded so the result file carries its own ground-truth counters.
  analysis::live::LiveAnalysis live =
      stream_once(make_paired_trace_text(events));
  const std::string snapshot = live.obs().snapshot_jsonl();
  const std::string snap_err = obs::validate_snapshot(snapshot);
  if (!snap_err.empty()) {
    std::fprintf(stderr, "bench_live: bad embedded snapshot: %s\n",
                 snap_err.c_str());
    return 1;
  }
  if (!write_bench_json(rs, snapshot, kJsonPath)) {
    std::fprintf(stderr, "bench_live: cannot write %s\n", kJsonPath);
    return 1;
  }

  bool all_ok = true;
  for (const WorkloadResult& r : rs) {
    std::printf(
        "bench_live%s: %-13s %6d events, %5zu pairs: batch %9.0f ev/s, "
        "live %9.0f ev/s (%.2fx), equivalent=%s\n",
        smoke ? " --smoke" : "", r.workload, r.events, r.pairs, r.batch_eps,
        r.live_eps, r.ratio, r.equivalent ? "true" : "false");
    all_ok = all_ok && r.equivalent;
    // A workload that completes zero pairs exercises none of the
    // relaxation machinery — the measurement would be vacuous.
    if (r.pairs == 0) {
      std::fprintf(stderr, "bench_live: workload '%s' completed no pairs\n",
                   r.workload);
      all_ok = false;
    }
  }
  std::printf("wrote %s\n", kJsonPath);
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // Equivalence is the pass/fail signal; the ratios are recorded, not
      // asserted (sanitized or loaded machines make timing flaky).
      return dpm::bench::run(/*events=*/1500, /*min_seconds=*/0.15,
                             /*reps=*/2, /*smoke=*/true);
    }
  }
  return dpm::bench::run(/*events=*/6000, /*min_seconds=*/0.5, /*reps=*/5,
                         /*smoke=*/false);
}
