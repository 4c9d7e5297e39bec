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
// A third path feeds each workload's wire bytes through a FilterEngine
// with a LiveRecordSink, as a session's filter feeds live analysis: each
// accepted record reaches the aggregator through the sink's wire-view
// entry point (event_from_view), with no decode and no log.
//
// Every run writes BENCH_live.json: per workload the event and pair
// counts and both equivalence verdicts (the tailer's and the sink's:
// pair counts, every matched send and every Lamport clock compared with
// batch). Those are deterministic, so the smoke and the full run write
// the same file, and scripts/check_bench.sh compares a fresh one with the
// committed file byte for byte. The events/sec of both sides and their
// ratio are host time: they are printed, not recorded. The bench exits
// nonzero when either path diverges from batch on any workload.
#include "bench_util.h"

#include <algorithm>
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

/// Trace text of a batch of meter records: the records rendered by an
/// accept-all filter, exactly what a filter log (and thus both analysis
/// paths) contains.
std::string trace_text(const util::Bytes& batch) {
  auto engine = make_engine(/*rules=*/"");
  return engine.feed(1, batch);
}

/// The pipeline workloads exercise parsing, parking, and connection
/// joining but complete no send/receive pairs (their names never resolve).
/// This one drives the full happens-before machinery: a joined
/// connect/accept stream channel with every send paired to a
/// cross-machine receive, so incremental Lamport/critical-path relaxation
/// runs for each event.
util::Bytes make_paired_batch(int events) {
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
  return batch;
}

struct WorkloadResult {
  const char* workload = "";
  int events = 0;            // trace events parsed per pass
  std::size_t pairs = 0;     // message pairs (identical on every path)
  double batch_eps = 0;      // events/sec, read_trace + order_events
  double live_eps = 0;       // events/sec, TraceTailer + LiveAnalysis
  double ratio = 0;          // live / batch
  bool equivalent = false;   // tailer: pairs + every Lamport clock match
  bool sink_equivalent = false;  // filter sink's view path: the same
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

/// Feeds `batch` through an accept-all FilterEngine, in 8 KiB reads, with
/// a LiveRecordSink on a fresh LiveAnalysis: the path a session's filter
/// feeds live analysis by. False when the sink drops a record.
bool sink_once(const util::Bytes& batch, analysis::live::LiveAnalysis& live) {
  analysis::live::LiveRecordSink sink(live);
  auto engine = make_engine(/*rules=*/"");
  engine.add_sink(&sink);
  constexpr std::size_t kChunk = 8192;
  for (std::size_t pos = 0; pos < batch.size(); pos += kChunk) {
    const std::size_t n = std::min(kChunk, batch.size() - pos);
    (void)engine.feed(1, util::Bytes(batch.data() + pos, batch.data() + pos + n));
  }
  return sink.dropped() == 0;
}

/// Pairs, the cycle flag, every matched send and every Lamport clock of
/// `live` equal batch's.
bool equals_batch(const analysis::live::LiveAnalysis& live,
                  const analysis::Trace& trace,
                  const analysis::Ordering& ord) {
  const auto st = live.stats();
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

void check_equivalence(const util::Bytes& batch, const std::string& text,
                       WorkloadResult& r) {
  const analysis::Trace trace = analysis::read_trace(text);
  const analysis::Ordering ord = analysis::order_events(trace);
  const analysis::live::LiveAnalysis tailed = stream_once(text);
  r.pairs = tailed.stats().message_pairs;
  r.equivalent = equals_batch(tailed, trace, ord);
  analysis::live::LiveAnalysis sunk;
  r.sink_equivalent = sink_once(batch, sunk) && equals_batch(sunk, trace, ord);
}

WorkloadResult run_workload(const char* name, const util::Bytes& batch,
                            double min_seconds, int reps) {
  WorkloadResult r;
  r.workload = name;
  const std::string text = trace_text(batch);
  {
    const analysis::Trace probe = analysis::read_trace(text);
    r.events = static_cast<int>(probe.events.size());
  }
  check_equivalence(batch, text, r);

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
        "      \"equivalent\": %s,\n"
        "      \"sink_equivalent\": %s\n"
        "    }%s\n",
        r.workload, r.events, r.pairs, r.equivalent ? "true" : "false",
        r.sink_equivalent ? "true" : "false", i + 1 < 4 ? "," : "");
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
    rs[i++] = run_workload(workload_name(w), make_batch(w, events),
                           min_seconds, reps);
  }
  rs[i] = run_workload("paired", make_paired_batch(events), min_seconds,
                       reps);

  // The live.* registry of one streaming pass over the paired workload,
  // embedded so the result file carries its own ground-truth counters.
  analysis::live::LiveAnalysis live =
      stream_once(trace_text(make_paired_batch(events)));
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
        "live %9.0f ev/s (%.2fx), equivalent=%s sink_equivalent=%s\n",
        smoke ? " --smoke" : "", r.workload, r.events, r.pairs, r.batch_eps,
        r.live_eps, r.ratio, r.equivalent ? "true" : "false",
        r.sink_equivalent ? "true" : "false");
    all_ok = all_ok && r.equivalent && r.sink_equivalent;
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
  // Both modes analyze the same traces, so they write the same file; the
  // smoke only times each side for less long. Equivalence is the
  // pass/fail signal; the rates are printed, not asserted (sanitized or
  // loaded machines make timing flaky).
  constexpr int kEvents = 6000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return dpm::bench::run(kEvents, /*min_seconds=*/0.15, /*reps=*/2,
                             /*smoke=*/true);
    }
  }
  return dpm::bench::run(kEvents, /*min_seconds=*/0.5, /*reps=*/5,
                         /*smoke=*/false);
}
