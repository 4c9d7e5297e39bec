// Meter→filter pipeline (§3.2–§3.4, §4).
//
// The monitor's hot path is meter_emit → meter socket → filter framing →
// selection → log. This benchmark replays each workload (send/recv-heavy,
// accept/connect-heavy, mixed) through kernel::meter_emit in a live World
// whose app and sink sit on different machines, so every pending batch
// crosses the fabric as a stream send into a FilterEngine. Each workload
// prints its host throughput (events per real second around World::run)
// next to the simulated per-layer counts of the pass: meter flushes and
// bytes, fabric packets and cross-machine bytes, filter records in and
// bytecode ops. Metering CPU costs are zeroed, so those counts are
// deterministic and every pass of a workload must produce the same log
// and the same counts. The filter engine's own throughput per rule set is
// bench_filter's (E3).
//
// With no argument it runs the full-size passes and writes
// BENCH_pipeline.json. The file holds only what a rerun reproduces (the
// host rates are printed, not recorded), so scripts/check_bench.sh
// requires a fresh file to equal the committed one byte for byte.
// `bench_pipeline --smoke` checks that the engine renders exactly the
// reference log (decode + Templates::evaluate + trace_line per record;
// whole-batch and chunked feeds), that every workload's metered bytes all
// crossed the fabric (net.bytes_remote >= kernel.meter_bytes), validates
// the JSON, and exits; it is registered under ctest and also run under
// the sanitizer configuration.
#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "filter/filter_program.h"
#include "kernel/meter_hooks.h"
#include "meter/metermsgs.h"
#include "obs/snapshot.h"
#include "util/strings.h"
#include "workloads.h"

namespace dpm::bench {
namespace {

// ---- end to end: meter_emit → meter socket → filter → log ----------------

/// The simulated per-layer counts of one pass. Deterministic for a given
/// workload and event count: metering CPU costs are zeroed, so emission
/// instants, batches and fabric traffic repeat exactly.
struct PassCounts {
  std::uint64_t meter_flushes = 0;   // kernel.meter_flushes
  std::uint64_t meter_bytes = 0;     // kernel.meter_bytes
  std::uint64_t packets_sent = 0;    // net.packets_sent
  std::uint64_t bytes_remote = 0;    // net.bytes_remote
  std::uint64_t records_in = 0;      // the sink engine's filter.records_in
  std::uint64_t bytecode_ops = 0;    // the sink engine's filter.bytecode_ops

  bool operator==(const PassCounts&) const = default;
};

/// One full pipeline pass: an app process on m0 replays a workload's event
/// bodies through kernel::meter_emit (yielding periodically so the
/// consumer keeps up), its meter socket carries the pending batches across
/// the fabric, and a sink process on m1 drains the connection into a
/// FilterEngine.
struct E2EPass {
  std::string log;
  std::uint64_t events = 0;
  double seconds = 0;
  PassCounts counts;
};

E2EPass run_e2e_pass(Workload w, int events) {
  kernel::WorldConfig cfg;
  // meter_buffer_msgs/bytes stay at the shipped defaults: that is the
  // batching every session runs with.
  cfg.costs.meter_event = util::usec(0);
  cfg.costs.meter_flush_base = util::usec(0);
  cfg.costs.meter_flush_per_kb = util::usec(0);
  auto world = make_world(2, cfg);

  auto engine = make_engine();
  E2EPass pass;
  (void)world->spawn(2, "sink", 100, [&](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.bind_port(*ls, 4500);
    (void)sys.listen(*ls, 4);
    auto conn = sys.accept(*ls);
    for (;;) {
      auto data = sys.recv(*conn, 65536);
      if (!data.ok() || data->empty()) break;
      engine.feed(1, *data, pass.log);
    }
    engine.end_connection(1);
  });

  // Mutable: each body is emitted exactly once, so the replay loop moves
  // it into the draft instead of copying — the app process hands the
  // kernel its event body, it does not keep one.
  auto msgs = make_messages(w, events);
  (void)world->spawn(1, "app", 100, [&](kernel::Sys& sys) {
    sys.sleep(util::msec(5));
    auto addr = sys.resolve("m1", 4500);
    auto ms = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.connect(*ms, *addr);
    (void)sys.setmeter(meter::SETMETER_SELF,
                       static_cast<std::int32_t>(meter::M_ALL), *ms);
    (void)sys.close(*ms);
    kernel::Process* self = sys.world().find_process(1, sys.getpid());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      kernel::meter_emit(
          sys.world(), *self,
          kernel::MeterEventDraft{meter::M_ALL,
                                  meter::MeterBody(std::move(msgs[i].body))});
      // Yield every 256 events: the consumer drains and the socket's
      // stream window never fills.
      if (i % 256 == 255) sys.sleep(util::usec(500));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  world->run();
  pass.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  benchmark::DoNotOptimize(pass.log);
  pass.events = world->meter_stats().events;
  obs::Registry& o = world->obs();
  pass.counts.meter_flushes = o.counter("kernel.meter_flushes").value();
  pass.counts.meter_bytes = o.counter("kernel.meter_bytes").value();
  pass.counts.packets_sent = o.counter("net.packets_sent").value();
  pass.counts.bytes_remote = o.counter("net.bytes_remote").value();
  pass.counts.records_in = engine.obs().counter("filter.records_in").value();
  pass.counts.bytecode_ops =
      engine.obs().counter("filter.bytecode_ops").value();
  return pass;
}

// ---- BENCH_pipeline.json --------------------------------------------------

/// One workload's end-to-end result: the best host rate over its passes
/// and the simulated counts every pass reproduced.
struct E2EResult {
  Workload workload = Workload::mixed;
  int events = 0;         // events replayed per pass
  double events_per_s = 0;  // host: best over the passes
  PassCounts counts;        // simulated: identical in every pass
  bool deterministic = false;  // every pass gave the same log and counts
};

struct PipelineBenchResult {
  std::vector<E2EResult> e2e;  // one entry per workload
  bool output_identical = false;
  int events = 0;  // records in the equivalence batch
  std::string obs_snapshot_jsonl;  // the equivalence engine's registry
};

double events_per_s(const E2EPass& pass) {
  return pass.seconds > 0 ? static_cast<double>(pass.events) / pass.seconds
                          : 0;
}

/// Runs one workload `reps` times (fresh World each pass, wall-clock
/// around World::run only) and keeps the best rate. Every pass must
/// reproduce the first pass's log and counts.
E2EResult run_e2e(Workload w, int events, int reps) {
  E2EResult r;
  r.workload = w;
  r.events = events;
  std::string first_log;
  r.deterministic = true;
  for (int i = 0; i < reps; ++i) {
    E2EPass pass = run_e2e_pass(w, events);
    r.events_per_s = std::max(r.events_per_s, events_per_s(pass));
    if (i == 0) {
      first_log = std::move(pass.log);
      r.counts = pass.counts;
    } else if (pass.log != first_log || pass.counts != r.counts) {
      r.deterministic = false;
    }
  }
  r.deterministic = r.deterministic && !first_log.empty();
  return r;
}

/// Every metered byte of a pass rode the fabric: the app and the sink sit
/// on different machines and the meter socket is the only transport.
bool paid_the_fabric(const E2EResult& e) {
  return e.counts.meter_bytes > 0 &&
         e.counts.bytes_remote >= e.counts.meter_bytes;
}

/// `engine` renders exactly the reference log, whole-batch and chunked
/// (97-byte chunk boundaries land mid-record and exercise the partial
/// buffer), and frames every record without a malformed one.
bool outputs_identical(filter::FilterEngine& engine, const util::Bytes& batch) {
  const std::string expected = reference_log(batch, kRules);
  if (engine.feed(1, batch) != expected) return false;

  std::string chunked;
  for (std::size_t pos = 0; pos < batch.size(); pos += 97) {
    const std::size_t n = std::min<std::size_t>(97, batch.size() - pos);
    chunked += engine.feed(
        2, util::Bytes(batch.begin() + static_cast<std::ptrdiff_t>(pos),
                       batch.begin() + static_cast<std::ptrdiff_t>(pos + n)));
  }
  engine.end_connection(2);
  const filter::FilterStats st = engine.stats();
  return chunked == expected && st.malformed == 0 &&
         st.accepted + st.rejected == st.records_in;
}

PipelineBenchResult run_pipeline_bench(int events, int e2e_events,
                                       int e2e_reps) {
  PipelineBenchResult r;
  r.events = events;
  auto engine = make_engine();
  r.output_identical =
      outputs_identical(engine, make_batch(Workload::mixed, events));
  // The checked engine's registry, embedded in the JSON so a result file
  // carries its own ground-truth filter counters.
  r.obs_snapshot_jsonl = engine.obs().snapshot_jsonl();
  for (Workload w : kWorkloads) {
    r.e2e.push_back(run_e2e(w, e2e_events, e2e_reps));
  }
  return r;
}

constexpr const char* kJsonPath = "BENCH_pipeline.json";

/// The "e2e" array: one row per workload, simulated figures only.
std::string e2e_rows(const std::vector<E2EResult>& rows) {
  std::string out = "  \"e2e\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const E2EResult& e = rows[i];
    out += util::strprintf(
        "    {\"workload\": \"%s\", \"events\": %d, "
        "\"deterministic\": %s, "
        "\"meter_flushes\": %llu, \"meter_bytes\": %llu, "
        "\"packets_sent\": %llu, \"bytes_remote\": %llu, "
        "\"records_in\": %llu, \"bytecode_ops\": %llu}%s\n",
        workload_name(e.workload), e.events,
        e.deterministic ? "true" : "false",
        static_cast<unsigned long long>(e.counts.meter_flushes),
        static_cast<unsigned long long>(e.counts.meter_bytes),
        static_cast<unsigned long long>(e.counts.packets_sent),
        static_cast<unsigned long long>(e.counts.bytes_remote),
        static_cast<unsigned long long>(e.counts.records_in),
        static_cast<unsigned long long>(e.counts.bytecode_ops),
        i + 1 < rows.size() ? "," : "");
  }
  out += "  ]";
  return out;
}

bool write_bench_json(const PipelineBenchResult& r, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << util::strprintf(
      "{\n"
      "  \"bench\": \"pipeline\",\n"
      "  \"workload\": \"%s\",\n"
      "  \"events\": %d,\n",
      workload_name(Workload::mixed), r.events);
  out << e2e_rows(r.e2e) << ",\n";
  out << util::strprintf(
      "  \"output_identical\": %s,\n"
      "  \"obs_snapshot\": %s\n"
      "}\n",
      r.output_identical ? "true" : "false",
      obs::jsonl_to_json_array(r.obs_snapshot_jsonl, 4).c_str());
  return out.good();
}

bool validate_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string trimmed{util::trim(text)};
  if (trimmed.empty() || trimmed.front() != '{' || trimmed.back() != '}') {
    return false;
  }
  for (const char* key :
       {"\"bench\"", "\"events\"", "\"e2e\"", "\"meter_flushes\"",
        "\"bytes_remote\"", "\"records_in\"", "\"output_identical\"",
        "\"obs_snapshot\""}) {
    if (text.find(key) == std::string::npos) return false;
  }
  // Equivalence is the pass signal: the engine-vs-reference comparison and
  // every per-workload determinism check must all hold.
  return text.find("\"output_identical\": true") != std::string::npos &&
         text.find("\"deterministic\": false") == std::string::npos &&
         text.find("\"deterministic\": true") != std::string::npos;
}

/// Every workload ran deterministically and paid the fabric for every
/// metered byte.
bool all_e2e_sound(const PipelineBenchResult& r) {
  for (const E2EResult& e : r.e2e) {
    if (!e.deterministic || !paid_the_fabric(e)) return false;
  }
  return !r.e2e.empty();
}

void print_e2e(const E2EResult& e) {
  std::printf(
      "  e2e %-13s %8.0f ev/s  flushes=%llu meter_bytes=%llu "
      "bytes_remote=%llu packets=%llu records_in=%llu deterministic=%s\n",
      workload_name(e.workload), e.events_per_s,
      static_cast<unsigned long long>(e.counts.meter_flushes),
      static_cast<unsigned long long>(e.counts.meter_bytes),
      static_cast<unsigned long long>(e.counts.bytes_remote),
      static_cast<unsigned long long>(e.counts.packets_sent),
      static_cast<unsigned long long>(e.counts.records_in),
      e.deterministic ? "true" : "false");
}

void print_result(const PipelineBenchResult& r, const char* tag) {
  std::printf("bench_pipeline %s: output_identical=%s\n", tag,
              r.output_identical ? "true" : "false");
  for (const E2EResult& e : r.e2e) print_e2e(e);
}

/// Full-size passes per workload: the committed file's.
constexpr int kE2EEvents = 20000;
constexpr int kE2EReps = 9;

/// --smoke: the fast ctest (and sanitizer) entry point. Equivalence —
/// engine == reference output, every workload deterministic across two
/// passes, every metered byte on the fabric — is the pass/fail signal;
/// rates are reported, not asserted, since sanitized or loaded machines
/// make timing assertions flaky.
int run_smoke() {
  const PipelineBenchResult r = run_pipeline_bench(512, 2000, 2);
  const std::string snap_err = obs::validate_snapshot(r.obs_snapshot_jsonl);
  if (!snap_err.empty()) {
    std::fprintf(stderr, "bench_pipeline: bad embedded snapshot: %s\n",
                 snap_err.c_str());
    return 1;
  }
  if (!write_bench_json(r, kJsonPath)) {
    std::fprintf(stderr, "bench_pipeline: cannot write %s\n", kJsonPath);
    return 1;
  }
  if (!validate_bench_json(kJsonPath)) {
    std::fprintf(stderr, "bench_pipeline: %s is malformed\n", kJsonPath);
    return 1;
  }
  print_result(r, "--smoke");
  std::printf("wrote %s\n", kJsonPath);
  return r.output_identical && all_e2e_sound(r) ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return dpm::bench::run_smoke();
    std::fprintf(stderr, "usage: bench_pipeline [--smoke]\n");
    return 1;
  }
  const auto r = dpm::bench::run_pipeline_bench(2000, dpm::bench::kE2EEvents,
                                                dpm::bench::kE2EReps);
  if (!dpm::bench::write_bench_json(r, dpm::bench::kJsonPath)) return 1;
  dpm::bench::print_result(r, "full");
  std::printf("wrote %s\n", dpm::bench::kJsonPath);
  return r.output_identical && dpm::bench::all_e2e_sound(r) ? 0 : 1;
}
