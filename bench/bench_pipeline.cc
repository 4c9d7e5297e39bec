// Meter→filter pipeline (§3.2–§3.4, §4).
//
// The monitor's hot path is meter_emit → transport → filter framing →
// selection → log. This benchmark replays each workload (send/recv-heavy,
// accept/connect-heavy, mixed) through kernel::meter_emit in a live World,
// carried by batched socket sends versus the shared meter ring into the
// same filter engine, timed in real seconds with the produced logs
// byte-compared across the two transports. The filter engine's own
// throughput per rule set is bench_filter's (E3).
//
// With no argument it runs the full-size comparison and writes
// BENCH_pipeline.json (the per-workload e2e comparison and the
// equivalence verdicts); `--e2e` is the regression gate's run (below).
// `bench_pipeline --smoke` checks that the
// engine renders exactly the reference log (decode + Templates::evaluate +
// trace_line per record; whole-batch and chunked feeds), that every
// workload's socket and ring logs byte-compare equal, validates the JSON,
// and exits; it is registered under ctest and also run under the
// sanitizer configuration.
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

// ---- end to end: meter_emit → transport → filter → log --------------------

/// Ring size for the ring-transport side; 0 selects batched socket sends.
constexpr std::size_t kRingBytes = 256 * 1024;

/// One full pipeline pass: an app process replays a workload's event
/// bodies through kernel::meter_emit (yielding periodically so the
/// consumer keeps up), the configured transport carries them — batched
/// stream sends when ring_bytes == 0, the shared SPSC ring otherwise —
/// and a sink process drains its meter connection into a FilterEngine.
/// Metering CPU costs are zeroed so emission instants (and therefore the
/// record headers) are identical across transports: the produced logs
/// must byte-compare equal, which the caller checks.
struct E2EPass {
  std::string log;
  std::uint64_t events = 0;
  double seconds = 0;
  std::uint64_t ring_wakeups = 0;
  std::uint64_t ring_overflow_drops = 0;
  std::uint64_t bytecode_ops = 0;
};

E2EPass run_e2e_pass(Workload w, int events, std::size_t ring_bytes) {
  kernel::WorldConfig cfg;
  // meter_buffer_msgs stays at the shipped default: that is the batching
  // the socket transport actually runs with (the ring transport ignores
  // it — records encode straight into the ring).
  cfg.meter_ring_bytes = ring_bytes;
  cfg.meter_ring_wakeup_bytes = 8 * 1024;
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
      // Yield every 256 events: the consumer drains, the ring never
      // overflows, and the socket's stream window never fills.
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
  pass.ring_wakeups = world->obs().counter("ring.wakeups").value();
  pass.ring_overflow_drops =
      world->obs().counter("ring.overflow_drops").value();
  pass.bytecode_ops = engine.obs().counter("filter.bytecode_ops").value();
  return pass;
}

// ---- BENCH_pipeline.json --------------------------------------------------

/// One workload's end-to-end comparison: batched socket sends versus the
/// shared ring, same event bodies and filter, logs byte-compared.
struct E2EResult {
  Workload workload = Workload::mixed;
  double socket_eps = 0;  // events/sec through the whole pipeline
  double ring_eps = 0;
  double speedup = 0;
  bool logs_identical = false;
  std::uint64_t ring_wakeups = 0;  // from the ring pass
  std::uint64_t ring_overflow_drops = 0;
  std::uint64_t bytecode_ops = 0;
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

/// Measures one workload end-to-end over both transports: the best rate
/// over `reps` passes per side (fresh World each pass, wall-clock around
/// World::run only). The sides alternate pass by pass, so a slow phase of
/// a shared host lands on both rather than on whichever side it overlaps.
/// The first pass of each side is byte-compared — the equivalence verdict
/// the JSON carries.
E2EResult run_e2e(Workload w, int events, int reps) {
  E2EResult r;
  r.workload = w;
  std::string socket_log, ring_log;
  for (int i = 0; i < reps; ++i) {
    E2EPass socket = run_e2e_pass(w, events, 0);
    E2EPass ring = run_e2e_pass(w, events, kRingBytes);
    r.socket_eps = std::max(r.socket_eps, events_per_s(socket));
    r.ring_eps = std::max(r.ring_eps, events_per_s(ring));
    if (i == 0) {
      socket_log = std::move(socket.log);
      ring_log = std::move(ring.log);
      r.ring_wakeups = ring.ring_wakeups;
      r.ring_overflow_drops = ring.ring_overflow_drops;
      r.bytecode_ops = ring.bytecode_ops;
    }
  }
  r.speedup = r.socket_eps > 0 ? r.ring_eps / r.socket_eps : 0;
  r.logs_identical = !socket_log.empty() && socket_log == ring_log;
  return r;
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

bool write_bench_json(const PipelineBenchResult& r, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << util::strprintf(
      "{\n"
      "  \"bench\": \"pipeline\",\n"
      "  \"workload\": \"%s\",\n"
      "  \"events\": %d,\n",
      workload_name(Workload::mixed), r.events);
  out << "  \"e2e\": [\n";
  for (std::size_t i = 0; i < r.e2e.size(); ++i) {
    const E2EResult& e = r.e2e[i];
    out << util::strprintf(
        "    {\"workload\": \"%s\", "
        "\"socket_events_per_s\": %.0f, \"ring_events_per_s\": %.0f, "
        "\"speedup\": %.2f, \"logs_identical\": %s, "
        "\"ring_wakeups\": %llu, \"ring_overflow_drops\": %llu, "
        "\"bytecode_ops\": %llu}%s\n",
        workload_name(e.workload), e.socket_eps, e.ring_eps, e.speedup,
        e.logs_identical ? "true" : "false",
        static_cast<unsigned long long>(e.ring_wakeups),
        static_cast<unsigned long long>(e.ring_overflow_drops),
        static_cast<unsigned long long>(e.bytecode_ops),
        i + 1 < r.e2e.size() ? "," : "");
  }
  out << "  ],\n";
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
       {"\"bench\"", "\"events\"", "\"e2e\"", "\"socket_events_per_s\"",
        "\"ring_events_per_s\"", "\"output_identical\"",
        "\"obs_snapshot\""}) {
    if (text.find(key) == std::string::npos) return false;
  }
  // Equivalence is the pass signal: the engine-vs-reference comparison and
  // every per-workload cross-transport log comparison must all hold.
  return text.find("\"output_identical\": true") != std::string::npos &&
         text.find("\"logs_identical\": false") == std::string::npos &&
         text.find("\"logs_identical\": true") != std::string::npos;
}

bool all_e2e_logs_identical(const PipelineBenchResult& r) {
  for (const E2EResult& e : r.e2e) {
    if (!e.logs_identical) return false;
  }
  return !r.e2e.empty();
}

void print_e2e(const E2EResult& e) {
  std::printf(
      "  e2e %-13s socket %8.0f ev/s -> ring %8.0f ev/s (%.2fx) "
      "logs_identical=%s wakeups=%llu drops=%llu\n",
      workload_name(e.workload), e.socket_eps, e.ring_eps, e.speedup,
      e.logs_identical ? "true" : "false",
      static_cast<unsigned long long>(e.ring_wakeups),
      static_cast<unsigned long long>(e.ring_overflow_drops));
}

void print_result(const PipelineBenchResult& r, const char* tag) {
  std::printf("bench_pipeline %s: output_identical=%s\n", tag,
              r.output_identical ? "true" : "false");
  for (const E2EResult& e : r.e2e) print_e2e(e);
}

/// --e2e: full-scale end-to-end comparison only (no google-benchmark
/// micros), fast enough for the regression gate in scripts/check_bench.sh.
/// Writes BENCH_e2e.json so the gate can jq-compare per-workload speedups
/// against the committed BENCH_pipeline.json like-for-like: the smoke's
/// smaller event count carries a higher fixed-cost share and reads
/// systematically below the recorded full-scale ratios.
int run_e2e_only() {
  PipelineBenchResult r;
  for (Workload w : kWorkloads) {
    r.e2e.push_back(run_e2e(w, 20000, 9));
  }
  std::ofstream out("BENCH_e2e.json", std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_pipeline: cannot write BENCH_e2e.json\n");
    return 1;
  }
  out << "{\n  \"e2e\": [\n";
  for (std::size_t i = 0; i < r.e2e.size(); ++i) {
    const E2EResult& e = r.e2e[i];
    out << util::strprintf(
        "    {\"workload\": \"%s\", \"speedup\": %.2f, "
        "\"logs_identical\": %s}%s\n",
        workload_name(e.workload), e.speedup,
        e.logs_identical ? "true" : "false",
        i + 1 < r.e2e.size() ? "," : "");
  }
  out << "  ]\n}\n";
  for (const E2EResult& e : r.e2e) print_e2e(e);
  return out.good() && all_e2e_logs_identical(r) ? 0 : 1;
}

/// --smoke: the fast ctest (and sanitizer) entry point. Equivalence —
/// engine == reference output and socket == ring logs on every workload —
/// is the pass/fail signal; rates are reported, not asserted, since
/// sanitized or loaded machines make timing assertions flaky.
int run_smoke() {
  const PipelineBenchResult r = run_pipeline_bench(512, 2000, 1);
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
  return r.output_identical && all_e2e_logs_identical(r) ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return dpm::bench::run_smoke();
    if (std::strcmp(argv[i], "--e2e") == 0) return dpm::bench::run_e2e_only();
    std::fprintf(stderr, "usage: bench_pipeline [--smoke | --e2e]\n");
    return 1;
  }
  const auto r = dpm::bench::run_pipeline_bench(2000, 20000, 9);
  if (!dpm::bench::write_bench_json(r, dpm::bench::kJsonPath)) return 1;
  dpm::bench::print_result(r, "full");
  std::printf("wrote %s\n", dpm::bench::kJsonPath);
  return r.output_identical && dpm::bench::all_e2e_logs_identical(r) ? 0 : 1;
}
