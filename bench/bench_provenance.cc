// Record-lifecycle provenance (obs/provenance.h): overhead + stage breakdown.
//
// Two claims get measured and recorded into BENCH_provenance.json:
//
//   * Overhead: the deterministic 1-in-N sampler rides the meter hot path
//     (emit stamp, batch delivery, filter decision) for every record,
//     sampled or not. The sendrecv pipeline workload (bench_pipeline's e2e
//     harness: meter_emit through the meter socket into a bytecode
//     filter) runs tracing-off (prov_sample_period = 0) and tracing-on
//     (= 64); the filter logs must byte-compare equal — identities live in
//     a side-table, never on the wire — and the full run asserts the
//     wall-clock overhead stays under 2%.
//
//   * Stage breakdown: a full monitored session (4 sender machines behind
//     an arity-2 fan-in tree into a root filter with online predicates)
//     runs on a calm fabric and again under injected latency spikes + a
//     loss burst (net/faults.h). Every stage histogram the tracker feeds —
//     emit->enqueue, enqueue->filter, fan-in hop, live settle, verdict, e2e
//     freshness — is dumped as count/p50/p95/p99 rows per scenario, and
//     each scenario is run twice: the full bucket vectors must be
//     bit-identical (the sim is deterministic, so tracing must be too).
//
// `--smoke` is the ctest entry: smaller event counts, the same equivalence
// and determinism gates, overhead reported but not asserted (loaded or
// sanitized machines make timing assertions flaky).
#include "bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/predicates/service.h"
#include "filter/filter_program.h"
#include "filter/provtap.h"
#include "kernel/meter_hooks.h"
#include "net/faults.h"
#include "obs/provenance.h"
#include "obs/registry.h"
#include "util/strings.h"
#include "workloads.h"

namespace dpm::bench {
namespace {

// ---- part A: sampling overhead on the sendrecv pipeline -------------------

struct TransportPass {
  std::string log;
  std::uint64_t events = 0;
  double seconds = 0;
  std::uint64_t sampled = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
};

/// One sendrecv pass through meter_emit -> meter socket -> bytecode
/// filter, with record provenance off (period 0) or on. Metering CPU costs
/// are zeroed so emission instants are identical across configurations:
/// the produced logs must byte-compare equal, which the caller checks.
TransportPass run_transport_pass(int events, std::uint32_t period) {
  kernel::WorldConfig cfg;
  cfg.costs.meter_event = util::usec(0);
  cfg.costs.meter_flush_base = util::usec(0);
  cfg.costs.meter_flush_per_kb = util::usec(0);
  cfg.prov_sample_period = period;
  auto world = make_world(2, cfg);

  auto engine = make_engine(kRules);
  filter::ProvenanceTap prov(world->provenance(), /*final_filter=*/true);
  kernel::World* wp = world.get();
  if (prov.enabled()) {
    engine.set_provenance([&prov, wp](std::uint64_t conn,
                                      const std::uint8_t* raw,
                                      std::size_t size, bool accepted) {
      prov.on_record(conn, raw, size, accepted, 0,
                     util::count_us(wp->exec().now()));
    });
  }

  TransportPass pass;
  (void)world->spawn(2, "sink", 100, [&](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    (void)sys.bind_port(*ls, 4500);
    (void)sys.listen(*ls, 4);
    auto conn = sys.accept(*ls);
    prov.open_conn(1, sys.socket_id(*conn));
    for (;;) {
      auto data = sys.recv(*conn, 65536);
      if (!data.ok() || data->empty()) break;
      engine.feed(1, *data, pass.log);
    }
    engine.end_connection(1);
    prov.close_conn(1);
  });

  auto msgs = make_messages(Workload::sendrecv, events);
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
  pass.sampled = world->obs().counter("prov.sampled").value();
  pass.completed = world->obs().counter("prov.completed").value();
  pass.rejected = world->obs().counter("prov.rejected").value();
  return pass;
}

struct OverheadResult {
  double off_eps = 0;  // best events/sec, tracing off
  double on_eps = 0;   // best events/sec, tracing on at period 64
  double overhead_pct = 0;
  bool logs_identical = false;
  std::uint64_t sampled = 0;
  std::uint64_t traced = 0;  // completed + rejected: journeys finished
  int events = 0;
};

OverheadResult run_overhead(int events, int reps) {
  OverheadResult r;
  r.events = events;
  std::string off_log, on_log;
  for (int i = 0; i < reps; ++i) {
    const TransportPass p = run_transport_pass(events, 0);
    if (i == 0) off_log = p.log;
    const double eps =
        p.seconds > 0 ? static_cast<double>(p.events) / p.seconds : 0;
    if (eps > r.off_eps) r.off_eps = eps;
  }
  for (int i = 0; i < reps; ++i) {
    const TransportPass p = run_transport_pass(events, 64);
    if (i == 0) {
      on_log = p.log;
      r.sampled = p.sampled;
      r.traced = p.completed + p.rejected;
    }
    const double eps =
        p.seconds > 0 ? static_cast<double>(p.events) / p.seconds : 0;
    if (eps > r.on_eps) r.on_eps = eps;
  }
  r.overhead_pct = r.on_eps > 0 ? (r.off_eps / r.on_eps - 1.0) * 100.0 : 100.0;
  r.logs_identical = !off_log.empty() && off_log == on_log;
  return r;
}

// ---- part B: per-stage breakdown, calm vs faulty fabric -------------------

struct StageRow {
  const char* key;
  const char* label;
  std::uint64_t count = 0;
  obs::Percentiles p;
};

struct ScenarioPass {
  std::vector<StageRow> stages;
  std::string fingerprint;  // full bucket dump, the determinism witness
  std::uint64_t sampled = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t evicted = 0;
  std::uint64_t verdicts = 0;
};

/// One monitored session: 4 sender machines behind `fanin f1 2 m 1 4`,
/// online predicates on the root, burst_sender per machine. `faults`
/// injects latency spikes plus a datagram loss burst mid-job.
ScenarioPass run_scenario_pass(bool faults, int count) {
  kernel::WorldConfig wc;
  wc.max_descriptors = 1024;
  // Denser than the shipped default: these sessions are short and the
  // stage histograms need enough journeys for stable quantiles.
  wc.prov_sample_period = 16;
  kernel::World world(wc);
  world.add_machine("hub");
  for (int i = 1; i <= 4; ++i) world.add_machine("m" + std::to_string(i));
  control::install_monitor(world);
  apps::install_everywhere(world);
  world.add_account_everywhere(100);
  control::spawn_meterdaemons(world);
  auto bundle = analysis::pred::install_live_predicates(
      world, analysis::pred::standard_descriptions());

  control::MonitorSession session(world, {.host = "hub", .uid = 100});
  world.run();
  (void)session.drain_output();

  (void)session.command("filter f1 hub");
  (void)session.command("fanin f1 2 m 1 4");
  (void)session.command("predicate add burst: @1:* type=send & @2:* type=send");
  (void)session.command("newjob j f1");
  (void)session.command("setflags j send");
  (void)session.command(util::strprintf(
      "addgroup j m 1 4 1 burst_sender self 9 %d 64 512 4 400", count));

  if (faults) {
    const std::int64_t t0 = util::count_us(world.now() - util::TimePoint{});
    auto at = [t0](std::int64_t off) {
      return std::to_string(t0 + off) + "us";
    };
    auto plan = net::FaultPlan::parse(
        "spike@" + at(5'000) + " net=0 for=120ms add=3ms\n"
        "drop@" + at(60'000) + " net=0 for=40ms p=0.5\n"
        "spike@" + at(120'000) + " net=0 for=150ms add=5ms\n");
    if (plan) world.install_faults(*plan);
  }

  (void)session.command("startjob j");
  (void)session.command("removejob j");
  session.send_line("bye");
  world.run();
  bundle->detector.finish();  // settle buffered events -> verdict stamps

  ScenarioPass pass;
  const auto& hists = world.obs().histograms();
  for (const obs::ProvenanceStage& s : obs::provenance_stages()) {
    StageRow row;
    row.key = s.key;
    row.label = s.label;
    const auto it = hists.find(s.key);
    if (it != hists.end() && it->second.count() > 0) {
      const obs::Histogram& h = it->second;
      row.count = h.count();
      row.p = obs::log2_percentiles(h.buckets(), obs::Histogram::kBuckets,
                                    h.max());
      pass.fingerprint += util::strprintf(
          "%s:%llu:%lld:%lld:%lld|", s.key,
          static_cast<unsigned long long>(h.count()),
          static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
          static_cast<long long>(h.max()));
      for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
        if (h.buckets()[b] != 0) {
          pass.fingerprint += util::strprintf(
              "%d=%llu,", b, static_cast<unsigned long long>(h.buckets()[b]));
        }
      }
      pass.fingerprint += ";";
    }
    pass.stages.push_back(row);
  }
  pass.sampled = world.obs().counter("prov.sampled").value();
  pass.completed = world.obs().counter("prov.completed").value();
  pass.dropped = world.obs().counter("prov.dropped").value();
  pass.evicted = world.obs().counter("prov.evicted").value();
  pass.verdicts = bundle->detector.verdicts().size();
  return pass;
}

struct ScenarioResult {
  const char* name;
  ScenarioPass pass;
  bool deterministic = false;
};

ScenarioResult run_scenario(const char* name, bool faults, int count) {
  ScenarioResult r;
  r.name = name;
  r.pass = run_scenario_pass(faults, count);
  const ScenarioPass again = run_scenario_pass(faults, count);
  r.deterministic = !r.pass.fingerprint.empty() &&
                    r.pass.fingerprint == again.fingerprint;
  return r;
}

// ---- BENCH_provenance.json ------------------------------------------------

constexpr const char* kJsonPath = "BENCH_provenance.json";

bool write_json(const OverheadResult& o,
                const std::vector<ScenarioResult>& scenarios) {
  std::ofstream out(kJsonPath, std::ios::trunc);
  if (!out) return false;
  out << util::strprintf(
      "{\n"
      "  \"bench\": \"record_provenance\",\n"
      "  \"sample_period\": 64,\n"
      "  \"overhead\": {\n"
      "    \"workload\": \"sendrecv\",\n"
      "    \"events\": %d,\n"
      "    \"tracing_off_events_per_s\": %.0f,\n"
      "    \"tracing_on_events_per_s\": %.0f,\n"
      "    \"overhead_pct\": %.2f,\n"
      "    \"logs_identical\": %s,\n"
      "    \"sampled\": %llu,\n"
      "    \"journeys_finished\": %llu\n"
      "  },\n"
      "  \"scenarios\": [\n",
      o.events, o.off_eps, o.on_eps, o.overhead_pct,
      o.logs_identical ? "true" : "false",
      static_cast<unsigned long long>(o.sampled),
      static_cast<unsigned long long>(o.traced));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& s = scenarios[i];
    out << util::strprintf(
        "    {\"name\": \"%s\", \"deterministic\": %s,\n"
        "     \"sampled\": %llu, \"completed\": %llu, \"dropped\": %llu, "
        "\"evicted\": %llu, \"verdicts\": %llu,\n"
        "     \"stages\": [\n",
        s.name, s.deterministic ? "true" : "false",
        static_cast<unsigned long long>(s.pass.sampled),
        static_cast<unsigned long long>(s.pass.completed),
        static_cast<unsigned long long>(s.pass.dropped),
        static_cast<unsigned long long>(s.pass.evicted),
        static_cast<unsigned long long>(s.pass.verdicts));
    for (std::size_t k = 0; k < s.pass.stages.size(); ++k) {
      const StageRow& row = s.pass.stages[k];
      out << util::strprintf(
          "      {\"key\": \"%s\", \"label\": \"%s\", \"count\": %llu, "
          "\"p50_us\": %lld, \"p95_us\": %lld, \"p99_us\": %lld}%s\n",
          row.key, row.label, static_cast<unsigned long long>(row.count),
          static_cast<long long>(row.p.p50), static_cast<long long>(row.p.p95),
          static_cast<long long>(row.p.p99),
          k + 1 < s.pass.stages.size() ? "," : "");
    }
    out << util::strprintf("    ]}%s\n",
                           i + 1 < scenarios.size() ? "," : "");
  }
  out << "  ]\n}\n";
  return out.good();
}

void print_results(const OverheadResult& o,
                   const std::vector<ScenarioResult>& scenarios,
                   const char* tag) {
  std::printf(
      "bench_provenance %s: sendrecv %.0f ev/s off -> %.0f ev/s on "
      "(overhead %.2f%%), logs_identical=%s, sampled=%llu\n",
      tag, o.off_eps, o.on_eps, o.overhead_pct,
      o.logs_identical ? "true" : "false",
      static_cast<unsigned long long>(o.sampled));
  for (const ScenarioResult& s : scenarios) {
    std::printf("  %-6s deterministic=%s sampled=%llu completed=%llu "
                "dropped=%llu verdicts=%llu\n",
                s.name, s.deterministic ? "true" : "false",
                static_cast<unsigned long long>(s.pass.sampled),
                static_cast<unsigned long long>(s.pass.completed),
                static_cast<unsigned long long>(s.pass.dropped),
                static_cast<unsigned long long>(s.pass.verdicts));
    for (const StageRow& row : s.pass.stages) {
      std::printf("    %-24s n=%-6llu p50=%-8lld p95=%-8lld p99=%lld\n",
                  row.key, static_cast<unsigned long long>(row.count),
                  static_cast<long long>(row.p.p50),
                  static_cast<long long>(row.p.p95),
                  static_cast<long long>(row.p.p99));
    }
  }
}

std::uint64_t stage_count(const ScenarioPass& p, const char* key) {
  for (const StageRow& row : p.stages) {
    if (std::strcmp(row.key, key) == 0) return row.count;
  }
  return 0;
}

int run(int events, int reps, int count, bool assert_overhead,
        const char* tag) {
  const OverheadResult o = run_overhead(events, reps);
  std::vector<ScenarioResult> scenarios;
  scenarios.push_back(run_scenario("calm", false, count));
  scenarios.push_back(run_scenario("faulty", true, count));

  bool ok = true;
  if (!o.logs_identical) {
    std::fprintf(stderr,
                 "bench_provenance: filter logs differ with tracing on -- "
                 "identities leaked onto the wire\n");
    ok = false;
  }
  if (o.sampled == 0) {
    std::fprintf(stderr, "bench_provenance: sampler never fired\n");
    ok = false;
  }
  for (const ScenarioResult& s : scenarios) {
    if (!s.deterministic) {
      std::fprintf(stderr,
                   "bench_provenance: %s stage histograms differ across a "
                   "double run\n",
                   s.name);
      ok = false;
    }
  }
  // The calm session must have traced records through the *whole*
  // pipeline: fan-in hops and verdict-settled freshness both populated.
  const ScenarioPass& calm = scenarios[0].pass;
  for (const char* key : {"stage.emit_to_ring_us", "stage.fanin_hop_us",
                          "stage.settle_us", "stage.verdict_us",
                          "e2e.freshness_us"}) {
    if (stage_count(calm, key) == 0) {
      std::fprintf(stderr, "bench_provenance: calm scenario left %s empty\n",
                   key);
      ok = false;
    }
  }
  if (assert_overhead && o.overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "bench_provenance: sampling overhead %.2f%% >= 2%%\n",
                 o.overhead_pct);
    ok = false;
  }

  if (!write_json(o, scenarios)) {
    std::fprintf(stderr, "bench_provenance: cannot write %s\n", kJsonPath);
    return 1;
  }
  print_results(o, scenarios, tag);
  std::printf("wrote %s\n", kJsonPath);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return dpm::bench::run(/*events=*/4000, /*reps=*/2, /*count=*/120,
                             /*assert_overhead=*/false, "--smoke");
    }
  }
  return dpm::bench::run(/*events=*/20000, /*reps=*/5, /*count=*/300,
                         /*assert_overhead=*/true, "full");
}
