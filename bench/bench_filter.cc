// E3 — filter selection and reduction (§3.4).
//
// Measures the FilterEngine directly (real-time throughput, since the
// filter's own speed is what bounds how much metering a filter machine
// can absorb), across rule-set sizes and selectivities, plus the
// trace-size reduction from '#' discard editing.
//
// Counters:
//   records_per_s   frame+select+render throughput (real time)
//   accept_rate     fraction of records kept
//   bytes_out_per_record  log bytes per accepted record (discard effect)
//
// Every run also writes BENCH_filter.json (the engine's records/sec for
// each rule set) so the bench trajectory is machine-readable; `bench_filter
// --smoke` checks, for every rule set, that the engine's log equals the
// reference log (decode + Templates::evaluate + trace_line per record),
// validates the JSON it wrote, and exits — it is registered under ctest.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "filter/filter_program.h"
#include "meter/metermsgs.h"
#include "obs/snapshot.h"
#include "util/strings.h"
#include "workloads.h"

namespace dpm::bench {
namespace {

/// A batch of realistic meter records from several machines/pids.
util::Bytes make_batch(int records) {
  util::Bytes out;
  for (int i = 0; i < records; ++i) {
    meter::MeterMsg m;
    switch (i % 4) {
      case 0:
        // Some sends hit the paper's Fig 3.3 rule (machine 0, sock 4,
        // destName 228320140).
        m.body = meter::MeterSend{i % 7, 0,
                                  static_cast<meter::SocketId>(i % 8 == 0 ? 4 : 3),
                                  static_cast<std::uint32_t>(32 + i % 1024),
                                  i % 8 == 0 ? "228320140" : ""};
        break;
      case 1:
        m.body = meter::MeterRecv{i % 7, 0, 3, 64, "228320140"};
        break;
      case 2:
        m.body = meter::MeterRecvCall{i % 7, 0, 3};
        break;
      default:
        m.body = meter::MeterAccept{i % 7, 0, 4, 5, "131073", "196612"};
        break;
    }
    m.header.machine = static_cast<std::uint16_t>(i % 8 == 0 ? 0 : 1 + i % 5);
    m.header.cpu_time = 1000 * i;
    m.header.proc_time = 10000 * (i / 16);
    m.serialize_into(out);
  }
  return out;
}

/// One E3 rule set: a name (the benchmark and JSON key) and its rules.
struct RuleSet {
  std::string name;
  std::string rules;
};

std::string many_rules(int n) {
  std::string rules;
  for (int i = 0; i < n; ++i) {
    rules += util::strprintf("machine=%d, type=%d\n", i % 5, 1 + i % 10);
  }
  return rules;
}

const std::vector<RuleSet>& rule_sets() {
  static const std::vector<RuleSet> sets = {
      {"NoRules", ""},
      {"OneRule", "machine=2\n"},  // keeps ~20%
      // The paper's Fig 3.3 rules verbatim.
      {"PaperRules",
       "machine=5, cpuTime<10000\n"
       "machine=0, type=1, sock=4, destName=228320140\n"},
      {"ManyRules/4", many_rules(4)},
      {"ManyRules/16", many_rules(16)},
      {"ManyRules/64", many_rules(64)},
      // Keep everything but drop four fields from every record (Fig 3.4's
      // size-reduction technique).
      {"DiscardEditing", "machine=#*, pid=#*, pc=#*, procTime=#*\n"},
      {"HighlySelective", "type=1, msgLength>900\n"},  // keeps a few percent
  };
  return sets;
}

constexpr int kRecords = 2000;

void BM_Filter(benchmark::State& state, const std::string& rules) {
  const util::Bytes batch = make_batch(kRecords);
  std::uint64_t accepted = 0, records = 0, bytes_out = 0;
  for (auto _ : state) {
    filter::FilterEngine engine = make_engine(rules.c_str());
    std::string log = engine.feed(1, batch);
    benchmark::DoNotOptimize(log);
    accepted += engine.stats().accepted;
    records += engine.stats().records_in;
    bytes_out += engine.stats().bytes_out;
  }
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kIsRate);
  state.counters["accept_rate"] =
      static_cast<double>(accepted) / static_cast<double>(records);
  state.counters["bytes_out_per_record"] =
      accepted ? static_cast<double>(bytes_out) / static_cast<double>(accepted)
               : 0.0;
}

// ---- BENCH_filter.json ----

struct RuleSetResult {
  std::string name;
  double records_per_s = 0;
  double accept_rate = 0;
  bool logs_equal = false;  // engine log == reference log
};

struct FilterBenchResult {
  int records = 0;
  std::vector<RuleSetResult> sets;
  std::string obs_snapshot_jsonl;  // the paper-rules engine's registry
};

bool all_logs_equal(const FilterBenchResult& r) {
  for (const RuleSetResult& s : r.sets) {
    if (!s.logs_equal) return false;
  }
  return !r.sets.empty();
}

/// Per rule set: the engine's log against the reference log on the same
/// batch (equivalence first), then the engine's throughput on it.
FilterBenchResult run_rule_set_bench(int nrecords, double min_seconds) {
  const util::Bytes batch = make_batch(nrecords);
  FilterBenchResult r;
  r.records = nrecords;
  for (const RuleSet& set : rule_sets()) {
    RuleSetResult s;
    s.name = set.name;
    {
      auto engine = make_engine(set.rules.c_str());
      s.logs_equal =
          engine.feed(1, batch) == reference_log(batch, set.rules.c_str());
      s.accept_rate = static_cast<double>(engine.stats().accepted) /
                      static_cast<double>(engine.stats().records_in);
      // A full engine pass over the batch, so the result file carries the
      // filter.* accounting (records in/accepted/bytes) for its workload.
      if (set.name == "PaperRules") {
        r.obs_snapshot_jsonl = engine.obs().snapshot_jsonl();
      }
    }
    auto engine = make_engine(set.rules.c_str());
    std::uint64_t conn = 0;
    s.records_per_s = best_rate(
        3, static_cast<std::uint64_t>(nrecords),
        [&] {
          std::string log = engine.feed(++conn, batch);
          benchmark::DoNotOptimize(log);
        },
        min_seconds);
    r.sets.push_back(std::move(s));
  }
  return r;
}

bool write_bench_json(const FilterBenchResult& r, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << util::strprintf(
      "{\n"
      "  \"bench\": \"filter_rule_sets\",\n"
      "  \"records\": %d,\n"
      "  \"rule_sets\": [\n",
      r.records);
  for (std::size_t i = 0; i < r.sets.size(); ++i) {
    const RuleSetResult& s = r.sets[i];
    out << util::strprintf(
        "    {\"name\": \"%s\", \"records_per_s\": %.0f, "
        "\"accept_rate\": %.4f, \"logs_equal\": %s}%s\n",
        s.name.c_str(), s.records_per_s, s.accept_rate,
        s.logs_equal ? "true" : "false", i + 1 < r.sets.size() ? "," : "");
  }
  out << util::strprintf(
      "  ],\n"
      "  \"logs_equal\": %s,\n"
      "  \"obs_snapshot\": %s\n"
      "}\n",
      all_logs_equal(r) ? "true" : "false",
      obs::jsonl_to_json_array(r.obs_snapshot_jsonl, 4).c_str());
  return out.good();
}

/// Minimal well-formedness check of the file just written: it must exist,
/// be a single JSON object, carry every expected key, and record that
/// every rule set's log equals the reference.
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
  for (const char* key : {"\"bench\"", "\"records\"", "\"rule_sets\"",
                          "\"records_per_s\"", "\"logs_equal\"",
                          "\"obs_snapshot\""}) {
    if (text.find(key) == std::string::npos) return false;
  }
  return text.find("\"logs_equal\": false") == std::string::npos;
}

constexpr const char* kJsonPath = "BENCH_filter.json";

/// --smoke: the fast ctest entry point. Checks every rule set's log
/// against the reference, writes and validates BENCH_filter.json, and
/// fails (non-zero) if the file is malformed or any log differs.
int run_smoke() {
  const FilterBenchResult r = run_rule_set_bench(512, 0.02);
  const std::string snap_err = obs::validate_snapshot(r.obs_snapshot_jsonl);
  if (!snap_err.empty()) {
    std::fprintf(stderr, "bench_filter: bad embedded snapshot: %s\n",
                 snap_err.c_str());
    return 1;
  }
  if (!write_bench_json(r, kJsonPath)) {
    std::fprintf(stderr, "bench_filter: cannot write %s\n", kJsonPath);
    return 1;
  }
  if (!validate_bench_json(kJsonPath)) {
    std::fprintf(stderr, "bench_filter: %s is malformed\n", kJsonPath);
    return 1;
  }
  for (const RuleSetResult& s : r.sets) {
    std::printf("bench_filter --smoke: %-16s %10.0f rec/s logs_equal=%s\n",
                s.name.c_str(), s.records_per_s,
                s.logs_equal ? "true" : "false");
  }
  std::printf("wrote %s\n", kJsonPath);
  return all_logs_equal(r) ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return dpm::bench::run_smoke();
  }
  for (const auto& set : dpm::bench::rule_sets()) {
    benchmark::RegisterBenchmark(("BM_Filter/" + set.name).c_str(),
                                 dpm::bench::BM_Filter, set.rules);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The full run also refreshes the machine-readable result file, with a
  // longer measurement window than --smoke.
  const auto r = dpm::bench::run_rule_set_bench(2000, 0.5);
  if (!dpm::bench::write_bench_json(r, dpm::bench::kJsonPath)) return 1;
  std::printf("wrote %s\n", dpm::bench::kJsonPath);
  return dpm::bench::all_logs_equal(r) ? 0 : 1;
}
