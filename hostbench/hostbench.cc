// Host cost of real monitored sessions.
//
// Each session builds a fresh World, installs the monitor the way a site
// would (install_monitor, meterdaemons, the apps/ programs), and drives a
// control::MonitorSession with the paper's controller commands: filter
// (and fanin/predicate where the workload uses them), newjob, add*,
// setflags, startjob, removejob, getlog. The retrieved log then goes
// through the off-line analysis stage (read_trace + full_report).
//
// End-to-end metrics are host wall-clock times of those phases, measured
// with nothing but command timers on (--trace 0). A traced run (--trace 1)
// repeats the same sessions with bench-side timers around the calls into
// each layer's public functions, reads the program's own obs counters and
// getrusage, and reports the per-layer breakdown plus the tracing
// overhead. Simulated-time quantities appear only as labelled per-layer
// records (`*_sim_*`), never as end-to-end metrics.
//
//   hostbench --workload <pingpong|fanin_predicates|job_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--state-dir <dir>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Any correctness violation prints it with "correct": false and
// exits 1. hostbench/README.md describes the workloads.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ordering.h"
#include "analysis/predicates/service.h"
#include "analysis/report.h"
#include "analysis/trace_reader.h"
#include "apps/apps.h"
#include "control/session.h"
#include "filter/filter_program.h"
#include "kernel/world.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace dpm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Mean of `v` without its lowest and highest tenth: the end-to-end
/// estimate of a host time sampled once per session. Every session of a run
/// does the same simulated work, but the shared host alternates, every
/// second or so, between a fast phase and phases up to 1.6x slower, in
/// shares that change from minute to minute. A median of such samples
/// jumps between phases when no phase holds a clear majority; a mean moves
/// only as far as the shares do, and the trim drops one-off stalls.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t count_substr(const std::string& s, std::string_view needle) {
  std::size_t n = 0;
  for (auto pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// getrusage of the whole process (every simulated process is one of its
/// threads): context switches and CPU time.
struct HostUsage {
  long ctx_switches = 0;  // voluntary + involuntary
  double user_s = 0;
  double sys_s = 0;

  HostUsage operator-(const HostUsage& o) const {
    return {ctx_switches - o.ctx_switches, user_s - o.user_s, sys_s - o.sys_s};
  }
};

HostUsage host_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {ru.ru_nvcsw + ru.ru_nivcsw, secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- workload parameters ---------------------------------------------------

// pingpong: the quickstart session scaled up (2 pairs on 4 machines).
constexpr int kPingpongPairs = 2;
constexpr int kPingpongRounds = 5000;
constexpr int kPingpongBytes = 64;

// fanin_predicates: 8 leaf machines, one burst_sender each, open loop.
constexpr int kFaninLeaves = 8;
constexpr int kFaninSendersPerLeaf = 1;
constexpr int kFaninArity = 2;
constexpr int kFaninSends = 2500;
constexpr int kFaninGapUs = 400;

// job_churn: newjob/addgroup/setflags/startjob/removejob cycles.
constexpr int kChurnMachines = 8;
constexpr int kChurnPerMachine = 4;
constexpr int kChurnCycles = 20;

/// Controller kinds reported as control.cmd_host_ms.<kind> (the traced
/// run's per-command timers).
const std::vector<std::string>& command_kinds() {
  static const std::vector<std::string> kinds = {
      "filter",   "fanin",    "predicate", "newjob",    "addprocess",
      "addgroup", "setflags", "startjob",  "removejob", "getlog"};
  return kinds;
}

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// Every per-layer metric a traced run prints (BENCHMARK.json's per_layer
/// list), in print order. A layer a workload bypasses reports 0.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"sim.task_switches", "count"},
        {"sim.switches_per_record", "ratio"},
        {"sim.os_ctx_switches_per_task_switch", "ratio"},
        {"sim.job_sim_ms", "ms"},
        {"host.run_user_s", "s"},
        {"host.run_sys_s", "s"},
        {"host.unattributed_ns_per_record", "ns"},
        {"trace_overhead_frac", "ratio"},
        {"failed_frac", "ratio"},
        {"kernel.meter_events", "count"},
        {"kernel.records_per_flush", "ratio"},
        {"kernel.meter_bytes", "B"},
        {"kernel.meter_failed_records", "count"},
        {"ring.wakeups", "count"},
        {"net.packets_sent", "count"},
        {"net.bytes_remote", "B"},
        {"net.delivery_sim_us_p50", "us"},
        {"filter.records_in", "count"},
        {"filter.accept_ratio", "ratio"},
        {"filter.log_bytes", "B"},
        {"localfilter.records_in", "count"},
        {"aggregator.records_in", "count"},
        {"fanin.forwarded_records", "count"},
        {"fanin.overflow_records", "count"},
        {"fanin.queue_bytes_hwm", "B"},
        {"daemon.rpc_calls", "count"},
        {"daemon.rpc_retries", "count"},
        {"daemon.rpc_failures", "count"},
    };
    for (const std::string& kind : command_kinds()) {
      m.push_back({"control.cmd_host_ms." + kind, "ms"});
    }
    const std::vector<LayerMetric> rest = {
        {"control.start_rtt_sim_us_p50", "us"},
        {"control.kill_rtt_sim_us_p50", "us"},
        {"analysis.read_ns_per_event", "ns"},
        {"analysis.order_ns_per_event", "ns"},
        {"analysis.report_ns_per_event", "ns"},
        {"analysis.trace_events", "count"},
        {"analysis.malformed", "count"},
        {"live.sink_ns_per_record", "ns"},
        {"live.host_ns_per_record", "ns"},
        {"live.message_pairs", "count"},
        {"live.relax_steps", "count"},
        {"live.gaps", "count"},
        {"live.parked_hwm", "count"},
        {"pred.host_ns_per_event", "ns"},
        {"pred.verdicts", "count"},
        {"pred.lattice_cuts", "count"},
        {"pred.send_stamps_dropped", "count"},
        {"prov.sampled", "count"},
        {"e2e.freshness_sim_us_p50", "us"},
        {"e2e.freshness_sim_us_p99", "us"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

// ---- per-session measurement ------------------------------------------------

/// Times the live bundle's sink (live analysis + predicate detection run
/// synchronously inside it) and keeps a copy of every accepted record, so
/// the live/predicate split can be re-measured after the session.
class TimedSink : public filter::RecordSink {
 public:
  explicit TimedSink(std::shared_ptr<filter::RecordSink> inner)
      : inner_(std::move(inner)) {}

  void on_record(const filter::Record& rec) override {
    const auto t0 = Clock::now();
    inner_->on_record(rec);
    ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    records_.push_back(rec);
  }

  double ns() const { return ns_; }
  const std::vector<filter::Record>& records() const { return records_; }

 private:
  std::shared_ptr<filter::RecordSink> inner_;
  double ns_ = 0;
  std::vector<filter::Record> records_;
};

/// Host time of one session.command call.
struct CommandTime {
  std::string kind;
  double ms = 0;
};

struct SessionResult {
  double setup_s = 0;
  double run_s = 0;
  double analyze_s = 0;
  double peak_rss_mb = 0;  // of the session's own process
  std::vector<CommandTime> cmds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::string fingerprint;            // determinism witness for this seed
  std::map<std::string, double> layer;  // per-layer counts and traced times
};

/// Drives one session of one workload and records its measurements.
class Session {
 public:
  /// `setup_only` stops each workload just before its first startjob
  /// (extra setup_s samples); `traced` turns the bench-side layer timers on.
  Session(std::string workload, std::uint64_t seed, bool traced,
          bool setup_only)
      : workload_(std::move(workload)), seed_(seed), traced_(traced),
        setup_only_(setup_only),
        rng_(util::Rng::named(seed, "hostbench.workload")) {}

  SessionResult run();

 private:
  void open_session(int leaves);
  std::string cmd(const std::string& line);
  void violation(std::string what) { r_.violations.push_back(std::move(what)); }
  /// Distinct values in [lo, hi] drawn from the workload stream.
  std::vector<int> draw_distinct(int n, int lo, int hi);
  /// Ends setup (returns false for a setup-only session) and starts the
  /// run-phase snapshots; end_run() closes them at quiescence.
  bool begin_run();
  void end_run();

  void pingpong();
  void fanin_predicates();
  void job_churn();

  void finish_session(const std::string& log_name, std::size_t processes);
  void check_conservation();
  void analyze(const std::string& text);
  void read_layers();
  void split_live_and_predicates();

  std::string workload_;
  std::uint64_t seed_;
  bool traced_;
  bool setup_only_;
  util::Rng rng_;
  SessionResult r_;

  Clock::time_point t_world_;
  std::unique_ptr<kernel::World> world_;
  std::unique_ptr<control::MonitorSession> session_;
  std::shared_ptr<analysis::pred::LivePredicates> bundle_;
  std::shared_ptr<TimedSink> sink_;
  std::string predicate_spec_;

  // Run phase: from the first startjob until the world is quiescent after
  // the last one. The *0_ members are the snapshots at its start.
  Clock::time_point run_t0_;
  double run_sim0_us_ = 0;
  std::uint64_t run_switches0_ = 0;
  HostUsage run_usage0_;
  double run_sink0_ns_ = 0;
  double run_sim_us_ = 0;
  std::uint64_t run_task_switches_ = 0;
  HostUsage run_usage_;
  double run_sink_ns_ = 0;

  std::uint64_t commands_ = 0;
  std::uint64_t failed_commands_ = 0;
  std::uint64_t failed_records_ = 0;
  std::uint64_t emitted_ = 0;
  std::size_t ended_normally_ = 0;  // "DONE ... reason: normal" lines
};

/// Builds the world (hub + m1..m<leaves>, shipped defaults but the seed),
/// installs the monitor and apps, and opens the user's session on the hub.
void Session::open_session(int leaves) {
  kernel::WorldConfig wc;
  wc.seed = seed_;
  t_world_ = Clock::now();
  world_ = std::make_unique<kernel::World>(wc);
  world_->add_machine("hub");
  for (int i = 1; i <= leaves; ++i) {
    world_->add_machine("m" + std::to_string(i));
  }
  control::install_monitor(*world_);
  apps::install_everywhere(*world_);
  control::spawn_meterdaemons(*world_);
  session_ = std::make_unique<control::MonitorSession>(
      *world_, control::MonitorSession::Options{.host = "hub"});
  world_->run();
  (void)session_->drain_output();
}

std::vector<int> Session::draw_distinct(int n, int lo, int hi) {
  std::vector<int> pool;
  for (int v = lo; v <= hi; ++v) pool.push_back(v);
  for (int i = static_cast<int>(pool.size()) - 1; i > 0; --i) {
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(rng_.uniform(0, i))]);
  }
  pool.resize(static_cast<std::size_t>(n));
  return pool;
}

/// A command fails when the controller prints an error for it.
bool command_failed(const std::string& kind, const std::string& out) {
  static const char* const kErrors[] = {
      "usage:",      "not created",  "not started", "not stopped",
      "not removed", "cannot",       "failed:",     "already",
      "no such",     "error",        "unknown",     "bad ",
      "DOWN",        "marked down",  "WARNING",     "warning",
      "presumed dead", "reason: killed", "not acquired", "filter first"};
  for (const char* e : kErrors) {
    if (out.find(e) != std::string::npos) return true;
  }
  if (kind == "fanin" && count_substr(out, "(0 failed)") != 2) return true;
  // Batched summaries: "job 'j': 8 of 8 processes created ..." and
  // "'j': 32 of 32 processes started." must be complete.
  for (auto pos = out.find(" of "); pos != std::string::npos;
       pos = out.find(" of ", pos + 4)) {
    auto ls = out.rfind(' ', pos - 1);
    ls = ls == std::string::npos ? 0 : ls + 1;
    const char* done = out.c_str() + ls;
    const char* total = out.c_str() + pos + 4;
    if (std::isdigit(static_cast<unsigned char>(*done)) &&
        std::isdigit(static_cast<unsigned char>(*total)) &&
        std::strtoull(done, nullptr, 10) != std::strtoull(total, nullptr, 10)) {
      return true;
    }
  }
  return false;
}

std::string Session::cmd(const std::string& line) {
  const std::string kind = line.substr(0, line.find(' '));
  const auto t0 = Clock::now();
  std::string out = session_->command(line);
  r_.cmds.push_back({kind, seconds_since(t0) * 1e3});
  ++commands_;
  ended_normally_ += count_substr(out, "terminated: reason: normal");
  if (command_failed(kind, out)) {
    ++failed_commands_;
    violation("command '" + line + "' failed:\n" + out);
  }
  return out;
}

bool Session::begin_run() {
  r_.setup_s = seconds_since(t_world_);
  if (setup_only_) return false;
  run_sim0_us_ = static_cast<double>(util::count_us(world_->now()));
  run_switches0_ = world_->obs().counter("sim.task_switches").value();
  run_usage0_ = host_usage();
  run_sink0_ns_ = sink_ ? sink_->ns() : 0;
  run_t0_ = Clock::now();
  return true;
}

void Session::end_run() {
  r_.run_s = seconds_since(run_t0_);
  run_usage_ = host_usage() - run_usage0_;
  run_task_switches_ =
      world_->obs().counter("sim.task_switches").value() - run_switches0_;
  run_sim_us_ = static_cast<double>(util::count_us(world_->now())) - run_sim0_us_;
  run_sink_ns_ = sink_ ? sink_->ns() - run_sink0_ns_ : 0;
}

SessionResult Session::run() {
  if (workload_ == "pingpong") {
    pingpong();
  } else if (workload_ == "fanin_predicates") {
    fanin_predicates();
  } else {
    job_churn();
  }
  r_.attempted = emitted_ + commands_;
  r_.failed = failed_records_ + failed_commands_;
  return r_;
}

void Session::pingpong() {
  open_session(2 * kPingpongPairs);
  // The seed places the servers and clients on the four machines and
  // picks the ports; message size and round count are fixed.
  const std::vector<int> place = draw_distinct(2 * kPingpongPairs, 1,
                                               2 * kPingpongPairs);
  const int base_port = 5000 + static_cast<int>(rng_.uniform(0, 999)) * 4;
  cmd("filter f1 hub");
  cmd("newjob pp f1");
  for (int p = 0; p < kPingpongPairs; ++p) {
    const int server = place[static_cast<std::size_t>(2 * p)];
    const int client = place[static_cast<std::size_t>(2 * p + 1)];
    const int port = base_port + p;
    cmd(util::strprintf("addprocess pp m%d pingpong_server %d %d", server,
                        port, kPingpongRounds));
    cmd(util::strprintf("addprocess pp m%d pingpong_client m%d %d %d %d",
                        client, server, port, kPingpongRounds,
                        kPingpongBytes));
  }
  cmd("setflags pp all");
  if (!begin_run()) return;
  cmd("startjob pp");
  end_run();
  cmd("removejob pp");
  cmd("getlog f1 pp.trace");
  finish_session("pp.trace", 2 * kPingpongPairs);
}

void Session::fanin_predicates() {
  open_session(kFaninLeaves);
  // Installed before the `filter` command: a filter taps the live sink
  // that is installed when it starts.
  bundle_ = analysis::pred::install_live_predicates(
      *world_, analysis::pred::standard_descriptions());
  if (traced_) {
    sink_ = std::make_shared<TimedSink>(filter::live_sink(*world_));
    filter::install_live_sink(*world_, sink_);
  }
  // The seed picks the two leaf machines the predicate spans and the
  // senders' port; rate, size mix and count are fixed. Meter headers
  // carry 0-based machine indices, so leaf mK is @K (the hub is @0).
  const std::vector<int> pair = draw_distinct(2, 1, kFaninLeaves);
  const int port = 9000 + static_cast<int>(rng_.uniform(0, 999));
  predicate_spec_ = util::strprintf("both: @%d:* type=send & @%d:* type=send",
                                    pair[0], pair[1]);
  cmd("filter f1 hub");
  cmd(util::strprintf("fanin f1 %d m 1 %d", kFaninArity, kFaninLeaves));
  cmd("predicate add " + predicate_spec_);
  cmd("newjob j f1");
  cmd("setflags j send");
  cmd(util::strprintf("addgroup j m 1 %d %d burst_sender self %d %d 64 512 8 %d",
                      kFaninLeaves, kFaninSendersPerLeaf, port, kFaninSends,
                      kFaninGapUs));
  if (!begin_run()) return;
  cmd("startjob j");
  end_run();
  cmd("removejob j");
  cmd("getlog f1 j.trace");
  finish_session("j.trace", kFaninLeaves * kFaninSendersPerLeaf);
}

void Session::job_churn() {
  open_session(kChurnMachines);
  cmd("filter f1 hub");
  for (int c = 0; c < kChurnCycles; ++c) {
    const std::string job = "c" + std::to_string(c);
    cmd(util::strprintf("newjob %s f1", job.c_str()));
    cmd(util::strprintf("addgroup %s m 1 %d %d hello", job.c_str(),
                        kChurnMachines, kChurnPerMachine));
    cmd(util::strprintf("setflags %s all", job.c_str()));
    if (c == 0 && !begin_run()) return;
    cmd("startjob " + job);
    cmd("removejob " + job);
  }
  end_run();
  cmd("getlog f1 churn.trace");
  finish_session("churn.trace", kChurnMachines * kChurnPerMachine * kChurnCycles);
}

/// Ends the session (controller `bye`), settles the detector, checks that
/// all `processes` ended normally and the ledgers, and runs the off-line
/// stage on the retrieved log.
void Session::finish_session(const std::string& log_name, std::size_t processes) {
  session_->send_line("bye");
  world_->run();
  if (bundle_) bundle_->detector.finish();

  if (ended_normally_ != processes) {
    violation(util::strprintf("%zu of %zu job processes ended normally",
                              ended_normally_, processes));
    failed_records_ += processes - std::min(ended_normally_, processes);
  }
  check_conservation();
  const auto text = world_->machine_by_name("hub")->fs.read_text(log_name);
  if (!text) {
    violation("getlog left no " + log_name + " on the hub");
  } else {
    analyze(*text);
  }
  read_layers();
  if (traced_ && sink_) split_live_and_predicates();
}

void Session::check_conservation() {
  const kernel::MeterConservation m = world_->meter_conservation();
  const kernel::FanInConservation f = world_->fanin_conservation();
  if (!m.balanced()) violation("meter conservation ledger does not balance");
  if (!f.balanced()) violation("fan-in conservation ledger does not balance");
  emitted_ = m.emitted;
  const std::uint64_t lost = m.dropped + m.lost + m.stranded + m.malformed +
                             f.lost + f.overflow + f.stranded + f.malformed;
  failed_records_ += lost;
  if (lost != 0) {
    violation(util::strprintf("%llu records lost between meter and root log",
                              static_cast<unsigned long long>(lost)));
  }
}

void Session::analyze(const std::string& text) {
  const auto t0 = Clock::now();
  const analysis::Trace trace = analysis::read_trace(text);
  const double read_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const std::string report = analysis::full_report(trace);
  const double report_s = seconds_since(t1);
  r_.analyze_s = read_s + report_s;

  r_.layer["analysis.trace_events"] = static_cast<double>(trace.events.size());
  r_.layer["analysis.malformed"] = static_cast<double>(trace.malformed);
  if (trace.malformed != 0) {
    violation(util::strprintf("retrieved trace has %zu malformed lines",
                              trace.malformed));
  }
  const auto accepted = world_->obs().counter("filter.accepted").value();
  if (trace.events.size() != accepted) {
    violation(util::strprintf(
        "trace has %zu events, root filter accepted %llu",
        trace.events.size(), static_cast<unsigned long long>(accepted)));
  }
  if (report.empty()) violation("full_report produced nothing");

  std::uint64_t verdict_sig = 0;
  std::size_t verdicts = 0;
  if (bundle_) {
    for (const auto& v : bundle_->detector.verdicts()) {
      verdict_sig = fnv1a(util::strprintf(
          "%s|%d|%llu|%lld|%lld;", v.predicate.c_str(), static_cast<int>(v.kind),
          static_cast<unsigned long long>(v.occurrence),
          static_cast<long long>(v.cut_lo_us), static_cast<long long>(v.cut_hi_us)),
          verdict_sig);
      ++verdicts;
    }
  }
  r_.fingerprint = util::strprintf(
      "log=%016llx bytes=%zu events=%zu job_sim_us=%.0f verdicts=%zu "
      "verdict_sig=%016llx",
      static_cast<unsigned long long>(fnv1a(text)), text.size(),
      trace.events.size(), run_sim_us_, verdicts,
      static_cast<unsigned long long>(verdict_sig));

  if (!traced_ && !bundle_) return;
  // The batch ordering pass on its own (full_report runs it internally),
  // which is also the reference the live bundle must agree with.
  const auto t2 = Clock::now();
  const analysis::Ordering ord = analysis::order_events(trace);
  const double order_s = seconds_since(t2);
  if (traced_) {
    const double n = static_cast<double>(std::max<std::size_t>(trace.events.size(), 1));
    r_.layer["analysis.read_ns_per_event"] = read_s * 1e9 / n;
    r_.layer["analysis.order_ns_per_event"] = order_s * 1e9 / n;
    r_.layer["analysis.report_ns_per_event"] = report_s * 1e9 / n;
  }
  if (bundle_) {
    const auto st = bundle_->live.stats();
    bool same = ord.message_pairs == st.message_pairs &&
                st.events == trace.events.size();
    for (std::size_t i = 0; same && i < trace.events.size(); ++i) {
      same = ord.events[i].lamport == bundle_->live.lamport_of(i);
    }
    if (!same) violation("live analysis and batch order_events disagree");
  }
}

void Session::read_layers() {
  const obs::Registry& o = world_->obs();
  auto counter = [&](const char* k) {
    const auto it = o.counters().find(k);
    return it == o.counters().end() ? 0.0 : static_cast<double>(it->second.value());
  };
  auto hwm = [&](const char* k) {
    const auto it = o.gauges().find(k);
    return it == o.gauges().end() ? 0.0 : static_cast<double>(it->second.high_water());
  };
  auto pct = [&](const char* k, double p) {
    const auto it = o.histograms().find(k);
    return it == o.histograms().end() ? 0.0
                                      : static_cast<double>(it->second.percentile(p));
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& L = r_.layer;
  const double records = static_cast<double>(emitted_);

  L["sim.task_switches"] = static_cast<double>(run_task_switches_);
  L["sim.switches_per_record"] = ratio(static_cast<double>(run_task_switches_), records);
  L["sim.os_ctx_switches_per_task_switch"] =
      ratio(static_cast<double>(run_usage_.ctx_switches),
            static_cast<double>(run_task_switches_));
  L["host.run_user_s"] = run_usage_.user_s;
  L["host.run_sys_s"] = run_usage_.sys_s;
  L["sim.job_sim_ms"] = run_sim_us_ / 1e3;

  L["kernel.meter_events"] = counter("kernel.meter_events");
  L["kernel.records_per_flush"] =
      ratio(counter("kernel.meter_events"), counter("kernel.meter_flushes"));
  L["kernel.meter_bytes"] = counter("kernel.meter_bytes");
  L["ring.wakeups"] = counter("ring.wakeups");
  L["kernel.meter_failed_records"] =
      counter("kernel.meter_dropped_records") + counter("kernel.meter_lost_records") +
      counter("kernel.meter_stranded_records") + counter("kernel.meter_malformed_records");

  L["net.packets_sent"] = counter("net.packets_sent");
  L["net.bytes_remote"] = counter("net.bytes_remote");
  L["net.delivery_sim_us_p50"] = pct("net.delivery_us", 50);

  L["filter.records_in"] = counter("filter.records_in");
  L["filter.accept_ratio"] = ratio(counter("filter.accepted"), counter("filter.records_in"));
  L["filter.log_bytes"] = counter("filter.bytes_out");
  L["localfilter.records_in"] = counter("localfilter.records_in");
  L["aggregator.records_in"] = counter("aggregator.records_in");
  L["fanin.forwarded_records"] = counter("fanin.forwarded_records");
  L["fanin.overflow_records"] = counter("fanin.overflow_records");
  L["fanin.queue_bytes_hwm"] = hwm("fanin.queue_bytes");

  L["daemon.rpc_calls"] = counter("daemon.rpc_calls");
  L["daemon.rpc_retries"] = counter("daemon.rpc_retries");
  L["daemon.rpc_failures"] = counter("daemon.rpc_failures");

  L["control.start_rtt_sim_us_p50"] = pct("control.start_rtt_us", 50);
  L["control.kill_rtt_sim_us_p50"] = pct("control.kill_rtt_us", 50);

  L["live.message_pairs"] = counter("live.message_pairs");
  L["live.relax_steps"] = counter("live.relax_steps");
  L["live.gaps"] = counter("live.gaps");
  L["live.parked_hwm"] = hwm("live.parked");

  L["pred.verdicts"] = counter("pred.verdicts");
  L["pred.lattice_cuts"] = counter("pred.lattice_cuts");
  L["pred.send_stamps_dropped"] = counter("pred.send_stamps_dropped");

  L["prov.sampled"] = counter("prov.sampled");
  L["e2e.freshness_sim_us_p50"] = pct("e2e.freshness_us", 50);
  L["e2e.freshness_sim_us_p99"] = pct("e2e.freshness_us", 99);

  // Host time of the run not covered by a bench-side layer timer.
  L["host.unattributed_ns_per_record"] =
      ratio(r_.run_s * 1e9 - run_sink_ns_, records);
  L["live.sink_ns_per_record"] =
      sink_ ? ratio(sink_->ns(), static_cast<double>(sink_->records().size())) : 0;
}

/// Re-feeds the accepted records the sink captured through a fresh
/// LiveAnalysis (record conversion included, as in the session's sink),
/// once alone and once with a PredicateDetector running the session's
/// predicate: the first pass is live analysis' host cost, the difference
/// is the detector's.
void Session::split_live_and_predicates() {
  const auto& recs = sink_->records();
  const double n = static_cast<double>(std::max<std::size_t>(recs.size(), 1));
  auto feed = [&recs](analysis::live::LiveAnalysis& live) {
    for (const auto& rec : recs) {
      if (auto e = analysis::event_from_record(rec)) live.add_event(*e);
    }
  };

  const auto t0 = Clock::now();
  {
    analysis::live::LiveAnalysis live(bundle_->live.config());
    feed(live);
  }
  const double live_ns = seconds_since(t0) * 1e9;

  const auto t1 = Clock::now();
  std::size_t verdicts = 0;
  {
    analysis::live::LiveAnalysis live(bundle_->live.config());
    analysis::pred::PredicateDetector det(analysis::pred::standard_descriptions(),
                                          bundle_->detector.config());
    (void)det.add_predicate(predicate_spec_);
    live.add_observer(&det);
    feed(live);
    det.finish();
    verdicts = det.verdicts().size();
  }
  const double both_ns = seconds_since(t1) * 1e9;

  r_.layer["live.host_ns_per_record"] = live_ns / n;
  r_.layer["pred.host_ns_per_event"] = std::max(both_ns - live_ns, 0.0) / n;
  if (verdicts != bundle_->detector.verdicts().size()) {
    violation(util::strprintf("re-fed detector found %zu verdicts, session %zu",
                              verdicts, bundle_->detector.verdicts().size()));
  }
}

// ---- one session per process ------------------------------------------------
//
// ru_maxrss is a lifetime high-water mark and the allocator keeps what a
// finished World freed, so every session runs in a forked child of its
// own (the parent never creates a thread, so fork is safe) and reports
// its result back over a pipe, one "<tag>\t<fields...>" line per item.

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', '|');
  std::replace(s.begin(), s.end(), '\t', ' ');
  return s;
}

std::string serialize(const SessionResult& s) {
  std::string out = util::strprintf(
      "times\t%.17g\t%.17g\t%.17g\t%.17g\nops\t%llu\t%llu\nfingerprint\t%s\n",
      s.setup_s, s.run_s, s.analyze_s, s.peak_rss_mb,
      static_cast<unsigned long long>(s.attempted),
      static_cast<unsigned long long>(s.failed), s.fingerprint.c_str());
  for (const CommandTime& c : s.cmds) {
    out += util::strprintf("cmd\t%s\t%.17g\n", c.kind.c_str(), c.ms);
  }
  for (const auto& [k, v] : s.layer) {
    out += util::strprintf("layer\t%s\t%.17g\n", k.c_str(), v);
  }
  for (const std::string& v : s.violations) out += "violation\t" + one_line(v) + "\n";
  return out;
}

SessionResult deserialize(const std::string& text) {
  SessionResult s;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    std::istringstream fields(line);
    for (std::string x; std::getline(fields, x, '\t');) f.push_back(x);
    if (f.empty()) continue;
    auto num = [&f](std::size_t i) {
      return i < f.size() ? std::strtod(f[i].c_str(), nullptr) : 0.0;
    };
    if (f[0] == "times") {
      s.setup_s = num(1);
      s.run_s = num(2);
      s.analyze_s = num(3);
      s.peak_rss_mb = num(4);
    } else if (f[0] == "ops") {
      s.attempted = static_cast<std::uint64_t>(num(1));
      s.failed = static_cast<std::uint64_t>(num(2));
    } else if (f[0] == "fingerprint" && f.size() > 1) {
      s.fingerprint = f[1];
    } else if (f[0] == "cmd" && f.size() > 2) {
      s.cmds.push_back({f[1], num(2)});
    } else if (f[0] == "layer" && f.size() > 2) {
      s.layer[f[1]] = num(2);
    } else if (f[0] == "violation" && f.size() > 1) {
      s.violations.push_back(f[1]);
    }
  }
  return s;
}

/// Runs one Session in a child process pinned to `cpu` and waits for it.
/// The pin is set before the World exists, so every task thread inherits
/// it and thread handoffs never cross cores.
SessionResult run_isolated(const std::string& workload, std::uint64_t seed,
                           bool traced, bool setup_only, int cpu) {
  int fds[2];
  if (pipe(fds) != 0) {
    SessionResult s;
    s.violations.push_back("pipe() failed");
    return s;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    alarm(120);  // a wedged session dies and is reported, never hangs the run
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) _exit(1);
    std::string text;
    {
      SessionResult s = Session(workload, seed, traced, setup_only).run();
      s.peak_rss_mb = peak_rss_mb();
      text = serialize(s);
    }
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) _exit(1);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  if (pid < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    SessionResult s;
    s.violations.push_back(util::strprintf("session process failed (status %d)",
                                           status));
    return s;
  }
  return deserialize(text);
}

// ---- the benchmark run ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir;
};

/// The CPUs this process may run on. Sessions are pinned to one of them
/// each, in rotation: on a shared host each CPU's speed drifts on its
/// own (a fixed ALU loop run on all four vCPUs at once read 0.08 s on
/// some and 0.2 s on others for seconds at a time), so a run's estimate
/// over sessions spread across the CPUs follows no single CPU's drift.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Compares this run's fingerprint with the one an earlier run of the same
/// workload and seed left in `dir` (and records it when none exists).
bool check_cross_run(const Options& opt, const std::string& fp, std::string* err) {
  if (opt.state_dir.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(opt.state_dir, ec);
  const std::string path = util::strprintf(
      "%s/%s-%llu.fingerprint", opt.state_dir.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed));
  std::ifstream in(path);
  std::string prev;
  if (in && std::getline(in, prev)) {
    if (prev != fp) {
      *err = "fingerprint differs from an earlier run of this seed:\n  was " +
             prev + "\n  now " + fp;
      return false;
    }
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  out << fp << "\n";
  return true;
}

void print_metric(std::string& json, bool& first, const std::string& name,
                  double value, const char* unit) {
  std::printf("  %-38s %16.6f %s\n", name.c_str(), value, unit);
  json += util::strprintf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                          first ? "" : ", ", name.c_str(), value, unit);
  first = false;
}

int run(const Options& opt) {
  const std::vector<int> cpus = allowed_cpus();
  std::string cpu_list;
  for (int c : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(c);
  std::printf("hostbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: session_cpus=%s nproc=%ld compiler=\"g++ %s\" build_type=%s\n",
              cpu_list.c_str(), sysconf(_SC_NPROCESSORS_ONLN), __VERSION__,
              HOSTBENCH_BUILD_TYPE);
  if (cpus.empty()) {
    std::fprintf(stderr, "hostbench: cannot read the CPU affinity mask\n");
    return 1;
  }

  // Sessions repeat until the time budget is spent (at least three; a
  // traced run alternates untraced and traced sessions for the overhead).
  // Untraced runs also set up kSetupRepeats extra worlds per session,
  // stopped before startjob, so setup_s is a median of many samples.
  constexpr int kSetupRepeats = 3;
  const auto start = Clock::now();
  std::vector<SessionResult> plain, traced;
  std::vector<double> setups;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0;
  auto absorb = [&](SessionResult& s, bool untraced) {
    attempted += s.attempted;
    failed += s.failed;
    for (auto& v : s.violations) violations.push_back(std::move(v));
    if (untraced) setups.push_back(s.setup_s);
  };
  std::string fingerprint;
  double longest = 0;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    const std::size_t done = plain.size() + traced.size();
    if (done >= 3 && elapsed + longest > opt.seconds) break;
    const bool trace_this = opt.trace && i % 2 == 1;
    const auto t0 = Clock::now();
    for (int k = 0; !opt.trace && k < kSetupRepeats; ++k) {
      SessionResult s = run_isolated(opt.workload, opt.seed, false, true,
                                     cpus[setups.size() % cpus.size()]);
      absorb(s, true);
    }
    const std::size_t nth = trace_this ? traced.size() : plain.size();
    SessionResult s = run_isolated(opt.workload, opt.seed, trace_this, false,
                                   cpus[nth % cpus.size()]);
    longest = std::max(longest, seconds_since(t0));
    absorb(s, !trace_this);
    if (fingerprint.empty()) fingerprint = s.fingerprint;
    if (s.fingerprint != fingerprint) {
      violations.push_back("fingerprint differs between sessions of one seed:\n  " +
                           fingerprint + "\n  " + s.fingerprint);
    }
    std::printf("session %d%s: setup %.4f s, run %.4f s (cpu %.4f user + %.4f sys), "
                "analyze %.4f s\n",
                i, trace_this ? " (traced)" : "", s.setup_s, s.run_s,
                s.layer["host.run_user_s"], s.layer["host.run_sys_s"], s.analyze_s);
    std::fflush(stdout);
    (trace_this ? traced : plain).push_back(std::move(s));
  }
  std::string err;
  if (!check_cross_run(opt, fingerprint, &err)) violations.push_back(err);

  auto collect = [](const std::vector<SessionResult>& v,
                    double SessionResult::*field) {
    std::vector<double> out;
    for (const auto& s : v) out.push_back(s.*field);
    return out;
  };
  // cmd_ms_p99 pools every command of the run, for as many samples beyond
  // it as the run has; cmd_ms_p50 is the trimmed mean of the sessions' own
  // medians.
  std::vector<double> cmd_ms, session_cmd_p50;
  for (const auto& s : plain) {
    std::vector<double> ms;
    for (const CommandTime& c : s.cmds) ms.push_back(c.ms);
    session_cmd_p50.push_back(median(ms));
    cmd_ms.insert(cmd_ms.end(), ms.begin(), ms.end());
  }

  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::printf("sessions: %zu untraced, %zu traced; commands timed: %zu "
              "(cmd_ms_p99 has %zu samples above it)\n",
              plain.size(), traced.size(), cmd_ms.size(),
              cmd_ms.size() - static_cast<std::size_t>(
                                  std::ceil(0.99 * static_cast<double>(cmd_ms.size()))));
  std::printf("operations: %llu attempted, %llu failed (failed_frac %.6f)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0);

  std::string metrics;
  bool first = true;
  if (!opt.trace) {
    std::printf("end-to-end (setup_s and peak_rss_mb medians, the rest trimmed "
                "means, over %zu sessions and %zu setups):\n",
                plain.size(), setups.size());
    print_metric(metrics, first, "setup_s", median(setups), "s");
    print_metric(metrics, first, "run_s",
                 trimmed_mean(collect(plain, &SessionResult::run_s)), "s");
    print_metric(metrics, first, "analyze_s",
                 trimmed_mean(collect(plain, &SessionResult::analyze_s)), "s");
    print_metric(metrics, first, "peak_rss_mb",
                 median(collect(plain, &SessionResult::peak_rss_mb)), "MB");
    print_metric(metrics, first, "cmd_ms_p50", trimmed_mean(session_cmd_p50), "ms");
    print_metric(metrics, first, "cmd_ms_p99", percentile(cmd_ms, 99), "ms");
  } else {
    // Medians over the traced sessions (counts are identical in every
    // session of one seed, so their median is the count itself).
    std::map<std::string, std::vector<double>> samples;
    for (const auto& s : traced) {
      for (const auto& [k, v] : s.layer) samples[k].push_back(v);
    }
    std::map<std::string, double> layer;
    for (const auto& [k, v] : samples) layer[k] = median(v);
    for (const std::string& kind : command_kinds()) {
      std::vector<double> ms;
      for (const auto& s : traced) {
        for (const CommandTime& c : s.cmds) {
          if (c.kind == kind) ms.push_back(c.ms);
        }
      }
      layer["control.cmd_host_ms." + kind] = median(ms);
    }
    layer["trace_overhead_frac"] =
        trimmed_mean(collect(traced, &SessionResult::run_s)) /
            trimmed_mean(collect(plain, &SessionResult::run_s)) - 1.0;
    layer["failed_frac"] =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;

    std::printf("per-layer (%zu traced sessions):\n", traced.size());
    for (const LayerMetric& m : layer_metrics()) {
      print_metric(metrics, first, m.name, layer[m.name], m.unit);
    }
  }

  const bool correct = violations.empty();
  for (const auto& v : violations) std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--state-dir") {
      opt.state_dir = v;
    } else {
      std::fprintf(stderr, "hostbench: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  if (opt.workload != "pingpong" && opt.workload != "fanin_predicates" &&
      opt.workload != "job_churn") {
    std::fprintf(stderr,
                 "usage: hostbench --workload pingpong|fanin_predicates|job_churn "
                 "--seed <n> --seconds <s> --trace 0|1 [--state-dir <dir>]\n");
    return 2;
  }
  return run(opt);
}
