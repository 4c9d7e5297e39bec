// Deterministic checkpoint/replay: cost + fidelity numbers for
// BENCH_replay.json, plus the committed shrink artifacts under repros/.
//
// Three claims get measured:
//
//   * Checkpoint cost: the recording text (the generative inputs plus the
//     embedded component-digest cut) is small — bytes per recorded op and
//     per checkpoint component are reported for each session seed.
//
//   * Restore fidelity + latency: rebuilding a world from the recording
//     prefix and re-playing to the cut must verify bit-identical against
//     every recorded component (a hard gate), and the wall-clock cost of
//     that restore is reported next to the cost of re-driving the whole
//     run. Replay-vs-fresh overhead compares re-driving the recorded ops
//     against driving the same session live — the recorded filter log
//     must byte-compare equal to the live one (a hard gate).
//
//   * Shrinking: seeded storms (one unhealed crash buried in 22 benign
//     events) run through FaultShrinker with a full re-execution probe;
//     each must reduce >= 5x to a same-invariant core (a hard gate). The
//     minimal plans are written as committed repro artifacts under
//     repros/.
//
// `--smoke` is the ctest entry; it runs the same seeds and gates.
// BENCH_replay.json holds only deterministic figures, and
// scripts/check_replay.sh requires a fresh one to equal the committed
// file byte for byte.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "control/replay.h"
#include "net/faults.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dpm::bench {
namespace {

using control::replay::FaultShrinker;
using control::replay::Recording;
using control::replay::ReplayHarness;
using control::replay::ShrinkResult;
using net::FaultEvent;
using net::FaultKind;
using net::FaultPlan;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Recording base_recording(std::uint64_t seed) {
  Recording rec;
  rec.seed = seed;
  rec.machines = {"hub", "red", "green"};
  return rec;
}

/// Drives one faulted monitoring session live through a ReplayHarness:
/// a metered pingpong pair, the given fault plan, a checkpoint mid-job,
/// and a trace retrieval. Returns the harness; the filter log is read
/// from hub:t afterwards.
std::unique_ptr<ReplayHarness> drive_live(Recording rec,
                                          const std::string& dsl,
                                          bool with_checkpoint) {
  auto h = std::make_unique<ReplayHarness>(std::move(rec));
  h->command("filter f1 hub");
  h->command("newjob j");
  h->command("addprocess j red pingpong_server 4890 24");
  h->command("addprocess j green pingpong_client red 4890 24 96");
  h->command("setflags j all");
  if (!dsl.empty()) {
    auto plan = FaultPlan::parse(dsl);
    if (plan) h->install_faults(*plan);
  }
  h->send_line("startjob j");
  h->run_for(util::msec(250));
  if (with_checkpoint) h->checkpoint();
  h->run();
  h->command("reconcile");
  h->command("getlog f1 t");
  return h;
}

std::string filter_log(ReplayHarness& h) {
  if (auto* hub = h.world().machine_by_name("hub")) {
    return hub->fs.read_text("t").value_or("");
  }
  return "";
}

/// The session storm: a heal-in-time partition plus a crash/restart
/// pair, anchored at `t0_us`.
std::string session_storm(std::int64_t t0_us) {
  auto at = [&](std::int64_t off) { return std::to_string(t0_us + off) + "us"; };
  return "partition@" + at(80'000) + " red green for=300ms\n"  //
         "crash@" + at(400'000) + " green\n"                   //
         "restart@" + at(3'000'000) + " green\n";
}

// ---- per-seed session measurements ----------------------------------------

struct SessionResult {
  std::uint64_t seed = 0;
  std::size_t ops = 0;
  std::size_t recording_bytes = 0;
  std::size_t checkpoint_components = 0;
  std::size_t checkpoint_bytes = 0;
  double live_s = 0;
  double replay_s = 0;
  double replay_overhead_pct = 0;
  double restore_ms = 0;
  bool bit_identical = false;
  bool cut_verified = false;
};

SessionResult run_session_bench(std::uint64_t seed) {
  SessionResult r;
  r.seed = seed;

  // Live drive (records as it goes). Anchor the storm where the property
  // suite does: right after session setup, which lands near 1.1s.
  auto t0 = std::chrono::steady_clock::now();
  auto live = drive_live(base_recording(seed), session_storm(1'100'000), true);
  r.live_s = seconds_since(t0);
  const std::string live_log = filter_log(*live);

  const Recording& rec = live->recording();
  r.ops = rec.ops.size();
  r.recording_bytes = rec.to_string().size();
  if (rec.cut) {
    r.checkpoint_components = rec.cut->components.size();
    r.checkpoint_bytes = rec.cut->to_string().size();
  }

  // Full replay from the parsed text: byte-identical artifacts.
  auto parsed = Recording::parse(rec.to_string());
  if (!parsed) return r;
  t0 = std::chrono::steady_clock::now();
  ReplayHarness replayed(*parsed);
  replayed.play();
  r.replay_s = seconds_since(t0);
  r.replay_overhead_pct =
      r.live_s > 0 ? (r.replay_s / r.live_s - 1.0) * 100.0 : 0;
  r.bit_identical =
      !live_log.empty() && filter_log(replayed) == live_log &&
      replayed.world().obs_snapshot() == live->world().obs_snapshot();

  // Restore: rebuild the prefix, play to the cut, verify every component.
  Recording prefix = *parsed;
  prefix.ops.resize(prefix.cut_ops);
  t0 = std::chrono::steady_clock::now();
  ReplayHarness fresh(prefix);
  fresh.play();
  const auto diverged = fresh.verify_cut();
  r.restore_ms = seconds_since(t0) * 1000.0;
  r.cut_verified = fresh.divergence().empty() && diverged.empty();
  return r;
}

// ---- seeded storm shrinking -----------------------------------------------

struct ShrinkBench {
  std::uint64_t seed = 0;
  ShrinkResult result;
  double shrink_s = 0;
  bool ok = false;           // >=5x reduction, same invariant, crash kept
  std::string repro;         // artifact path, when written
};

/// One unhealed crash of green buried in 22 benign noise events, jittered
/// from the seed's "workload" stream — the same construction the replay
/// property suite shrinks, so the committed artifacts match the tests.
FaultPlan seeded_storm(std::uint64_t seed) {
  util::Rng noise = util::Rng::named(seed, "workload");
  FaultPlan storm;
  const std::int64_t t0 = 1'200'000;
  for (int i = 0; i < 22; ++i) {
    FaultEvent e;
    e.at = util::TimePoint{} +
           util::usec(t0 + static_cast<std::int64_t>(noise.uniform(0, 300)) *
                               1000);
    switch (noise.uniform(0, 2)) {
      case 0:
        e.kind = FaultKind::latency_spike;
        e.duration =
            util::msec(static_cast<std::int64_t>(noise.uniform(1, 20)));
        e.extra_latency =
            util::usec(static_cast<std::int64_t>(noise.uniform(100, 900)));
        break;
      case 1:
        e.kind = FaultKind::partition;
        e.a = "red";
        e.b = "green";
        e.duration =
            util::msec(static_cast<std::int64_t>(noise.uniform(1, 30)));
        break;
      default:
        e.kind = FaultKind::drop_burst;
        e.duration =
            util::msec(static_cast<std::int64_t>(noise.uniform(1, 10)));
        e.loss = 0.05;
        break;
    }
    storm.events.push_back(e);
  }
  FaultEvent crash;
  crash.at = util::TimePoint{} + util::usec(t0 + 150'000);
  crash.kind = FaultKind::crash;
  crash.a = "green";
  storm.events.insert(
      storm.events.begin() +
          static_cast<std::ptrdiff_t>(noise.uniform(
              0, static_cast<std::int64_t>(storm.events.size()))),
      crash);
  return storm;
}

ShrinkBench run_shrink_bench(std::uint64_t seed, const char* repro_dir) {
  ShrinkBench b;
  b.seed = seed;

  // Base recording with a zero-effect placeholder plan (a spike on a
  // network no traffic rides) so with_faults has an op to edit; candidate
  // plans re-execute it non-strict — what-if semantics, not bit-replay.
  auto base =
      drive_live(base_recording(seed), "spike@1400ms net=7 for=1ms add=1us\n",
                 false);
  const Recording rec = base->recording();

  auto probe = [&](const FaultPlan& candidate) -> std::optional<std::string> {
    ReplayHarness h(rec.with_faults(candidate));
    h.play(static_cast<std::size_t>(-1), /*strict=*/false);
    h.world().run();
    return control::replay::check_strict_invariants(h.world(),
                                                    h.killed_processes());
  };

  const FaultPlan storm = seeded_storm(seed);
  const auto violated = probe(storm);
  if (!violated) return b;

  const auto t0 = std::chrono::steady_clock::now();
  FaultShrinker shrinker(probe);
  b.result = shrinker.shrink(storm, *violated);
  b.shrink_s = seconds_since(t0);

  bool has_crash = false;
  for (const auto& e : b.result.minimal.events) {
    if (e.kind == FaultKind::crash) has_crash = true;
  }
  b.ok = b.result.invariant == *violated &&
         b.result.original_events >= 5 * b.result.minimal_events && has_crash;

  if (repro_dir) {
    std::error_code ec;
    std::filesystem::create_directories(repro_dir, ec);
    const std::string path = util::strprintf(
        "%s/storm_seed%llu.repro", repro_dir,
        static_cast<unsigned long long>(seed));
    if (control::replay::write_chaos_repro(path, seed, storm, *violated,
                                           &b.result)) {
      b.repro = path;
    }
  }
  return b;
}

// ---- BENCH_replay.json ----------------------------------------------------
//
// The file holds only figures a rerun reproduces: sizes, counts and the
// gates' verdicts. Host wall-clock times (live_s, replay_s,
// replay_overhead_pct, restore_ms, shrink_s) are printed, not written.

constexpr const char* kJsonPath = "BENCH_replay.json";

bool write_json(const std::vector<SessionResult>& sessions,
                const std::vector<ShrinkBench>& shrinks) {
  std::ofstream out(kJsonPath, std::ios::trunc);
  if (!out) return false;
  out << "{\n  \"bench\": \"replay\",\n  \"sessions\": [\n";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionResult& s = sessions[i];
    out << util::strprintf(
        "    {\"seed\": %llu, \"ops\": %zu, \"recording_bytes\": %zu,\n"
        "     \"checkpoint_components\": %zu, \"checkpoint_bytes\": %zu,\n"
        "     \"bit_identical\": %s, \"cut_verified\": %s}%s\n",
        static_cast<unsigned long long>(s.seed), s.ops, s.recording_bytes,
        s.checkpoint_components, s.checkpoint_bytes,
        s.bit_identical ? "true" : "false", s.cut_verified ? "true" : "false",
        i + 1 < sessions.size() ? "," : "");
  }
  out << "  ],\n  \"shrinks\": [\n";
  for (std::size_t i = 0; i < shrinks.size(); ++i) {
    const ShrinkBench& b = shrinks[i];
    std::string plan = b.result.minimal.to_string();
    while (!plan.empty() && plan.back() == '\n') plan.pop_back();
    for (std::size_t p = plan.find('\n'); p != std::string::npos;
         p = plan.find('\n', p)) {
      plan.replace(p, 1, "; ");
    }
    out << util::strprintf(
        "    {\"seed\": %llu, \"invariant\": \"%s\", "
        "\"original_events\": %zu,\n"
        "     \"minimal_events\": %zu, \"probes\": %zu, \"lowered\": %s,\n"
        "     \"minimal_plan\": \"%s\"}%s\n",
        static_cast<unsigned long long>(b.seed), b.result.invariant.c_str(),
        b.result.original_events, b.result.minimal_events, b.result.probes,
        b.result.lowered ? "true" : "false", plan.c_str(),
        i + 1 < shrinks.size() ? "," : "");
  }
  out << "  ]\n}\n";
  return out.good();
}

int run(const std::vector<std::uint64_t>& session_seeds,
        const std::vector<std::uint64_t>& shrink_seeds, const char* repro_dir,
        const char* tag) {
  bool ok = true;

  std::vector<SessionResult> sessions;
  for (std::uint64_t seed : session_seeds) {
    sessions.push_back(run_session_bench(seed));
    const SessionResult& s = sessions.back();
    std::printf(
        "bench_replay %s: seed %llu: %zu ops, %zu B recording, "
        "%zu-component cut (%zu B)\n"
        "  live %.3fs, replay %.3fs (%+.1f%%), restore %.2fms, "
        "bit_identical=%s, cut_verified=%s\n",
        tag, static_cast<unsigned long long>(s.seed), s.ops,
        s.recording_bytes, s.checkpoint_components, s.checkpoint_bytes,
        s.live_s, s.replay_s, s.replay_overhead_pct, s.restore_ms,
        s.bit_identical ? "true" : "false", s.cut_verified ? "true" : "false");
    if (!s.bit_identical) {
      std::fprintf(stderr, "bench_replay: seed %llu replay not bit-identical\n",
                   static_cast<unsigned long long>(s.seed));
      ok = false;
    }
    if (!s.cut_verified) {
      std::fprintf(stderr, "bench_replay: seed %llu cut failed to verify\n",
                   static_cast<unsigned long long>(s.seed));
      ok = false;
    }
  }

  std::vector<ShrinkBench> shrinks;
  for (std::uint64_t seed : shrink_seeds) {
    shrinks.push_back(run_shrink_bench(seed, repro_dir));
    const ShrinkBench& b = shrinks.back();
    std::printf(
        "  shrink seed %llu: %zu -> %zu events (%s) in %zu probes, %.2fs%s%s\n",
        static_cast<unsigned long long>(b.seed), b.result.original_events,
        b.result.minimal_events, b.result.invariant.c_str(), b.result.probes,
        b.shrink_s, b.repro.empty() ? "" : ", repro ",
        b.repro.c_str());
    if (!b.ok) {
      std::fprintf(stderr,
                   "bench_replay: seed %llu shrink failed its gates "
                   "(>=5x, same invariant, crash kept)\n",
                   static_cast<unsigned long long>(b.seed));
      ok = false;
    }
  }

  if (!write_json(sessions, shrinks)) {
    std::fprintf(stderr, "bench_replay: cannot write %s\n", kJsonPath);
    return 1;
  }
  std::printf("wrote %s\n", kJsonPath);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dpm::bench

int main(int argc, char** argv) {
  // The whole seed set takes tens of milliseconds, so `--smoke` (the
  // ctest entry) runs all of it too and writes the committed file.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return dpm::bench::run({3, 17, 99}, {21, 77, 1234}, "repros",
                         smoke ? "--smoke" : "full");
}
