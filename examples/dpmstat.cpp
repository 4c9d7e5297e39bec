// dpmstat: inspect monitor-of-the-monitor snapshots (obs/snapshot.h).
//
//   dpmstat print <snapshot.jsonl>        pretty-print one snapshot
//   dpmstat diff <a.jsonl> <b.jsonl>      what changed between two snapshots
//   dpmstat json <snapshot.jsonl>         re-emit as a JSON array
//   dpmstat --smoke [out.jsonl]           run a scripted session, snapshot it,
//                                         validate the schema, print + diff
//   dpmstat --watch <interval_ms> [--frames N] [--smoke]
//                                         periodic refresh: drive a live
//                                         session in frames, printing each
//                                         snapshot's headline and the diff
//                                         from the previous frame
//
// The --smoke mode doubles as the ctest schema check: it drives a small
// metered session, captures world.obs_snapshot() twice, validates both
// against the JSONL schema, and requires instruments from the kernel,
// net, filter, daemon, control, and sim subsystems to be present.
// --watch --smoke is its periodic sibling: every frame's snapshot must
// validate and snapshot sequence numbers must strictly increase.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <vector>

#include "apps/apps.h"
#include "control/session.h"
#include "kernel/world.h"
#include "obs/snapshot.h"
#include "util/strings.h"
#include "util/time.h"

namespace {

using namespace dpm;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "dpmstat: cannot open " << path << "\n";
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

obs::Snapshot parse_or_die(const std::string& text, const std::string& what) {
  std::string err;
  auto snap = obs::parse_snapshot(text, &err);
  if (!snap) {
    std::cerr << "dpmstat: " << what << ": " << err << "\n";
    std::exit(1);
  }
  return std::move(*snap);
}

void pretty_print(const obs::Snapshot& snap) {
  std::cout << util::strprintf(
      "snapshot seq=%llu t=%lldus (%zu counters, %zu gauges, %zu histograms, "
      "%zu span events)\n",
      static_cast<unsigned long long>(snap.seq),
      static_cast<long long>(snap.t_us), snap.counters.size(),
      snap.gauges.size(), snap.histograms.size(), snap.spans.size());
  std::cout << "subsystems:";
  for (const auto& s : snap.subsystems()) std::cout << " " << s;
  std::cout << "\n\ncounters:\n";
  for (const auto& [key, v] : snap.counters) {
    std::cout << util::strprintf("  %-40s %llu\n", key.c_str(),
                                 static_cast<unsigned long long>(v));
  }
  std::cout << "\ngauges (value / high-water):\n";
  for (const auto& [key, g] : snap.gauges) {
    std::cout << util::strprintf("  %-40s %lld / %lld\n", key.c_str(),
                                 static_cast<long long>(g.value),
                                 static_cast<long long>(g.high_water));
  }
  std::cout << "\nhistograms (count, p50/p90/p99, max):\n";
  for (const auto& [key, h] : snap.histograms) {
    std::cout << util::strprintf(
        "  %-40s n=%llu p50=%lld p90=%lld p99=%lld max=%lld\n", key.c_str(),
        static_cast<unsigned long long>(h.count),
        static_cast<long long>(h.p50), static_cast<long long>(h.p90),
        static_cast<long long>(h.p99), static_cast<long long>(h.max));
  }
  if (!snap.spans.empty()) {
    std::cout << "\nrecent spans:\n";
    for (const auto& ev : snap.spans) {
      std::cout << util::strprintf(
          "  [%6lld us] %s span=%llu%s%s\n", static_cast<long long>(ev.t_us),
          ev.begin ? "begin" : "end  ",
          static_cast<unsigned long long>(ev.id),
          ev.name.empty() ? "" : (" " + ev.name).c_str(),
          ev.parent != 0
              ? util::strprintf(" (parent=%llu)",
                                static_cast<unsigned long long>(ev.parent))
                    .c_str()
              : "");
    }
  }
}

/// A scripted two-machine metered session; returns its world snapshots
/// taken mid-run and at the end.
int run_smoke(const std::string& out_path) {
  kernel::World world;
  world.add_machine("red");
  world.add_machine("green");
  for (int i = 1; i <= 3; ++i) world.add_machine("g" + std::to_string(i));
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);

  control::MonitorSession session(world, {.host = "red", .uid = 100});
  world.run();
  (void)session.drain_output();

  // A small fan-in tree (3 leaves at arity 2 gives two aggregators), so
  // the shard.*, localfilter.*, aggregator.*, and fanin.* instruments all
  // appear in the snapshot.
  (void)session.command("filter f1 red");
  (void)session.command("fanin f1 2 g 1 3");
  (void)session.command("newjob smoke");
  (void)session.command("addprocess smoke g1 pingpong_server 4700 3");
  (void)session.command("addprocess smoke g2 pingpong_client g1 4700 3 64");
  (void)session.command("setflags smoke all");
  const std::string mid = world.obs_snapshot();

  (void)session.command("startjob smoke");
  (void)session.command("removejob smoke");
  session.send_line("bye");
  world.run();
  const std::string final_snap = world.obs_snapshot();

  for (const auto* s : {&mid, &final_snap}) {
    const std::string err = obs::validate_snapshot(*s);
    if (!err.empty()) {
      std::cerr << "dpmstat --smoke: invalid snapshot: " << err << "\n";
      return 1;
    }
  }

  const obs::Snapshot a = parse_or_die(mid, "mid snapshot");
  const obs::Snapshot b = parse_or_die(final_snap, "final snapshot");

  // The whole monitor must be visible: one registry, every layer.
  const std::vector<std::string> want = {
      "aggregator", "control", "daemon", "fanin", "filter",
      "kernel",     "localfilter", "net", "shard", "sim"};
  const auto have = b.subsystems();
  for (const auto& w : want) {
    if (std::find(have.begin(), have.end(), w) == have.end()) {
      std::cerr << "dpmstat --smoke: subsystem '" << w
                << "' missing from snapshot\n";
      return 1;
    }
  }

  // The transport queue-depth gauges must surface with their high-water
  // marks: a queue that spiked and drained mid-run shows up here (and in
  // the diff below) even when its current value is back to zero.
  for (const char* key : {"kernel.meter_pending_bytes", "fanin.queue_bytes"}) {
    const auto it = b.gauges.find(key);
    if (it == b.gauges.end()) {
      std::cerr << "dpmstat --smoke: gauge '" << key << "' missing\n";
      return 1;
    }
    if (it->second.high_water <= 0) {
      std::cerr << "dpmstat --smoke: gauge '" << key
                << "' never rose above zero\n";
      return 1;
    }
  }

  std::ofstream out(out_path, std::ios::binary);
  out << final_snap;
  out.close();
  std::cout << "wrote " << out_path << "\n\n";

  pretty_print(b);
  std::cout << "\n" << obs::diff_snapshots(a, b);
  return 0;
}

/// Drives a live metered session in fixed frames, snapshotting between
/// them — the "top for the monitor itself" loop.
int run_watch(std::int64_t interval_ms, int frames, bool smoke) {
  if (interval_ms <= 0 || frames < 2) {
    std::cerr << "dpmstat --watch: interval must be > 0 and frames >= 2\n";
    return 2;
  }
  kernel::World world;
  world.add_machine("red");
  world.add_machine("green");
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);

  control::MonitorSession session(world, {.host = "red", .uid = 100});
  world.run();
  (void)session.drain_output();

  (void)session.command("filter f1 red");
  (void)session.command("newjob watch");
  (void)session.command("addprocess watch green pingpong_server 4950 24");
  (void)session.command(
      "addprocess watch red pingpong_client green 4950 24 128");
  (void)session.command("setflags watch all");
  session.send_line("startjob watch");

  std::optional<obs::Snapshot> prev;
  std::uint64_t last_seq = 0;
  int valid = 0;
  for (int f = 0; f < frames; ++f) {
    world.run_for(util::msec(interval_ms));
    const std::string text = world.obs_snapshot();
    const std::string err = obs::validate_snapshot(text);
    if (!err.empty()) {
      std::cerr << "dpmstat --watch: invalid snapshot at frame " << f << ": "
                << err << "\n";
      return 1;
    }
    obs::Snapshot snap = parse_or_die(text, "watch snapshot");
    if (valid > 0 && snap.seq <= last_seq) {
      std::cerr << "dpmstat --watch: snapshot seq did not advance (frame "
                << f << ")\n";
      return 1;
    }
    std::cout << util::strprintf(
        "-- frame %-3d seq=%llu t=%lld us (%zu counters, %zu gauges, %zu "
        "histograms)\n",
        f, static_cast<unsigned long long>(snap.seq),
        static_cast<long long>(snap.t_us), snap.counters.size(),
        snap.gauges.size(), snap.histograms.size());
    if (prev) std::cout << obs::diff_snapshots(*prev, snap);
    last_seq = snap.seq;
    ++valid;
    prev = std::move(snap);
  }

  session.send_line("bye");
  world.run();

  if (smoke) {
    if (valid < 2) {
      std::cerr << "dpmstat --watch --smoke: fewer than 2 valid snapshots\n";
      return 1;
    }
    std::cout << "dpmstat --watch --smoke: OK (" << valid
              << " schema-valid snapshots, seq strictly increasing)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: dpmstat print <snapshot.jsonl>\n"
                 "       dpmstat diff <a.jsonl> <b.jsonl>\n"
                 "       dpmstat json <snapshot.jsonl>\n"
                 "       dpmstat --smoke [out.jsonl]\n"
                 "       dpmstat --watch <interval_ms> [--frames N] "
                 "[--smoke]\n";
    return 2;
  }

  if (args[0] == "--smoke") {
    return run_smoke(args.size() > 1 ? args[1] : "DPMSTAT_smoke.jsonl");
  }
  if (args[0] == "--watch" && args.size() >= 2) {
    const auto interval = util::parse_int(args[1]);
    if (!interval) {
      std::cerr << "dpmstat --watch: bad interval '" << args[1] << "'\n";
      return 2;
    }
    int frames = 5;
    bool smoke = false;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--frames" && i + 1 < args.size()) {
        const auto n = util::parse_int(args[++i]);
        if (!n) {
          std::cerr << "dpmstat --watch: bad frame count\n";
          return 2;
        }
        frames = static_cast<int>(*n);
      } else if (args[i] == "--smoke") {
        smoke = true;
      } else {
        std::cerr << "dpmstat --watch: unknown argument '" << args[i]
                  << "'\n";
        return 2;
      }
    }
    return run_watch(*interval, frames, smoke);
  }
  if (args[0] == "print" && args.size() == 2) {
    const std::string text = read_file(args[1]);
    const std::string err = obs::validate_snapshot(text);
    if (!err.empty()) {
      std::cerr << "dpmstat: invalid snapshot: " << err << "\n";
      return 1;
    }
    pretty_print(parse_or_die(text, args[1]));
    return 0;
  }
  if (args[0] == "diff" && args.size() == 3) {
    const obs::Snapshot a = parse_or_die(read_file(args[1]), args[1]);
    const obs::Snapshot b = parse_or_die(read_file(args[2]), args[2]);
    std::cout << obs::diff_snapshots(a, b);
    return 0;
  }
  if (args[0] == "json" && args.size() == 2) {
    std::cout << obs::jsonl_to_json_array(read_file(args[1])) << "\n";
    return 0;
  }
  std::cerr << "dpmstat: bad arguments (run with no arguments for usage)\n";
  return 2;
}
