// dpmtop: a live "top" for a metered distributed computation.
//
// The paper's analyses run only after the computation ends (§4); dpmtop
// shows what the streaming layer (analysis/live/) makes possible while it
// runs. A LiveRecordSink is installed on the world before the filter
// starts, so every record the filter accepts is pushed into a
// LiveAnalysis with no log round-trip; the simulation is then driven in
// fixed frames and each frame renders:
//
//   * per-process event/byte rates over a rolling window, with liveness;
//   * per-channel message rates and latencies;
//   * the critical path through the happens-before DAG so far, with its
//     time attributed per process and per channel;
//   * online predicate verdicts (analysis/predicates/): the session adds
//     global predicates through the controller's `predicate` command and
//     the panel shows possibly/definitely counts and recent witness cuts.
//
//   dpmtop [--frames N] [--frame-ms MS] [--no-clear]
//   dpmtop --smoke        few frames, no screen clearing, hard checks
//                         (used as the ctest smoke test)
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/live/aggregator.h"
#include "analysis/predicates/service.h"
#include "apps/apps.h"
#include "control/session.h"
#include "filter/filter_program.h"
#include "kernel/world.h"
#include "obs/provenance.h"
#include "obs/registry.h"
#include "util/strings.h"
#include "util/time.h"

namespace {

using namespace dpm;

void render_predicates(analysis::pred::PredicateDetector& det) {
  using analysis::pred::PredicateDetector;
  const auto st = det.status();
  if (st.empty()) return;
  std::cout << util::strprintf("\npredicates (eps=%lld us):\n",
                               static_cast<long long>(det.config().epsilon_us));
  std::cout << "  name         insts  possibly  definitely  strongest\n";
  static const char* kStrength[] = {"never", "possibly", "definitely"};
  for (const auto& p : st) {
    std::cout << util::strprintf(
        "  %-12s %5zu  %8llu  %10llu  %s\n", p.name.c_str(), p.instantiations,
        static_cast<unsigned long long>(p.possibly_count),
        static_cast<unsigned long long>(p.definitely_count),
        kStrength[p.strongest]);
  }
  const auto& vs = det.verdicts();
  const std::size_t show = std::min<std::size_t>(vs.size(), 4);
  for (std::size_t i = vs.size() - show; i < vs.size(); ++i) {
    const auto& v = vs[i];
    std::cout << util::strprintf(
        "  %s %s #%llu cut=[%lld,%lld]us lag=%lldus\n",
        v.kind == PredicateDetector::VerdictKind::definitely ? "definitely"
                                                             : "possibly  ",
        v.predicate.c_str(), static_cast<unsigned long long>(v.occurrence),
        static_cast<long long>(v.cut_lo_us), static_cast<long long>(v.cut_hi_us),
        static_cast<long long>(v.detect_lag_us));
  }
}

/// The pipeline panel: per-stage latency quantiles from the sampled
/// record-provenance histograms (obs/provenance.h), beside the transport
/// queue-depth gauges — where records *are* next to how long each stage
/// keeps them.
void render_pipeline(kernel::World& world) {
  const auto& hists = world.obs().histograms();
  bool any = false;
  for (const obs::ProvenanceStage& s : obs::provenance_stages()) {
    const auto it = hists.find(s.key);
    if (it == hists.end() || it->second.count() == 0) continue;
    if (!any) {
      std::cout << "\npipeline (sampled provenance, us):\n";
      std::cout << "  stage                                    count      p50 "
                   "     p95      p99\n";
      any = true;
    }
    const obs::Histogram& h = it->second;
    const obs::Percentiles p =
        obs::log2_percentiles(h.buckets(), obs::Histogram::kBuckets, h.max());
    std::cout << util::strprintf(
        "  %-24s %-15s %5llu %8lld %8lld %8lld\n", s.key, s.label,
        static_cast<unsigned long long>(h.count()),
        static_cast<long long>(p.p50), static_cast<long long>(p.p95),
        static_cast<long long>(p.p99));
  }
  const auto& gauges = world.obs().gauges();
  for (const char* key : {"kernel.meter_pending_bytes", "fanin.queue_bytes"}) {
    const auto it = gauges.find(key);
    if (it == gauges.end()) continue;
    if (!any) {
      std::cout << "\npipeline (sampled provenance, us):\n";
      any = true;
    }
    std::cout << util::strprintf(
        "  queue %-26s now=%-8lld high-water=%lld\n", key,
        static_cast<long long>(it->second.value()),
        static_cast<long long>(it->second.high_water()));
  }
}

void render_frame(kernel::World& world, analysis::live::LiveAnalysis& live,
                  analysis::pred::PredicateDetector& det, int frame,
                  bool clear) {
  if (clear) std::cout << "\x1b[2J\x1b[H";
  const auto st = live.stats();
  std::cout << util::strprintf(
      "dpmtop  frame %-3d  sim t=%lld us\n"
      "events=%zu pairs=%zu cross=%zu parked=%zu max_lamport=%llu%s%s\n\n",
      frame, static_cast<long long>(util::count_us(world.now())), st.events,
      st.message_pairs, st.cross_machine_pairs, st.parked,
      static_cast<unsigned long long>(st.max_lamport),
      st.had_cycle ? "  CYCLE" : "", st.pairing_disorder ? "  DISORDER" : "");

  std::cout << "processes (rates over the rolling window):\n";
  std::cout << "  proc            ev/s      B/s   sends   recvs  state\n";
  for (const auto& p : live.process_rates()) {
    std::cout << util::strprintf(
        "  %-12s %8.1f %8.1f %7llu %7llu  %s\n",
        analysis::proc_key_text(p.proc).c_str(), p.events_per_s, p.bytes_per_s,
        static_cast<unsigned long long>(p.total_sends),
        static_cast<unsigned long long>(p.total_recvs),
        p.terminated ? "done" : "live");
  }

  std::cout << "\nchannels:\n";
  std::cout << "  from -> to                 msg/s   avg lat us  last\n";
  for (const auto& c : live.channel_rates()) {
    std::cout << util::strprintf(
        "  %-24s %8.1f   %10.1f %5lld\n",
        (analysis::proc_key_text(c.from) + " -> " +
         analysis::proc_key_text(c.to))
            .c_str(),
        c.msgs_per_s, c.avg_latency_us,
        static_cast<long long>(c.last_latency_us));
  }

  const auto cp = live.critical_path();
  std::cout << util::strprintf("\ncritical path: %lld us over %zu steps\n",
                               static_cast<long long>(cp.total_us),
                               cp.steps.size());
  for (const auto& [proc, us] : cp.proc_us) {
    std::cout << util::strprintf("  compute %-12s %8lld us\n",
                                 analysis::proc_key_text(proc).c_str(),
                                 static_cast<long long>(us));
  }
  for (const auto& [chan, us] : cp.channel_us) {
    std::cout << util::strprintf(
        "  channel %-24s %8lld us\n",
        (analysis::proc_key_text(chan.first) + " -> " +
         analysis::proc_key_text(chan.second))
            .c_str(),
        static_cast<long long>(us));
  }
  render_pipeline(world);
  render_predicates(det);
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  bool smoke = false;
  bool clear = true;
  int frames = 25;
  std::int64_t frame_ms = 200;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--smoke") {
      smoke = true;
      clear = false;
      frames = 12;
    } else if (args[i] == "--no-clear") {
      clear = false;
    } else if (args[i] == "--frames" && i + 1 < args.size()) {
      frames = static_cast<int>(*util::parse_int(args[++i]));
    } else if (args[i] == "--frame-ms" && i + 1 < args.size()) {
      frame_ms = *util::parse_int(args[++i]);
    } else {
      std::cerr << "usage: dpmtop [--frames N] [--frame-ms MS] [--no-clear] "
                   "[--smoke]\n";
      return 2;
    }
  }

  kernel::World world;
  world.add_machine("alpha");
  world.add_machine("beta");
  world.add_machine("gamma");
  control::install_monitor(world);
  apps::install_everywhere(world);
  control::spawn_meterdaemons(world);

  // The live tap: installed before the filter starts, so the filter picks
  // it up when it is spawned. The predicate bundle wraps a LiveAnalysis
  // with an online detector; ε comes from the world's clock model, padded
  // for drift accumulated over the run.
  auto bundle = analysis::pred::install_live_predicates(
      world, analysis::pred::standard_descriptions(),
      analysis::live::LiveConfig{.window_us = 500'000},
      analysis::pred::DetectorConfig{
          .epsilon_us = world.clock_skew_bound_us() + 5'000});
  analysis::live::LiveAnalysis& live = bundle->live;
  analysis::pred::PredicateDetector& det = bundle->detector;

  control::MonitorSession session(world, {.host = "alpha", .uid = 100});
  world.run();
  (void)session.drain_output();

  // Global predicates, added the way a user would: through the
  // controller's `predicate` command. Meter records carry the compact
  // 0-based machine index (creation order: alpha=0, beta=1, gamma=2).
  (void)session.command("predicate add xfer: @0:* type=send & @1:* type=send");
  (void)session.command(
      "predicate add flow: @0:* type=send & @2:* type=recv"
      " & reach @0:* -> @2:*");

  // A three-stage pipeline across the three machines (§4.3-style job).
  (void)session.command("filter f1 alpha");
  (void)session.command("newjob pipe");
  (void)session.command("addprocess pipe gamma pipe_sink 6100");
  (void)session.command("addprocess pipe beta pipe_stage 6000 gamma 6100 1500");
  (void)session.command("addprocess pipe alpha pipe_source beta 6000 48 512");
  (void)session.command("setflags pipe all");

  // Start the job but do NOT run to quiescence: drive the world in frames
  // and render the live view between them.
  session.send_line("startjob pipe");
  for (int f = 0; f < frames; ++f) {
    world.run_for(util::msec(frame_ms));
    render_frame(world, live, det, f, clear);
  }

  (void)session.command("predicate list");
  (void)session.command("removejob pipe");
  session.send_line("bye");
  world.run();
  det.finish();  // settle everything buffered before the final panel
  render_frame(world, live, det, frames, clear);

  if (smoke) {
    const auto st = live.stats();
    const auto cp = live.critical_path();
    const auto ds = det.stats();
    auto fail = [](const std::string& what) {
      std::cerr << "dpmtop --smoke: " << what << "\n";
      return 1;
    };
    if (st.events == 0) return fail("no events reached the live sink");
    if (st.message_pairs == 0) return fail("no message pairs formed");
    if (st.cross_machine_pairs == 0) return fail("no cross-machine pairs");
    if (st.had_cycle) return fail("happens-before cycle");
    if (st.pairing_disorder) return fail("pairing disorder");
    if (live.process_rates().size() < 3) return fail("fewer than 3 processes");
    if (!cp.valid || cp.total_us <= 0) return fail("no critical path");
    if (cp.channel_us.empty()) return fail("no channel time on critical path");
    if (ds.events != st.events) return fail("detector missed live events");
    if (ds.predicates != 2) return fail("predicate commands did not register");
    if (ds.verdicts_possibly == 0) return fail("no possibly verdict");
    if (ds.verdicts_definitely > ds.verdicts_possibly) {
      return fail("definitely verdicts exceed possibly verdicts");
    }
    // The pipeline panel: sampled records must have traced end to end —
    // through the transport stage and all the way to a verdict-settled
    // freshness figure (the bundle sets FinalStage::verdict).
    const auto& hists = world.obs().histograms();
    const auto stage_count = [&](const char* key) -> std::uint64_t {
      const auto it = hists.find(key);
      return it == hists.end() ? 0 : it->second.count();
    };
    if (stage_count("stage.emit_to_ring_us") == 0) {
      return fail("no records sampled into the provenance pipeline");
    }
    if (stage_count("e2e.freshness_us") == 0) {
      return fail("no sampled record completed emit->verdict");
    }
    std::cout << "\ndpmtop --smoke: OK\n";
  }
  return 0;
}
