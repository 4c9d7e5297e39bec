// Randomized invariants of online predicate detection, on the same
// multi-connection workloads the live-equivalence property uses:
//
//   * determinism — the same trace fed twice produces the identical
//     verdict sequence (kind, occurrence, cut, witness indices);
//   * chunking invariance — per-event feeding and TraceTailer feeding at
//     random chunk sizes produce the identical verdict sequence;
//   * definitely ⊆ possibly — every definite verdict upgrades a possibly
//     verdict that was already emitted for the same witness occurrence.
//
// Rides its own target so the `predicates` label can gate it:
// scripts/check_predicates.sh replays these seeds with `ctest -L
// predicates` next to the bench smoke.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/analysis_testing.h"
#include "analysis/live/aggregator.h"
#include "analysis/predicates/detector.h"
#include "util/rng.h"

namespace dpm::analysis::pred {
namespace {

using dpm::analysis_testing::Stamp;
using meter::MeterAccept;
using meter::MeterConnect;
using meter::MeterRecv;
using meter::MeterSend;
using meter::MeterTermProc;

const filter::Descriptions& desc() {
  static const filter::Descriptions d =
      *filter::Descriptions::parse(filter::default_descriptions_text());
  return d;
}

/// The live-equivalence property's workload shape: random machine pairs,
/// per-connection message counts, per-machine clock offsets, and a random
/// per-process-ordered interleaving into the log.
std::vector<std::pair<Stamp, meter::MeterBody>> random_workload(
    util::Rng& rng, int nconns) {
  std::vector<std::vector<std::pair<Stamp, meter::MeterBody>>> streams;
  std::int64_t offsets[8];
  for (auto& o : offsets) o = rng.uniform(-50000, 50000);

  for (int c = 0; c < nconns; ++c) {
    const auto ma = static_cast<std::uint16_t>(rng.uniform(0, 7));
    const auto mb = static_cast<std::uint16_t>(rng.uniform(0, 7));
    const std::int32_t pa = 100 + 2 * c, pb = 101 + 2 * c;
    const auto sa = static_cast<std::uint64_t>(10 + 2 * c);
    const auto sb = static_cast<std::uint64_t>(11 + 2 * c);
    const std::string na = "n" + std::to_string(2 * c);
    const std::string nb = "n" + std::to_string(2 * c + 1);

    std::vector<std::pair<Stamp, meter::MeterBody>> a_events, b_events;
    std::int64_t t = rng.uniform(0, 5000);
    a_events.push_back(
        {Stamp{ma, t + offsets[ma], 0}, MeterConnect{pa, 0, sa, na, nb}});
    b_events.push_back({Stamp{mb, t + 200 + offsets[mb], 0},
                        MeterAccept{pb, 0, 20, sb, nb, na}});
    const int msgs = static_cast<int>(rng.uniform(1, 12));
    for (int i = 0; i < msgs; ++i) {
      t += rng.uniform(100, 2000);
      a_events.push_back(
          {Stamp{ma, t + offsets[ma], 0}, MeterSend{pa, 0, sa, 32, ""}});
      b_events.push_back({Stamp{mb, t + rng.uniform(200, 900) + offsets[mb], 0},
                          MeterRecv{pb, 0, sb, 32, ""}});
    }
    a_events.push_back(
        {Stamp{ma, t + 3000 + offsets[ma], 0}, MeterTermProc{pa, 0, 0}});
    b_events.push_back(
        {Stamp{mb, t + 3200 + offsets[mb], 0}, MeterTermProc{pb, 0, 0}});
    streams.push_back(std::move(a_events));
    streams.push_back(std::move(b_events));
  }

  std::vector<std::pair<Stamp, meter::MeterBody>> out;
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (;;) {
    std::vector<std::size_t> ready;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] < streams[s].size()) ready.push_back(s);
    }
    if (ready.empty()) break;
    const std::size_t pick = ready[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(ready.size()) - 1))];
    out.push_back(streams[pick][cursor[pick]++]);
  }
  return out;
}

/// Wildcard specs so instantiations grow with whatever processes the
/// random workload produced; send/recv states flip constantly, which is
/// the stress the interval queues need.
const char* kSpecs[] = {
    "xfer: @* type=send & @* type=recv",
    "busy: @* type=send",
};

std::string verdict_text(const PredicateDetector::Verdict& v) {
  std::string s = v.predicate;
  s += v.kind == PredicateDetector::VerdictKind::definitely ? "|D|" : "|P|";
  s += std::to_string(v.occurrence);
  s += "|" + std::to_string(v.cut_lo_us) + ".." + std::to_string(v.cut_hi_us);
  for (const auto& w : v.witness) {
    s += "|" + proc_key_text(w.proc) + "@" + std::to_string(w.lo_index) +
         "-" + std::to_string(w.hi_index);
  }
  return s;
}

/// Runs a fresh detector over `text` (per-event when chunk==0, else via a
/// TraceTailer at that chunk size) and serializes every verdict.
std::vector<std::string> run_once(const std::string& text, std::int64_t eps,
                                  std::size_t chunk,
                                  PredicateDetector::Stats* stats = nullptr) {
  live::LiveAnalysis live;
  PredicateDetector det(desc(), DetectorConfig{.epsilon_us = eps});
  live.add_observer(&det);
  std::string err;
  for (const char* spec : kSpecs) {
    EXPECT_TRUE(det.add_predicate(spec, &err)) << err;
  }
  if (chunk == 0) {
    const Trace tr = read_trace(text);
    for (const Event& e : tr.events) live.add_event(e, tr.names);
  } else {
    live::TraceTailer tailer(live);
    for (std::size_t at = 0; at < text.size(); at += chunk) {
      tailer.feed(std::string_view(text).substr(at, chunk));
    }
    tailer.finish();
  }
  det.finish();
  if (stats != nullptr) *stats = det.stats();
  std::vector<std::string> out;
  for (const auto& v : det.take_verdicts()) out.push_back(verdict_text(v));
  return out;
}

class PredicateProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(PredicateProperty, VerdictsDeterministicAndChunkingInvariant) {
  util::Rng rng(GetParam() * 6271);
  const auto events =
      random_workload(rng, static_cast<int>(rng.uniform(2, 8)));
  const std::string text = dpm::analysis_testing::trace_text(events);
  const auto eps = rng.uniform(100, 20000);

  PredicateDetector::Stats st;
  const auto baseline = run_once(text, eps, /*chunk=*/0, &st);
  EXPECT_GT(st.verdicts_possibly, 0u) << "workload produced no verdicts";

  // Same trace, same feeding → same verdicts.
  EXPECT_EQ(run_once(text, eps, /*chunk=*/0), baseline);

  // Same trace in arbitrary chunkings (including byte-at-a-time and
  // bigger-than-trace) → same verdicts.
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7},
        static_cast<std::size_t>(rng.uniform(2, 512)),
        text.size() + 1}) {
    EXPECT_EQ(run_once(text, eps, chunk), baseline) << "chunk=" << chunk;
  }
}

TEST_P(PredicateProperty, DefinitelyIsSubsetOfPossibly) {
  util::Rng rng(GetParam() * 15121);
  const auto events =
      random_workload(rng, static_cast<int>(rng.uniform(2, 8)));
  const std::string text = dpm::analysis_testing::trace_text(events);

  live::LiveAnalysis live;
  PredicateDetector det(
      desc(),
      DetectorConfig{.epsilon_us = rng.uniform(100, 20000)});
  live.add_observer(&det);
  std::string err;
  for (const char* spec : kSpecs) {
    ASSERT_TRUE(det.add_predicate(spec, &err)) << err;
  }
  const Trace tr = read_trace(text);
  for (const Event& e : tr.events) live.add_event(e, tr.names);
  det.finish();

  // Every definite verdict must upgrade an earlier possibly verdict with
  // the same (predicate, occurrence) — never appear out of thin air.
  std::map<std::pair<std::string, std::uint64_t>, int> possibly_seen;
  for (const auto& v : det.verdicts()) {
    const auto key = std::make_pair(v.predicate, v.occurrence);
    if (v.kind == PredicateDetector::VerdictKind::possibly) {
      ++possibly_seen[key];
    } else {
      ASSERT_EQ(possibly_seen.count(key), 1u)
          << "definitely without a prior possibly: " << verdict_text(v);
    }
  }
  const auto st = det.stats();
  EXPECT_LE(st.verdicts_definitely, st.verdicts_possibly);
}

}  // namespace
}  // namespace dpm::analysis::pred
