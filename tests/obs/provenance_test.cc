// Record-lifecycle provenance tracker: deterministic sampling, the
// (edge, index) conservation identity through batch delivery, filter
// decision, fan-in re-keying, live binding and verdict settle, the bounded
// tables, and the Chrome trace_event flow export.
#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/registry.h"

namespace dpm::obs {
namespace {

ProvenanceTracker::Config cfg(std::uint32_t period,
                              std::size_t max_inflight = 4096) {
  ProvenanceTracker::Config c;
  c.sample_period = period;
  c.seed = 1;
  c.max_inflight = max_inflight;
  return c;
}

/// Delivers a one-record batch emitted and flushed at `t_us`.
void deliver_one(ProvenanceTracker& t, std::uint64_t edge, std::int64_t t_us) {
  t.on_batch_deliver(edge, {t_us}, /*flush_us=*/t_us, /*now_us=*/t_us);
}

TEST(ProvenanceSamplerTest, OneInNPerEdgeAndDeterministic) {
  Registry ra, rb;
  ProvenanceTracker a(cfg(8), &ra);
  ProvenanceTracker b(cfg(8), &rb);
  for (std::uint64_t edge : {5ULL, 6ULL, 77ULL}) {
    int hits = 0;
    for (std::uint64_t i = 0; i < 80; ++i) {
      const bool s = a.sampled(edge, i);
      EXPECT_EQ(s, b.sampled(edge, i)) << edge << "," << i;  // same seed
      EXPECT_EQ(s, a.sampled(edge, i)) << "re-query";        // pure
      hits += s;
    }
    EXPECT_EQ(hits, 10) << "edge " << edge;  // exactly 1-in-8
  }
  // Different seeds phase edges differently (not for every edge, but for
  // some edge in a small set — the phases are splitmix64-mixed).
  Registry rc;
  ProvenanceTracker::Config other = cfg(8);
  other.seed = 99;
  ProvenanceTracker c(other, &rc);
  bool any_diff = false;
  for (std::uint64_t edge = 1; edge < 32 && !any_diff; ++edge) {
    any_diff = a.sampled(edge, 0) != c.sampled(edge, 0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ProvenanceTest, BatchToVerdictLifecycleStampsEveryStage) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);  // sample everything
  t.set_final_stage(ProvenanceTracker::FinalStage::verdict);

  // Emitted at 100, flushed at 120, delivered at 130.
  t.on_batch_deliver(7, {100}, /*flush_us=*/120, /*now_us=*/130);
  ASSERT_TRUE(t.tracked(7, 0));
  t.on_filter(7, 0, /*accepted=*/true, /*final_filter=*/true,
              /*machine=*/1, /*pid=*/42, /*type=*/3, /*cpu_time=*/999, 150);
  t.on_live_event(/*live_index=*/11, 1, 42, 3, 999, /*is_recv=*/false, 200);
  t.on_verdict_settle(11, 260);

  ASSERT_EQ(t.journeys().size(), 1u);
  const auto& j = t.journeys().front();
  EXPECT_TRUE(j.accepted);
  EXPECT_EQ(j.edge, 7u);
  EXPECT_EQ(j.emit_us, 100);
  EXPECT_EQ(j.enqueue_us, 120);  // the flush is the enqueue
  EXPECT_EQ(j.filter_us, 150);
  EXPECT_EQ(j.accept_us, 150);
  EXPECT_EQ(j.live_us, 200);
  EXPECT_EQ(j.verdict_us, 260);
  EXPECT_EQ(j.pid, 42);

  EXPECT_EQ(reg.histogram("stage.emit_to_ring_us").sum(), 20);
  EXPECT_EQ(reg.histogram("stage.ring_to_filter_us").sum(), 30);
  EXPECT_EQ(reg.histogram("stage.settle_us").sum(), 50);
  EXPECT_EQ(reg.histogram("stage.verdict_us").sum(), 60);
  EXPECT_EQ(reg.histogram("e2e.freshness_us").sum(), 160);
  EXPECT_EQ(reg.counter("prov.sampled").value(), 1u);
  EXPECT_EQ(reg.counter("prov.completed").value(), 1u);
  EXPECT_EQ(reg.gauge("prov.inflight").value(), 0);
}

TEST(ProvenanceTest, RejectedRecordFinishesAtTheFilter) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);
  deliver_one(t, 7, 100);
  t.on_filter(7, 0, /*accepted=*/false, /*final_filter=*/true, 1, 42, 3, 0,
              150);
  EXPECT_EQ(reg.counter("prov.rejected").value(), 1u);
  ASSERT_EQ(t.journeys().size(), 1u);
  EXPECT_FALSE(t.journeys().front().accepted);
  EXPECT_EQ(t.journeys().front().accept_us, -1);
  EXPECT_EQ(t.inflight(), 0u);
}

TEST(ProvenanceTest, FaninDeliverRekeysToOutEdgeIndices) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);

  // Tier 0: two records pushed on edge 7; the staging filter accepts both
  // into a forward batch (positions 0 and 1).
  deliver_one(t, 7, 100);
  deliver_one(t, 7, 110);
  t.on_filter(7, 0, true, /*final_filter=*/false, 1, 42, 3, 0, 150);
  t.on_filter(7, 1, true, /*final_filter=*/false, 1, 43, 3, 0, 151);
  const std::vector<ProvenanceTracker::ForwardSample> samples{{0, 7, 0},
                                                              {1, 7, 1}};

  // The batch lands on edge 9 whose stream already carried 3 records
  // (an earlier batch with no samples aboard still consumes indices).
  t.on_fanin_deliver(9, 3, {}, 200);
  t.on_fanin_deliver(9, 2, samples, 300);

  // Old keys are gone, new keys follow the out-edge's record stream.
  EXPECT_FALSE(t.tracked(7, 0));
  EXPECT_FALSE(t.tracked(7, 1));
  EXPECT_TRUE(t.tracked(9, 3));
  EXPECT_TRUE(t.tracked(9, 4));
  // Hop latency: staged at 150/151, delivered at 300.
  EXPECT_EQ(reg.histogram("stage.fanin_hop_us").count(), 2u);
  EXPECT_EQ(reg.histogram("stage.fanin_hop_us").sum(), 150 + 149);

  // The downstream (final) filter finds them under the new identity and
  // the journey records the hop.
  t.on_filter(9, 3, true, /*final_filter=*/true, 1, 42, 3, 0, 320);
  t.on_live_event(5, 1, 42, 3, 0, /*is_recv=*/false, 330);
  ASSERT_EQ(t.journeys().size(), 1u);
  ASSERT_EQ(t.journeys().front().hops.size(), 1u);
  EXPECT_EQ(t.journeys().front().hops.front().edge, 9u);
  EXPECT_EQ(t.journeys().front().hops.front().arrive_us, 300);
}

TEST(ProvenanceTest, DroppedForwardKillsTheSamples) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);
  deliver_one(t, 7, 100);
  t.on_filter(7, 0, true, /*final_filter=*/false, 1, 42, 3, 0, 150);
  t.on_fanin_drop({{0, 7, 0}});  // the forward bailed out or was dropped
  EXPECT_FALSE(t.tracked(7, 0));
  EXPECT_EQ(reg.counter("prov.dropped").value(), 1u);
}

TEST(ProvenanceTest, SentSamplesSurviveTheirInboundEdgeClosing) {
  // A forwarder reads its last records, forwards them and closes the
  // drained inbound edge while the batch is still in flight: the samples
  // left that edge when the batch was sent, so they reach the next hop.
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);
  deliver_one(t, 7, 100);
  t.on_filter(7, 0, true, /*final_filter=*/false, 1, 42, 3, 0, 150);
  std::vector<ProvenanceTracker::ForwardSample> samples{{0, 7, 0}};
  t.on_fanin_send(samples);
  EXPECT_FALSE(t.tracked(7, 0));
  t.on_edge_closed(7);
  t.on_fanin_deliver(9, 1, samples, 300);
  EXPECT_TRUE(t.tracked(9, 0));
  EXPECT_EQ(reg.counter("prov.dropped").value(), 0u);
}

TEST(ProvenanceTest, InflightTableIsBoundedWithEviction) {
  Registry reg;
  ProvenanceTracker t(cfg(1, /*max_inflight=*/4), &reg);
  for (int i = 0; i < 6; ++i) deliver_one(t, 7, 100 + i);
  EXPECT_EQ(t.inflight(), 4u);
  EXPECT_EQ(reg.counter("prov.evicted").value(), 2u);
  EXPECT_EQ(reg.gauge("prov.inflight").value(), 4);
  EXPECT_EQ(reg.gauge("prov.inflight").high_water(), 4);
}

TEST(ProvenanceTest, EdgeCloseDropsInflightAndResetsTheCounter) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);
  deliver_one(t, 7, 100);
  deliver_one(t, 7, 110);
  deliver_one(t, 8, 120);  // survives: different edge
  t.on_edge_closed(7);
  EXPECT_EQ(reg.counter("prov.dropped").value(), 2u);
  EXPECT_EQ(t.inflight(), 1u);
  EXPECT_TRUE(t.tracked(8, 0));
  // A reconnected edge starts a fresh record stream at index 0.
  deliver_one(t, 7, 200);
  EXPECT_TRUE(t.tracked(7, 0));
}

TEST(ProvenanceTest, ConsumerQueueAdmitsExactlyTheTrackedIndices) {
  // A consumer reading an edge in order asks its in-flight queue first;
  // queue-then-tracked must answer every index as tracked alone does, on
  // an origin edge with evictions and on a fan-in edge after re-keying.
  Registry reg;
  ProvenanceTracker t(cfg(3, /*max_inflight=*/5), &reg);
  const auto origin = t.consumer_queue(7);
  for (int b = 0; b < 8; ++b) {
    t.on_batch_deliver(7, std::vector<std::int64_t>(2 + b % 3, 100 + b), 100,
                       100);
  }
  ASSERT_GT(reg.counter("prov.evicted").value(), 0u);  // some died queued
  std::vector<ProvenanceTracker::ForwardSample> staged;
  std::uint32_t pos = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const bool want = t.tracked(7, i);
    EXPECT_EQ(origin->take(i) && t.tracked(7, i), want) << "index " << i;
    if (!want) continue;
    // A staging filter accepts it into the next forward batch.
    t.on_filter(7, i, true, /*final_filter=*/false, 1, 42, 3, 0, 150);
    staged.push_back({pos++, 7, i});
  }
  ASSERT_FALSE(staged.empty());
  const auto fanin = t.consumer_queue(9);
  t.on_fanin_send(staged);
  t.on_fanin_deliver(9, 2, {}, 200);  // an earlier batch, nothing sampled
  t.on_fanin_deliver(9, pos + 1, staged, 300);
  std::size_t admitted = 0;
  for (std::uint64_t i = 0; i < 2 + pos + 1; ++i) {
    const bool want = t.tracked(9, i);
    EXPECT_EQ(fanin->take(i) && t.tracked(9, i), want) << "index " << i;
    admitted += want;
  }
  EXPECT_EQ(admitted, staged.size());
  // A closed edge leaves its consumer an empty queue.
  t.on_edge_closed(9);
  EXPECT_FALSE(fanin->take(2));
}

TEST(ProvenanceTest, StageListMatchesTheRegisteredHistograms) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);
  for (const ProvenanceStage& s : provenance_stages()) {
    EXPECT_NE(reg.histograms().find(s.key), reg.histograms().end()) << s.key;
  }
  EXPECT_EQ(provenance_stages().size(), 6u);
}

TEST(ProvenanceChromeTest, JourneysRenderAsFlowChains) {
  Registry reg;
  ProvenanceTracker t(cfg(1), &reg);
  EXPECT_EQ(journeys_chrome_events(t), "");  // nothing finished yet

  deliver_one(t, 7, 100);
  t.on_filter(7, 0, true, /*final_filter=*/true, 1, 42, 3, 0, 150);
  t.on_live_event(11, 1, 42, 3, 0, /*is_recv=*/false, 200);

  const std::string s = journeys_chrome_events(t);
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');  // a fragment: no enclosing brackets
  EXPECT_EQ(s.find('['), std::string::npos);
  EXPECT_NE(s.find("\"cat\":\"prov\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(s.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(s.find("record provenance"), std::string::npos);
  // Balanced braces — the fragment must splice into a JSON array cleanly.
  int depth = 0;
  bool in_str = false;
  for (char c : s) {
    if (c == '"') in_str = !in_str;
    if (in_str) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace dpm::obs
