// Snapshot pipeline: JSONL serialization, the parser/validator used by
// dpmstat and the ctest schema smoke, the JSON-array embedding for bench
// result files, and the structural diff.
#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "obs/span.h"

namespace dpm::obs {
namespace {

Registry& populated(Registry& reg) {
  reg.counter("kernel.meter_events").add(128);
  reg.counter("net.packets_sent").add(9);
  Gauge& g = reg.gauge("kernel.meter_pending_bytes");
  g.add(1040);
  g.sub(1040);
  Histogram& h = reg.histogram("net.delivery_us");
  h.record(54);
  for (int i = 0; i < 4; ++i) h.record(600);
  for (int i = 0; i < 4; ++i) h.record(1500);
  { ObsSpan span(reg, "filter.select_round"); }
  return reg;
}

TEST(SnapshotTest, WriteParseRoundTrip) {
  Registry reg;
  const std::string text = populated(reg).snapshot_jsonl();

  std::string err;
  auto snap = parse_snapshot(text, &err);
  ASSERT_TRUE(snap.has_value()) << err;
  EXPECT_EQ(snap->seq, 1u);
  EXPECT_EQ(snap->t_us, 0);

  EXPECT_EQ(snap->counters.at("kernel.meter_events"), 128u);
  EXPECT_EQ(snap->counters.at("net.packets_sent"), 9u);

  const GaugeSample& g = snap->gauges.at("kernel.meter_pending_bytes");
  EXPECT_EQ(g.value, 0);
  EXPECT_EQ(g.high_water, 1040);

  const HistogramSample& h = snap->histograms.at("net.delivery_us");
  EXPECT_EQ(h.count, 9u);
  EXPECT_EQ(h.sum, 54 + 4 * 600 + 4 * 1500);
  EXPECT_EQ(h.min, 54);
  EXPECT_EQ(h.max, 1500);
  EXPECT_EQ(h.p50, 1023);  // bound of bucket 10 (600s), under the max
  // Sparse buckets: 54 -> bucket 6, 600 -> bucket 10, 1500 -> bucket 11.
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], (std::pair<int, std::uint64_t>{6, 1}));
  EXPECT_EQ(h.buckets[1], (std::pair<int, std::uint64_t>{10, 4}));
  EXPECT_EQ(h.buckets[2], (std::pair<int, std::uint64_t>{11, 4}));

  ASSERT_EQ(snap->spans.size(), 2u);
  EXPECT_EQ(snap->spans[0].name, "filter.select_round");
  EXPECT_TRUE(snap->spans[0].begin);
  EXPECT_FALSE(snap->spans[1].begin);
}

TEST(SnapshotTest, SpansDroppedSurvivesTheRoundTrip) {
  // Span-ring overflow is part of the header schema: a consumer reading a
  // snapshot must be able to tell how much span history it is missing.
  Registry reg;
  reg.set_span_ring_capacity(2);
  for (int i = 0; i < 3; ++i) {
    ObsSpan span(reg, "sim.tick");  // 2 events each; ring keeps 2 of 6
  }
  EXPECT_EQ(reg.spans_dropped(), 4u);
  const std::string text = reg.snapshot_jsonl();
  EXPECT_EQ(validate_snapshot(text), "");
  auto snap = parse_snapshot(text);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->spans_dropped, 4u);
  EXPECT_EQ(snap->spans.size(), 2u);
}

TEST(SnapshotTest, DiffReportsHighWaterOnlyGaugeChanges) {
  // Regression: the differ used to compare current values only, so a
  // queue that spiked and drained between snapshots
  // (kernel.meter_pending_bytes, fanin.queue_bytes) vanished from the diff
  // entirely.
  Registry reg;
  Gauge& g = reg.gauge("kernel.meter_pending_bytes");
  g.add(1);
  auto a = parse_snapshot(reg.snapshot_jsonl());
  ASSERT_TRUE(a.has_value());
  g.add(99);
  g.sub(99);  // back to the old value; only the high-water moved
  auto b = parse_snapshot(reg.snapshot_jsonl());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->gauges.at("kernel.meter_pending_bytes").value, 1);
  EXPECT_EQ(b->gauges.at("kernel.meter_pending_bytes").high_water, 100);
  const std::string d = diff_snapshots(*a, *b);
  EXPECT_NE(d.find("kernel.meter_pending_bytes"), std::string::npos);
  EXPECT_NE(d.find("100"), std::string::npos);
}

TEST(SnapshotTest, SequenceNumbersIncrement) {
  Registry reg;
  populated(reg);
  std::string stream = reg.snapshot_jsonl();
  reg.counter("kernel.meter_events").add(1);
  reg.snapshot_jsonl(stream);  // appends the second snapshot

  auto snap = parse_snapshot(stream);
  ASSERT_TRUE(snap.has_value());
  // Last snapshot wins on a multi-snapshot stream.
  EXPECT_EQ(snap->seq, 2u);
  EXPECT_EQ(snap->counters.at("kernel.meter_events"), 129u);
}

TEST(SnapshotTest, ValidateAcceptsWellFormedSnapshots) {
  Registry reg;
  EXPECT_EQ(validate_snapshot(populated(reg).snapshot_jsonl()), "");
  EXPECT_NE(validate_snapshot(""), "");  // a snapshot needs its header
}

TEST(SnapshotTest, ValidateRejectsMalformedText) {
  EXPECT_NE(validate_snapshot("not json at all"), "");
  // A counter line with no header is parseable JSON but not a snapshot.
  EXPECT_NE(validate_snapshot(
                R"({"kind":"counter","key":"a.b","value":1})"),
            "");
  // Histogram whose buckets do not sum to its count.
  Registry reg;
  reg.histogram("net.delivery_us").record(5);
  std::string text = reg.snapshot_jsonl();
  const auto pos = text.find("\"count\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"count\":2");
  EXPECT_NE(validate_snapshot(text), "");
}

TEST(SnapshotTest, SubsystemsAreDistinctKeyPrefixes) {
  Registry reg;
  reg.counter("kernel.meter_events");
  reg.counter("kernel.meter_flushes");
  reg.gauge("net.in_flight");
  reg.histogram("daemon.rpc_create_us");
  auto snap = parse_snapshot(reg.snapshot_jsonl());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->subsystems(),
            (std::vector<std::string>{"daemon", "kernel", "net"}));
}

TEST(SnapshotTest, JsonArrayEmbedding) {
  Registry reg;
  const std::string arr = jsonl_to_json_array(populated(reg).snapshot_jsonl());
  EXPECT_EQ(arr.front(), '[');
  EXPECT_EQ(arr.back(), ']');
  // One element per JSONL line, comma-separated.
  std::size_t objects = 0;
  for (std::size_t pos = 0; (pos = arr.find("{\"kind\":", pos)) !=
                            std::string::npos;
       ++pos) {
    ++objects;
  }
  EXPECT_EQ(objects, 1 /*header*/ + reg.metric_count() + reg.span_ring().size());
  EXPECT_EQ(jsonl_to_json_array(""), "[]");
}

TEST(SnapshotTest, DiffReportsDeltasAndNewKeys) {
  Registry reg;
  populated(reg);
  auto a = parse_snapshot(reg.snapshot_jsonl());
  ASSERT_TRUE(a.has_value());

  reg.counter("kernel.meter_events").add(72);
  reg.counter("control.commands").add(3);  // new key
  reg.histogram("net.delivery_us").record(40);
  auto b = parse_snapshot(reg.snapshot_jsonl());
  ASSERT_TRUE(b.has_value());

  const std::string d = diff_snapshots(*a, *b);
  EXPECT_NE(d.find("kernel.meter_events"), std::string::npos);
  EXPECT_NE(d.find("+72"), std::string::npos);
  EXPECT_NE(d.find("control.commands"), std::string::npos);
  EXPECT_NE(d.find("net.delivery_us"), std::string::npos);
  // Unchanged instruments stay out of the diff.
  EXPECT_EQ(d.find("net.packets_sent"), std::string::npos);
}

TEST(SnapshotTest, DiffHandlesOneSidedInstruments) {
  // Two snapshots from *different* registries (a restarted daemon, a
  // different filter): every kind of instrument may exist on only one
  // side, and the diff must say so instead of mispairing or crashing.
  Registry ra;
  ra.counter("kernel.meter_events").add(10);
  ra.gauge("net.in_flight").add(3);
  ra.histogram("net.delivery_us").record(100);
  auto a = parse_snapshot(ra.snapshot_jsonl());
  ASSERT_TRUE(a.has_value());

  Registry rb;
  rb.counter("filter.records_matched").add(4);
  rb.gauge("live.parked").add(2);
  rb.histogram("live.pair_latency_us").record(250);
  auto b = parse_snapshot(rb.snapshot_jsonl());
  ASSERT_TRUE(b.has_value());

  const std::string d = diff_snapshots(*a, *b);
  // Instruments only in the newer snapshot are flagged as new...
  for (const char* added : {"filter.records_matched", "live.parked",
                            "live.pair_latency_us"}) {
    const auto pos = d.find(added);
    ASSERT_NE(pos, std::string::npos) << added;
    EXPECT_NE(d.find("(new)", pos), std::string::npos) << added;
  }
  // ...and instruments only in the older one as gone.
  for (const char* removed : {"kernel.meter_events", "net.in_flight",
                              "net.delivery_us"}) {
    const auto pos = d.find(removed);
    ASSERT_NE(pos, std::string::npos) << removed;
    EXPECT_NE(d.find("(gone)", pos), std::string::npos) << removed;
  }
}

TEST(SnapshotTest, DiffAgainstEmptySnapshots) {
  Registry reg;
  populated(reg);
  auto full = parse_snapshot(reg.snapshot_jsonl());
  ASSERT_TRUE(full.has_value());
  Registry empty_reg;
  auto empty = parse_snapshot(empty_reg.snapshot_jsonl());
  ASSERT_TRUE(empty.has_value());

  // empty -> full: everything is new, nothing is gone.
  const std::string up = diff_snapshots(*empty, *full);
  EXPECT_NE(up.find("(new)"), std::string::npos);
  EXPECT_EQ(up.find("(gone)"), std::string::npos);
  // full -> empty: the reverse.
  const std::string down = diff_snapshots(*full, *empty);
  EXPECT_NE(down.find("(gone)"), std::string::npos);
  EXPECT_EQ(down.find("(new)"), std::string::npos);
}

}  // namespace
}  // namespace dpm::obs
