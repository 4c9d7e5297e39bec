// FilterEngine: framing, selection, reduction, statistics.
#include "filter/filter_program.h"

#include <gtest/gtest.h>

#include "filter/trace.h"
#include "meter/metermsgs.h"

namespace dpm::filter {
namespace {

meter::MeterMsg stamped(meter::MeterBody body, std::uint16_t machine = 0) {
  meter::MeterMsg m;
  m.body = std::move(body);
  m.header.machine = machine;
  m.header.cpu_time = 1000;
  m.header.proc_time = 0;
  return m;
}

FilterEngine make_engine(const std::string& rules) {
  auto d = Descriptions::parse(default_descriptions_text());
  auto t = Templates::parse(rules);
  EXPECT_TRUE(d.has_value());
  EXPECT_TRUE(t.has_value());
  return FilterEngine(std::move(*d), std::move(*t));
}

TEST(FilterEngine, AcceptsAllWithoutRules) {
  FilterEngine e = make_engine("");
  util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, "d"}).serialize();
  const std::string out = e.feed(1, wire);
  auto records = parse_trace(out).records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event_name, "SEND");
  EXPECT_EQ(e.stats().accepted, 1u);
}

TEST(FilterEngine, SelectsByRule) {
  FilterEngine e = make_engine("machine=5\n");
  util::Bytes wire;
  auto add = [&wire](std::uint16_t m) {
    auto one = stamped(meter::MeterSend{1, 0, 2, 10, ""}, m).serialize();
    wire.insert(wire.end(), one.begin(), one.end());
  };
  add(5);
  add(4);
  add(5);
  const std::string out = e.feed(1, wire);
  EXPECT_EQ(parse_trace(out).records.size(), 2u);
  EXPECT_EQ(e.stats().records_in, 3u);
  EXPECT_EQ(e.stats().accepted, 2u);
  EXPECT_EQ(e.stats().rejected, 1u);
}

TEST(FilterEngine, HandlesSplitRecordsAcrossFeeds) {
  FilterEngine e = make_engine("");
  util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, "name"}).serialize();
  // Deliver byte by byte, as a stream may.
  std::string out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    out += e.feed(7, util::Bytes{wire[i]});
  }
  EXPECT_EQ(parse_trace(out).records.size(), 1u);
}

TEST(FilterEngine, KeepsConnectionsSeparate) {
  FilterEngine e = make_engine("");
  util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, ""}).serialize();
  util::Bytes half1(wire.begin(), wire.begin() + 10);
  util::Bytes half2(wire.begin() + 10, wire.end());
  // Interleave two connections' partial records.
  std::string out;
  out += e.feed(1, half1);
  out += e.feed(2, half1);
  out += e.feed(1, half2);
  out += e.feed(2, half2);
  EXPECT_EQ(parse_trace(out).records.size(), 2u);
}

TEST(FilterEngine, DiscardReducesBytesOut) {
  FilterEngine keep = make_engine("machine=*\n");
  FilterEngine drop = make_engine("machine=#*, pid=#*, cpuTime=#*\n");
  util::Bytes wire;
  for (int i = 0; i < 20; ++i) {
    auto one = stamped(meter::MeterSend{1, 0, 2, 10, "x"}).serialize();
    wire.insert(wire.end(), one.begin(), one.end());
  }
  (void)keep.feed(1, wire);
  (void)drop.feed(1, wire);
  EXPECT_EQ(keep.stats().accepted, 20u);
  EXPECT_EQ(drop.stats().accepted, 20u);
  EXPECT_LT(drop.stats().bytes_out, keep.stats().bytes_out);
}

TEST(FilterEngine, GarbageDesyncIsContained) {
  FilterEngine e = make_engine("");
  util::Bytes junk(64, 0xff);  // size field will be absurd
  EXPECT_EQ(e.feed(1, junk), "");
  EXPECT_EQ(e.stats().malformed, 1u);
  // The engine recovers for subsequent well-formed input.
  util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, ""}).serialize();
  EXPECT_EQ(parse_trace(e.feed(1, wire)).records.size(), 1u);
}

TEST(FilterEngine, EndConnectionDropsPartialState) {
  FilterEngine e = make_engine("");
  util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, ""}).serialize();
  (void)e.feed(1, util::Bytes(wire.begin(), wire.begin() + 8));
  e.end_connection(1);
  // Feeding the rest alone cannot form a record.
  EXPECT_EQ(e.feed(1, util::Bytes(wire.begin() + 8, wire.end())), "");
}

TEST(FilterEngine, TruncatedTailIsCountedNotSilent) {
  // A connection that dies mid-record leaves a cut-short tail; ending the
  // connection must account for it (malformed + truncated), and complete
  // records before the cut must still be selected.
  FilterEngine e = make_engine("");
  util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, "x"}).serialize();
  util::Bytes batch = wire;
  batch.insert(batch.end(), wire.begin(), wire.end() - 5);  // cut the 2nd
  (void)e.feed(1, batch);
  EXPECT_EQ(e.stats().records_in, 1u);
  EXPECT_EQ(e.stats().accepted, 1u);
  e.end_connection(1);
  EXPECT_EQ(e.stats().malformed, 1u);
  EXPECT_EQ(e.stats().truncated, 1u);

  // A connection that ends exactly on a record boundary counts nothing.
  (void)e.feed(2, wire);
  e.end_connection(2);
  EXPECT_EQ(e.stats().malformed, 1u);
  EXPECT_EQ(e.stats().truncated, 1u);
  // Ending an unknown connection is a no-op.
  e.end_connection(99);
  EXPECT_EQ(e.stats().truncated, 1u);
}

TEST(FilterEngine, UndescribedAndOverrunRecordsAreMalformed) {
  // A record of an undescribed type and a record whose counted-string
  // length runs past its end are malformed, not rejected: neither reaches
  // the rules, and the provenance tap reports both as not accepted.
  FilterEngine e = make_engine("pid=1\n");
  std::vector<std::pair<std::size_t, bool>> tapped;
  e.set_provenance([&tapped](std::uint64_t, const std::uint8_t*,
                             std::size_t size, bool accepted) {
    tapped.emplace_back(size, accepted);
  });

  const util::Bytes accepted =
      stamped(meter::MeterSend{1, 0, 2, 10, "d"}).serialize();
  const util::Bytes rejected =
      stamped(meter::MeterSend{2, 0, 2, 10, "d"}).serialize();
  util::Bytes undescribed = accepted;
  undescribed[22] = 77;  // traceType: nothing describes type 77
  util::Bytes overrun =
      stamped(meter::MeterRecv{1, 0, 3, 64, "abc"}).serialize();
  overrun[meter::kHeaderSize + 20] = 200;  // sourceNameLen past the end

  util::Bytes batch;
  for (const util::Bytes& r : {accepted, undescribed, overrun, rejected}) {
    batch.insert(batch.end(), r.begin(), r.end());
  }
  const std::string out = e.feed(1, batch);
  EXPECT_EQ(parse_trace(out).records.size(), 1u);
  const FilterStats st = e.stats();
  EXPECT_EQ(st.records_in, 4u);
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.malformed, 2u);
  EXPECT_EQ(st.truncated, 0u);
  const std::vector<std::pair<std::size_t, bool>> want = {
      {accepted.size(), true},
      {undescribed.size(), false},
      {overrun.size(), false},
      {rejected.size(), false}};
  EXPECT_EQ(tapped, want);
}

/// Collects every record a FilterEngine hands its sinks.
class CollectingSink : public RecordSink {
 public:
  void on_record(const Record& rec) override { records.push_back(rec); }
  std::vector<Record> records;
};

TEST(FilterEngine, SinkSeesAcceptedRecordsAndLeavesTheLogUnchanged) {
  // Discard rules edit the log lines but not what sinks see: a sink gets
  // each accepted record whole, and registering it changes no log byte.
  const char* rules = "machine=#*, pid=#*, type=1\ntype=8, sockName=#*\n";
  util::Bytes batch;
  for (int i = 0; i < 30; ++i) {
    const auto m = static_cast<std::uint16_t>(i % 3);
    stamped(meter::MeterSend{i, 0, 2, 10, "d"}, m).serialize_into(batch);
    stamped(meter::MeterRecvCall{i, 0, 2}, m).serialize_into(batch);
    stamped(meter::MeterAccept{i, 0, 4, 5, "a", "b"}, m).serialize_into(batch);
  }
  FilterEngine plain = make_engine(rules);
  FilterEngine tapped = make_engine(rules);
  CollectingSink sink;
  tapped.add_sink(&sink);
  const std::string log = plain.feed(1, batch);
  EXPECT_EQ(tapped.feed(1, batch), log);
  EXPECT_EQ(tapped.stats().bytes_out, plain.stats().bytes_out);

  // Exactly the accepted records, in order, with every field intact.
  auto desc = Descriptions::parse(default_descriptions_text());
  auto templ = Templates::parse(rules);
  std::vector<Record> want;
  for (std::size_t pos = 0; pos < batch.size();) {
    const std::uint32_t size =
        *util::BinaryReader(batch.data() + pos, batch.size() - pos).u32();
    auto rec = desc->decode(batch.data() + pos, size);
    pos += size;
    ASSERT_TRUE(rec.has_value());
    if (templ->evaluate(*rec).accept) want.push_back(std::move(*rec));
  }
  ASSERT_EQ(sink.records.size(), want.size());
  EXPECT_EQ(sink.records.size(), tapped.stats().accepted);
  EXPECT_EQ(want.size(), 60u);  // every SEND and every ACCEPT
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(trace_line(sink.records[i], {}), trace_line(want[i], {}));
  }
}

/// Overrides the view entry point: renders each view it is handed and
/// counts any call of the Record entry point.
class ViewSink : public RecordSink {
 public:
  void on_view(const RecordView& v, const WirePlan& plan,
               const std::string_view* strings, const Descriptions&) override {
    std::string line;
    EXPECT_TRUE(trace_line_view(plan, v, nullptr, strings, line));
    lines.push_back(std::move(line));
  }
  void on_record(const Record&) override { ++record_calls; }
  std::vector<std::string> lines;
  std::size_t record_calls = 0;
};

TEST(FilterEngine, ViewSinkIsNeverHandedARecord) {
  // A sink that overrides on_view gets every accepted record as a view,
  // the same records a Record sink gets, and its on_record never runs:
  // the engine decodes nothing for it.
  const char* rules = "machine=#*, pid=#*, type=1\ntype=8, sockName=#*\n";
  util::Bytes batch;
  for (int i = 0; i < 30; ++i) {
    const auto m = static_cast<std::uint16_t>(i % 3);
    stamped(meter::MeterSend{i, 0, 2, 10, "d"}, m).serialize_into(batch);
    stamped(meter::MeterRecvCall{i, 0, 2}, m).serialize_into(batch);
    stamped(meter::MeterAccept{i, 0, 4, 5, "a", "b"}, m).serialize_into(batch);
  }
  FilterEngine engine = make_engine(rules);
  ViewSink views;
  CollectingSink records;
  engine.add_sink(&views);
  engine.add_sink(&records);
  (void)engine.feed(1, batch);
  EXPECT_EQ(views.record_calls, 0u);
  ASSERT_EQ(views.lines.size(), 60u);
  ASSERT_EQ(records.records.size(), views.lines.size());
  for (std::size_t i = 0; i < views.lines.size(); ++i) {
    EXPECT_EQ(views.lines[i], trace_line(records.records[i], {}));
  }
}

}  // namespace
}  // namespace dpm::filter
