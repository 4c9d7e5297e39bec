// Wire-view decoding (the filter's zero-copy path): RecordView framing,
// WirePlan field extraction and validation, and their agreement with the
// owned Descriptions::decode on every meter event type.
#include <gtest/gtest.h>

#include <algorithm>

#include "filter/descriptions.h"
#include "filter/filter_program.h"
#include "filter/oracle.h"
#include "meter/metermsgs.h"

namespace dpm::filter {
namespace {

meter::MeterMsg stamped(meter::MeterBody body) {
  meter::MeterMsg m;
  m.body = std::move(body);
  m.header.machine = 3;
  m.header.cpu_time = 123456789;
  m.header.proc_time = 40000;
  return m;
}

/// One message of each type, with both empty and non-empty names in the
/// string-carrying types.
std::vector<meter::MeterMsg> one_of_each() {
  using namespace meter;
  return {
      stamped(MeterSend{7, 9, 42, 100, "228320140"}),
      stamped(MeterSend{7, 9, 42, 100, ""}),  // unknown dest (§4.1)
      stamped(MeterRecv{1, 2, 3, 4, "328140"}),
      stamped(MeterRecvCall{5, 6, 7}),
      stamped(MeterSockCrt{1, 2, 3, 2, 1, 0}),
      stamped(MeterDup{1, 2, 30, 31}),
      stamped(MeterDestSock{1, 2, 3}),
      stamped(MeterFork{100, 0, 101}),
      stamped(MeterAccept{9, 8, 7, 6, "131073", "196612"}),
      stamped(MeterAccept{9, 8, 7, 6, "", std::string(255, 'p')}),
      stamped(MeterConnect{9, 8, 7, "me", "them"}),
      stamped(MeterTermProc{9, 0, -1}),
  };
}

void expect_field_eq(const FieldValue& owned, const FieldView& view,
                     const std::string& name) {
  if (std::holds_alternative<std::int64_t>(owned)) {
    ASSERT_TRUE(std::holds_alternative<std::int64_t>(view)) << name;
    EXPECT_EQ(std::get<std::int64_t>(owned), std::get<std::int64_t>(view))
        << name;
  } else {
    ASSERT_TRUE(std::holds_alternative<std::string_view>(view)) << name;
    EXPECT_EQ(std::get<std::string>(owned), std::get<std::string_view>(view))
        << name;
  }
}

TEST(RecordView, FramingChecksHeaderAndSizeWord) {
  const util::Bytes wire = stamped(meter::MeterSend{1, 0, 2, 10, "x"}).serialize();
  auto v = make_record_view(wire.data(), wire.size());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->type, 1u);
  EXPECT_EQ(v->size, wire.size());

  // Slice shorter than the size word claims: no view.
  EXPECT_FALSE(make_record_view(wire.data(), wire.size() - 1).has_value());
  // Too short for a header at all.
  EXPECT_FALSE(make_record_view(wire.data(), 8).has_value());
}

TEST(RecordView, EveryDescribedTypeIsViewable) {
  // Every described type has a plan, indexed densely in type order; an
  // undescribed type has none.
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());
  std::size_t index = 0;
  for (std::uint32_t type : desc->types()) {
    const WirePlan* wp = desc->wire_plan(type);
    ASSERT_NE(wp, nullptr) << "type " << type;
    EXPECT_EQ(wp->index(), index++) << "type " << type;
    EXPECT_EQ(wp->field_count(), desc->record_layout(type).size())
        << "type " << type;
    EXPECT_EQ(wp->event_name(), desc->by_type(type)->name);
  }
  EXPECT_EQ(desc->wire_plan(0), nullptr);
  EXPECT_EQ(desc->wire_plan(11), nullptr);
  EXPECT_EQ(desc->wire_plan(1u << 30), nullptr);
}

TEST(RecordView, FieldsMatchOwnedDecodeOnEveryType) {
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());
  for (const auto& msg : one_of_each()) {
    const util::Bytes wire = msg.serialize();
    auto rec = desc->decode(wire);
    ASSERT_TRUE(rec.has_value());
    auto v = make_record_view(wire.data(), wire.size());
    ASSERT_TRUE(v.has_value());
    const WirePlan* wp = desc->wire_plan(v->type);
    ASSERT_NE(wp, nullptr);
    ASSERT_TRUE(wp->validate(*v));
    ASSERT_EQ(wp->field_count(), rec->fields.size());
    for (std::size_t i = 0; i < rec->fields.size(); ++i) {
      const auto fv = wp->field(*v, i);
      ASSERT_TRUE(fv.has_value()) << rec->fields[i].first;
      expect_field_eq(rec->fields[i].second, *fv, rec->fields[i].first);
      // Name-based lookup agrees with index-based.
      EXPECT_EQ(wp->index_of(rec->fields[i].first) <= i, true);
    }
  }
}

TEST(RecordView, WireFieldLooksUpByName) {
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());
  const util::Bytes wire =
      stamped(meter::MeterAccept{9, 8, 7, 6, "131073", "196612"}).serialize();
  auto v = make_record_view(wire.data(), wire.size());
  ASSERT_TRUE(v.has_value());

  const WirePlan* wp = desc->wire_plan(v->type);
  ASSERT_NE(wp, nullptr);
  auto sock = wp->field(*v, wp->index_of("sock"));
  ASSERT_TRUE(sock.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*sock), 7);
  auto peer = wp->field(*v, wp->index_of("peerName"));
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(std::get<std::string_view>(*peer), "196612");
  EXPECT_EQ(wp->index_of("ghost"), static_cast<std::size_t>(-1));
  EXPECT_FALSE(wp->field(*v, wp->index_of("ghost")).has_value());
}

TEST(RecordView, ValidateAgreesWithDecodeOnTruncatedRecords) {
  // For every possible claimed record length, validate() must accept
  // exactly when the owned decoder does — the two paths must count the
  // same records malformed.
  auto desc = Descriptions::parse(default_descriptions_text());
  ASSERT_TRUE(desc.has_value());
  for (const auto& msg : one_of_each()) {
    util::Bytes wire = msg.serialize();
    for (std::size_t len = meter::kHeaderSize; len <= wire.size(); ++len) {
      util::Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
      // Re-stamp the size word so framing accepts the slice; only the
      // field bounds are under test.
      cut[0] = static_cast<std::uint8_t>(len);
      cut[1] = static_cast<std::uint8_t>(len >> 8);
      cut[2] = static_cast<std::uint8_t>(len >> 16);
      cut[3] = static_cast<std::uint8_t>(len >> 24);
      auto v = make_record_view(cut.data(), cut.size());
      ASSERT_TRUE(v.has_value());
      const WirePlan* wp = desc->wire_plan(v->type);
      ASSERT_NE(wp, nullptr);
      const bool owned_ok = desc->decode(cut).has_value();
      EXPECT_EQ(wp->validate(*v), owned_ok)
          << "type " << v->type << " len " << len << "/" << wire.size();
    }
  }
}

TEST(RecordView, FieldViewComparisonSemantics) {
  // Numeric view of strings mirrors field_value_num; textual comparison
  // renders integer operands the way field_value_text does.
  EXPECT_EQ(field_view_num(FieldView{std::int64_t{42}}).value(), 42);
  EXPECT_EQ(field_view_num(FieldView{std::string_view{"131073"}}).value(),
            131073);
  EXPECT_FALSE(field_view_num(FieldView{std::string_view{"addr-1"}}).has_value());

  EXPECT_EQ(field_view_text_cmp(FieldView{std::int64_t{-5}}, "-5"), 0);
  EXPECT_LT(field_view_text_cmp(FieldView{std::string_view{"abc"}}, "abd"), 0);
  EXPECT_GT(field_view_text_cmp(FieldView{std::string_view{"abd"}}, "abc"), 0);

  // Both numeric: numeric order (9 < 10); mixed: textual order ("9" > "10").
  EXPECT_LT(field_view_cmp(FieldView{std::int64_t{9}},
                           FieldView{std::string_view{"10"}}), 0);
  EXPECT_LT(field_view_cmp(FieldView{std::string_view{"9"}},
                           FieldView{std::string_view{"abc10"}}), 0);
}

TEST(RecordView, ViewAndOwnedEnginesRenderIdenticalLogs) {
  // A quick deterministic cut of the bench's equivalence check: the engine
  // (view path) against the owned-record reference filter, with rules
  // that accept, reject, compare field to field and discard.
  const char* rules =
      "machine=5, cpuTime<10000\n"
      "machine=3, type=1, sock=42, destName=228320140\n"
      "type=8, sockName=peerName\n"
      "machine=#*, pid=#*, type=2\n";
  auto desc = Descriptions::parse(default_descriptions_text());
  auto templ = Templates::parse(rules);
  ASSERT_TRUE(desc.has_value() && templ.has_value());
  util::Bytes batch;
  for (const auto& msg : one_of_each()) msg.serialize_into(batch);

  const std::string expected = oracle_log(*desc, *templ, batch);
  FilterEngine engine(*desc, *templ);
  EXPECT_EQ(engine.feed(1, batch), expected);
  const FilterStats st = engine.stats();
  EXPECT_EQ(st.accepted,
            static_cast<std::uint64_t>(
                std::count(expected.begin(), expected.end(), '\n')));
  EXPECT_EQ(st.accepted + st.rejected, one_of_each().size());
  EXPECT_EQ(st.malformed, 0u);
  // Both verdicts occur, so neither side is trivially empty.
  EXPECT_GT(st.accepted, 0u);
  EXPECT_GT(st.rejected, 0u);
}

}  // namespace
}  // namespace dpm::filter
