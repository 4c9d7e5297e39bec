#include "filter/trace.h"

#include <gtest/gtest.h>

namespace dpm::filter {
namespace {

Record sample_record() {
  Record r;
  r.event_name = "SEND";
  r.type = 1;
  r.fields = {{"size", std::int64_t{50}},
              {"machine", std::int64_t{0}},
              {"cpuTime", std::int64_t{12345}},
              {"type", std::int64_t{1}},
              {"pid", std::int64_t{7}},
              {"destName", std::string{"228320140"}}};
  return r;
}

TEST(Trace, LineRoundTrip) {
  const std::string line = trace_line(sample_record(), {});
  EXPECT_EQ(line.back(), '\n');
  auto parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->event_name, "SEND");
  EXPECT_EQ(parsed->type, 1u);
  EXPECT_EQ(parsed->num("pid").value(), 7);
  EXPECT_EQ(parsed->text("destName").value(), "228320140");
}

TEST(Trace, DiscardedFieldsAreOmitted) {
  const std::string line = trace_line(sample_record(), {"pid", "machine"});
  auto parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("pid"), nullptr);
  EXPECT_EQ(parsed->find("machine"), nullptr);
  EXPECT_NE(parsed->find("cpuTime"), nullptr);
  // Discarding reduces the saved size (the point of '#', §3.4).
  EXPECT_LT(line.size(), trace_line(sample_record(), {}).size());
}

TEST(Trace, EscapesAwkwardValues) {
  Record r;
  r.event_name = "SEND";
  r.fields = {{"destName", std::string{"a b=c"}}};
  const std::string line = trace_line(r, {});
  auto parsed = parse_trace_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->text("destName").value(), "a b=c");
}

TEST(Trace, UnescapeDecodesOnlyTwoHexDigits) {
  // The renderer writes '%' plus two hex digits and nothing else, so a
  // sign ("%-f") or a short tail ("%4") stays literal.
  EXPECT_EQ(unescape_value("a%-fb"), "a%-fb");
  EXPECT_EQ(unescape_value("%4A%4a%20"), "JJ ");
  EXPECT_EQ(unescape_value("%zz%4"), "%zz%4");
  auto parsed = parse_trace_line("event=SEND destName=a%-fb");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->text("destName").value(), "a%-fb");
  // The same bytes as a rendered value escape their '%' and come back.
  Record r;
  r.event_name = "SEND";
  r.fields = {{"destName", std::string{"a%-fb%4"}}};
  auto back = parse_trace_line(trace_line(r, {}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->text("destName").value(), "a%-fb%4");
}

TEST(Trace, ParseWholeFile) {
  std::string file = trace_line(sample_record(), {}) +
                     "# comment line\n"
                     "\n" +
                     trace_line(sample_record(), {"pid"}) + "not a record\n";
  ParsedTrace t = parse_trace(file);
  EXPECT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.malformed, 1u);
}

TEST(Trace, LogPath) {
  EXPECT_EQ(log_path_for("f1"), "/usr/tmp/f1.log");
}

}  // namespace
}  // namespace dpm::filter
