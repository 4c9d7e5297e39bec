// Event record description files — Fig 3.2.
#include "filter/descriptions.h"

#include <gtest/gtest.h>

#include "meter/metermsgs.h"
#include "util/strings.h"

namespace dpm::filter {
namespace {

TEST(Descriptions, ParsesPaperStyleSendLine) {
  // The shape of Fig 3.2, with this kernel's offsets.
  const std::string text =
      "HEADER size machine cpuTime procTime traceType\n"
      "SEND 1, pid,0,4,10 pc,4,4,10 sock,8,8,10 msgLength,16,4,10 "
      "destNameLen,20,4,10 destName,24,0,0\n";
  DescriptionError err;
  auto d = Descriptions::parse(text, &err);
  ASSERT_TRUE(d.has_value()) << err.message;
  const EventDesc* send = d->by_type(1);
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->name, "SEND");
  ASSERT_EQ(send->fields.size(), 6u);
  EXPECT_EQ(send->fields[2].name, "sock");
  EXPECT_EQ(send->fields[2].offset, 8u);
  EXPECT_EQ(send->fields[2].length, 8u);
  EXPECT_EQ(send->fields[5].length, 0u);  // counted string
}

TEST(Descriptions, DefaultFileDescribesAllTenEvents) {
  DescriptionError err;
  auto d = Descriptions::parse(default_descriptions_text(), &err);
  ASSERT_TRUE(d.has_value()) << err.message;
  EXPECT_EQ(d->size(), 10u);
  for (std::uint32_t t = 1; t <= 10; ++t) {
    EXPECT_NE(d->by_type(t), nullptr) << "missing type " << t;
  }
  EXPECT_NE(d->by_name("ACCEPT"), nullptr);
  EXPECT_EQ(d->by_name("NOPE"), nullptr);
}

TEST(Descriptions, RejectsMalformedInput) {
  using Kind = DescriptionError::Kind;
  // Every rejection names its kind and the offending line.
  auto expect_error = [](const std::string& text, Kind kind, int line) {
    DescriptionError err;
    EXPECT_FALSE(Descriptions::parse(text, &err).has_value()) << text;
    EXPECT_EQ(err.kind, kind) << text << err.message;
    EXPECT_EQ(err.line, line) << text << err.message;
    if (line > 0) {
      EXPECT_EQ(err.message.rfind("line " + std::to_string(line) + ": ", 0),
                0u)
          << err.message;
    }
  };
  expect_error("", Kind::empty, 0);
  expect_error("SEND\n", Kind::syntax, 1);
  expect_error("SEND x, pid,0,4,10\n", Kind::bad_type, 1);
  expect_error("SEND 1, pid,0,nope,10\n", Kind::syntax, 1);
  expect_error("SEND 1, pid,0,3,10\n", Kind::syntax, 1);

  // A type number past traceType's 32 bits must not wrap onto another
  // type (4294967297 would become 1 and silently replace SEND)...
  const std::string send = "SEND 1, pid,0,4,10\n";
  expect_error(send + "BOGUS 4294967297, x,0,4,10\n", Kind::bad_type, 2);
  // ...and a type number described twice must not replace the first.
  expect_error(send + "# comment\nRECV 1, pid,0,4,10\n", Kind::duplicate_type,
               3);

  // Descriptions the wire-view path cannot run. A counted string needs an
  // earlier "<name>Len" field (a later one does not count, as in decode).
  expect_error("SEND 1, pid,0,4,10 destName,8,0,0\n", Kind::missing_length, 1);
  expect_error(send + "SEND2 2, destName,4,0,0 destNameLen,0,4,10\n",
               Kind::missing_length, 2);
  // A string's length may itself be a counted string (its text parses as
  // the count), so a chain of n strings takes n + 1 fields and reaches the
  // string limit under the field limit.
  auto strings = [](int n) {
    std::string name = "s";
    for (int i = 0; i < n; ++i) name += "Len";
    std::string line = "MANY 3, " + name + ",0,4,10";
    for (int i = 0; i < n; ++i) {
      name.resize(name.size() - 3);
      line += " " + name + ",4,0,0";
    }
    return line + "\n";
  };
  expect_error(send + strings(17), Kind::too_many_strings, 2);
  auto wide = [](int n) {
    std::string line = "WIDE 4,";
    for (int i = 0; i < n; ++i) {
      line += util::strprintf(" f%d,%d,4,10", i, 4 * i);
    }
    return line + "\n";
  };
  expect_error(send + wide(28), Kind::too_many_fields, 2);

  // Each field is named once, and no body field takes a header field's
  // name: a comparison would read only the first such field while '#'
  // dropped them all.
  expect_error("SEND 1, pid,0,4,10 pid,4,4,10\n", Kind::duplicate_field, 1);
  expect_error(send + "RECV 2, pid,0,4,10 machine,4,8,10\n",
               Kind::duplicate_field, 2);
  expect_error(send + "RECV 2, type,0,4,10\n", Kind::duplicate_field, 2);
  expect_error(send + "RECV 2, nLen,0,4,10 n,4,0,0 n,4,0,0\n",
               Kind::duplicate_field, 2);

  // Exactly at the limits is fine.
  auto ok = Descriptions::parse(send + strings(16) + wide(27));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->wire_plan(4)->field_count(), WirePlan::kMaxFields);
}

class DecodeTest : public ::testing::Test {
 protected:
  DecodeTest() {
    auto d = Descriptions::parse(default_descriptions_text());
    EXPECT_TRUE(d.has_value());
    desc_ = std::move(*d);
  }

  static meter::MeterMsg stamped(meter::MeterBody body) {
    meter::MeterMsg m;
    m.body = std::move(body);
    m.header.machine = 5;
    m.header.cpu_time = 7777;
    m.header.proc_time = 20000;
    return m;
  }

  Descriptions desc_{*Descriptions::parse(default_descriptions_text())};
};

TEST_F(DecodeTest, DecodesSendRecord) {
  auto wire = stamped(meter::MeterSend{42, 3, 9, 128, "228320140"}).serialize();
  auto rec = desc_.decode(wire);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->event_name, "SEND");
  EXPECT_EQ(rec->num("machine").value(), 5);
  EXPECT_EQ(rec->num("cpuTime").value(), 7777);
  EXPECT_EQ(rec->num("procTime").value(), 20000);
  EXPECT_EQ(rec->num("pid").value(), 42);
  EXPECT_EQ(rec->num("sock").value(), 9);
  EXPECT_EQ(rec->num("msgLength").value(), 128);
  EXPECT_EQ(rec->text("destName").value(), "228320140");
  // A numeric-looking name compares numerically too.
  EXPECT_EQ(rec->num("destName").value(), 228320140);
}

TEST_F(DecodeTest, DecodesAcceptWithTwoCountedStrings) {
  auto wire = stamped(meter::MeterAccept{1, 0, 11, 12, "listener", "client"})
                  .serialize();
  auto rec = desc_.decode(wire);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->text("sockName").value(), "listener");
  EXPECT_EQ(rec->text("peerName").value(), "client");
  EXPECT_EQ(rec->num("sock").value(), 11);
  EXPECT_EQ(rec->num("newSock").value(), 12);
}

TEST_F(DecodeTest, DecodesEmptyNames) {
  auto wire = stamped(meter::MeterSend{1, 0, 2, 64, ""}).serialize();
  auto rec = desc_.decode(wire);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->text("destName").value(), "");
  EXPECT_EQ(rec->num("destNameLen").value(), 0);
}

TEST_F(DecodeTest, RejectsTruncatedRecord) {
  auto wire = stamped(meter::MeterSend{1, 0, 2, 64, "abc"}).serialize();
  util::Bytes cut(wire.begin(), wire.end() - 2);
  EXPECT_FALSE(desc_.decode(cut).has_value());
}

TEST_F(DecodeTest, RejectsUnknownType) {
  auto wire = stamped(meter::MeterSend{1, 0, 2, 64, ""}).serialize();
  wire[22] = 77;
  EXPECT_FALSE(desc_.decode(wire).has_value());
}

TEST_F(DecodeTest, EveryEventTypeDecodes) {
  // The default description file and the field lists describe the same
  // bytes: every field of the header's and each body's fields() list
  // decodes, under its label, to the value the message holds, and the
  // description has no field the list lacks (a counted string adds its
  // <name>Len field).
  using namespace meter;
  const MeterBody bodies[] = {
      MeterBody{MeterSend{1, 2, 3, 4, "d"}},
      MeterBody{MeterRecv{1, 2, 3, 4, "s"}},
      MeterBody{MeterRecvCall{1, 2, 3}},
      MeterBody{MeterSockCrt{1, 2, 3, 5, 6, 7}},
      MeterBody{MeterDup{1, 2, 3, 4}},
      MeterBody{MeterDestSock{1, 2, 3}},
      MeterBody{MeterFork{1, 2, 9}},
      MeterBody{MeterAccept{1, 2, 3, 4, "a", "bc"}},
      MeterBody{MeterConnect{1, 2, 3, "a", "bc"}},
      MeterBody{MeterTermProc{1, 2, -3}},
  };
  for (const auto& b : bodies) {
    const MeterMsg m = *MeterMsg::parse(stamped(b).serialize());
    auto rec = desc_.decode(m.serialize());
    ASSERT_TRUE(rec.has_value());
    SCOPED_TRACE(rec->event_name);
    auto num = [&](const char* label) {
      return rec->num(label).value_or(-999);
    };
    MeterHeader::fields(m.header, [&](std::string_view label, const auto& v) {
      // Decoded records name traceType "type", as templates match it
      // (Fig 3.3 "type=1").
      const std::string name(label == "traceType" ? "type" : label);
      EXPECT_EQ(num(name.c_str()), static_cast<std::int64_t>(v)) << name;
    });
    std::size_t described = 0;
    std::visit(
        [&](const auto& body) {
          body.fields(body, [&](const char* label, const auto& v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_integral_v<T>) {
              EXPECT_EQ(num(label), static_cast<std::int64_t>(v)) << label;
              described += 1;
            } else if constexpr (std::is_same_v<T, std::string>) {
              EXPECT_EQ(rec->text(label).value_or("?"), v) << label;
              described += 2;
            } else {  // NamePair: two lengths, then two names
              EXPECT_EQ(rec->text("sockName").value_or("?"), v.sock_name);
              EXPECT_EQ(rec->text("peerName").value_or("?"), v.peer_name);
              described += 4;
            }
          });
        },
        m.body);
    const EventDesc* d = desc_.by_type(static_cast<std::uint32_t>(m.type()));
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->fields.size(), described);
  }
}

TEST(FieldValue, NumericAndText) {
  EXPECT_EQ(field_value_text(FieldValue{std::int64_t{42}}), "42");
  EXPECT_EQ(field_value_text(FieldValue{std::string{"x"}}), "x");
  EXPECT_EQ(field_value_num(FieldValue{std::string{"17"}}).value(), 17);
  EXPECT_FALSE(field_value_num(FieldValue{std::string{"ab"}}).has_value());
}

}  // namespace
}  // namespace dpm::filter
