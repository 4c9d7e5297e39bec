// Meter message formats — Appendix A and Fig 4.1.
#include "meter/metermsgs.h"

#include <gtest/gtest.h>

#include "meter/meterflags.h"
#include "testing.h"
#include "util/rng.h"

namespace dpm::meter {
namespace {

MeterMsg stamped(MeterBody body) {
  MeterMsg m;
  m.body = std::move(body);
  m.header.machine = 3;
  m.header.cpu_time = 123456789;
  m.header.proc_time = 40000;
  return m;
}

TEST(MeterMsgs, TypeNumbersMatchPaperExamples) {
  // Fig 3.3 second rule matches a send with "type=1"; Fig 3.4 matches
  // accepts with "type=8".
  EXPECT_EQ(static_cast<std::uint32_t>(EventType::send), 1u);
  EXPECT_EQ(static_cast<std::uint32_t>(EventType::accept), 8u);
}

TEST(MeterMsgs, EventNames) {
  EXPECT_EQ(event_name(EventType::send), "send");
  EXPECT_EQ(event_name(EventType::termproc), "termproc");
  EXPECT_EQ(event_by_name("accept").value(), EventType::accept);
  EXPECT_FALSE(event_by_name("nope").has_value());
}

TEST(MeterMsgs, EventNamesRoundTripForEveryType) {
  // event_name and event_by_name are generated from one shared table, so
  // every type must survive the round trip (no hard-coded loop bounds).
  for (std::uint32_t t = 1; t <= 10; ++t) {
    const EventType type = static_cast<EventType>(t);
    const std::string_view name = event_name(type);
    EXPECT_NE(name, "unknown") << "type " << t;
    auto back = event_by_name(name);
    ASSERT_TRUE(back.has_value()) << "type " << t;
    EXPECT_EQ(*back, type);
  }
  EXPECT_EQ(event_name(static_cast<EventType>(0)), "unknown");
  EXPECT_EQ(event_name(static_cast<EventType>(11)), "unknown");
  EXPECT_FALSE(event_by_name("").has_value());
  EXPECT_FALSE(event_by_name("unknown").has_value());
}

TEST(MeterMsgs, HeaderLayoutIsFixed) {
  MeterMsg m = stamped(MeterSend{7, 9, 42, 100, "destination"});
  const util::Bytes wire = m.serialize();
  ASSERT_GE(wire.size(), kHeaderSize);
  // size u32 @0
  const std::uint32_t size = wire[0] | wire[1] << 8 | wire[2] << 16 |
                             static_cast<std::uint32_t>(wire[3]) << 24;
  EXPECT_EQ(size, wire.size());
  // machine u16 @4
  EXPECT_EQ(wire[4] | wire[5] << 8, 3);
  // traceType u32 @22
  EXPECT_EQ(wire[22], 1u);  // send
}

template <typename T>
T round_trip(MeterBody body) {
  MeterMsg m = stamped(std::move(body));
  auto wire = m.serialize();
  auto parsed = MeterMsg::parse(wire);
  EXPECT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.machine, 3);
  EXPECT_EQ(parsed->header.cpu_time, 123456789);
  EXPECT_EQ(parsed->header.proc_time, 40000);
  return std::get<T>(parsed->body);
}

TEST(MeterMsgs, SendRoundTrip) {
  auto b = round_trip<MeterSend>(MeterSend{7, 9, 42, 100, "328140"});
  EXPECT_EQ(b.pid, 7);
  EXPECT_EQ(b.pc, 9u);
  EXPECT_EQ(b.sock, 42u);
  EXPECT_EQ(b.msg_length, 100u);
  EXPECT_EQ(b.dest_name, "328140");
}

TEST(MeterMsgs, SendWithUnknownDestHasZeroLengthName) {
  // §4.1: when one writes across a connection, the recipient's name is
  // unavailable and "the length of the name is specified as zero".
  auto b = round_trip<MeterSend>(MeterSend{7, 0, 42, 100, ""});
  EXPECT_TRUE(b.dest_name.empty());
}

TEST(MeterMsgs, RecvRoundTrip) {
  auto b = round_trip<MeterRecv>(MeterRecv{1, 2, 3, 4, "source"});
  EXPECT_EQ(b.source_name, "source");
  EXPECT_EQ(b.msg_length, 4u);
}

TEST(MeterMsgs, RecvCallRoundTrip) {
  auto b = round_trip<MeterRecvCall>(MeterRecvCall{5, 6, 7});
  EXPECT_EQ(b.pid, 5);
  EXPECT_EQ(b.sock, 7u);
}

TEST(MeterMsgs, SockCrtRoundTrip) {
  auto b = round_trip<MeterSockCrt>(MeterSockCrt{1, 2, 3, 2, 1, 0});
  EXPECT_EQ(b.domain, 2u);  // AF_INET
  EXPECT_EQ(b.type, 1u);    // SOCK_STREAM
}

TEST(MeterMsgs, DupRoundTrip) {
  auto b = round_trip<MeterDup>(MeterDup{1, 2, 30, 31});
  EXPECT_EQ(b.sock, 30u);
  EXPECT_EQ(b.new_sock, 31u);
}

TEST(MeterMsgs, DestSockRoundTrip) {
  auto b = round_trip<MeterDestSock>(MeterDestSock{1, 2, 3});
  EXPECT_EQ(b.sock, 3u);
}

TEST(MeterMsgs, ForkRoundTrip) {
  auto b = round_trip<MeterFork>(MeterFork{100, 0, 101});
  EXPECT_EQ(b.pid, 100);
  EXPECT_EQ(b.new_pid, 101);
}

TEST(MeterMsgs, AcceptRoundTripWithBothNames) {
  // Fig 4.1: accept carries sock, newSocket, and both bound names.
  auto b = round_trip<MeterAccept>(
      MeterAccept{9, 8, 7, 6, "listener-name", "client-name"});
  EXPECT_EQ(b.sock, 7u);
  EXPECT_EQ(b.new_sock, 6u);
  EXPECT_EQ(b.sock_name, "listener-name");
  EXPECT_EQ(b.peer_name, "client-name");
}

TEST(MeterMsgs, ConnectRoundTrip) {
  auto b = round_trip<MeterConnect>(MeterConnect{9, 8, 7, "me", "them"});
  EXPECT_EQ(b.sock_name, "me");
  EXPECT_EQ(b.peer_name, "them");
}

TEST(MeterMsgs, TermProcRoundTrip) {
  auto b = round_trip<MeterTermProc>(MeterTermProc{9, 0, -1});
  EXPECT_EQ(b.status, -1);
}

TEST(MeterMsgs, StreamParsingSplitsConcatenatedMessages) {
  util::Bytes wire;
  for (int i = 0; i < 5; ++i) {
    MeterMsg m = stamped(MeterSend{i, 0, 1, 10, ""});
    auto one = m.serialize();
    wire.insert(wire.end(), one.begin(), one.end());
  }
  std::size_t pos = 0;
  int count = 0;
  while (auto m = MeterMsg::parse_stream(wire, pos)) {
    EXPECT_EQ(m->pid(), count);
    ++count;
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(pos, wire.size());
}

TEST(MeterMsgs, StreamParsingWaitsForCompleteMessage) {
  MeterMsg m = stamped(MeterSend{1, 0, 1, 10, "name"});
  auto wire = m.serialize();
  util::Bytes partial(wire.begin(), wire.end() - 3);
  std::size_t pos = 0;
  EXPECT_FALSE(MeterMsg::parse_stream(partial, pos).has_value());
  EXPECT_EQ(pos, 0u);  // nothing consumed
}

TEST(MeterMsgs, ParseRejectsGarbage) {
  util::Bytes junk(40, 0xff);
  EXPECT_FALSE(MeterMsg::parse(junk).has_value());
  util::Bytes empty;
  EXPECT_FALSE(MeterMsg::parse(empty).has_value());
}

TEST(MeterMsgs, ParseRejectsBadType) {
  MeterMsg m = stamped(MeterSend{1, 0, 1, 10, ""});
  auto wire = m.serialize();
  wire[22] = 99;  // invalid traceType
  EXPECT_FALSE(MeterMsg::parse(wire).has_value());
}

TEST(MeterMsgs, TrailingByteAfterLastFieldIsRejected) {
  // A send record plus one byte, its size word counting the byte: the
  // body must end where the size word says, so the frame is no record.
  const util::Bytes wire = stamped(MeterSend{1, 0, 1, 10, ""}).serialize();
  util::Bytes longer = wire;
  longer.push_back(0);
  util::BinaryWriter size_word(longer.data(), 4);
  size_word.u32(static_cast<std::uint32_t>(longer.size()));
  EXPECT_FALSE(MeterMsg::parse(longer).has_value());
  std::size_t pos = 0;
  EXPECT_FALSE(MeterMsg::parse_stream(longer, pos).has_value());
  EXPECT_EQ(pos, 0u);
  EXPECT_TRUE(MeterMsg::parse(wire).has_value());
}

TEST(MeterMsgs, PrettyIsOneLine) {
  MeterMsg m = stamped(MeterAccept{9, 8, 7, 6, "l", "c"});
  const std::string p = m.pretty();
  EXPECT_NE(p.find("accept"), std::string::npos);
  EXPECT_NE(p.find("machine=3"), std::string::npos);
  EXPECT_EQ(p.find('\n'), std::string::npos);
}

class AllEventTypes : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Range, AllEventTypes, ::testing::Range(1u, 11u));

TEST_P(AllEventTypes, MakeMsgSerializeParseAgree) {
  const auto t = static_cast<EventType>(GetParam());
  MeterMsg m = make_msg(t);
  EXPECT_EQ(m.type(), t);
  auto wire = m.serialize();
  auto parsed = MeterMsg::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type(), t);
  EXPECT_EQ(parsed->serialize(), wire);  // canonical form is stable
}

// ---- serialize_into: the zero-copy encode path ----

/// A message of type `t` with `name` planted in every string field the
/// type carries (types without string fields ignore it).
MeterMsg typed_with_name(std::uint32_t t, const std::string& name) {
  switch (static_cast<EventType>(t)) {
    case EventType::send: return stamped(MeterSend{1, 2, 3, 4, name});
    case EventType::recv: return stamped(MeterRecv{1, 2, 3, 4, name});
    case EventType::recvcall: return stamped(MeterRecvCall{1, 2, 3});
    case EventType::sockcrt: return stamped(MeterSockCrt{1, 2, 3, 2, 1, 0});
    case EventType::dup: return stamped(MeterDup{1, 2, 3, 4});
    case EventType::destsock: return stamped(MeterDestSock{1, 2, 3});
    case EventType::fork: return stamped(MeterFork{1, 2, 3});
    case EventType::accept: return stamped(MeterAccept{1, 2, 3, 4, name, name});
    case EventType::connect: return stamped(MeterConnect{1, 2, 3, name, name});
    case EventType::termproc: return stamped(MeterTermProc{1, 2, -1});
  }
  return stamped(MeterSend{});
}

TEST_P(AllEventTypes, SerializeIntoIsByteIdenticalToSerialize) {
  // Empty, ordinary, and long socket names (the wire carries a u32 count,
  // so "max length" is bounded only by the record-size sanity cap; 255
  // exercises multi-byte counts without tripping it).
  for (const std::string& name :
       {std::string(), std::string("228320140"), std::string(255, 'n')}) {
    MeterMsg m = typed_with_name(GetParam(), name);
    const util::Bytes wire = m.serialize();
    util::Bytes out;
    m.serialize_into(out);
    EXPECT_EQ(out, wire) << "name length " << name.size();

    auto parsed = MeterMsg::parse(out);
    ASSERT_TRUE(parsed.has_value()) << "name length " << name.size();
    EXPECT_EQ(parsed->serialize(), wire);
  }
}

TEST_P(AllEventTypes, SerializeIntoAppendsWithoutDisturbingPrefix) {
  MeterMsg m = typed_with_name(GetParam(), "peer-name");
  const util::Bytes wire = m.serialize();
  util::Bytes out{0xde, 0xad, 0xbe, 0xef};
  m.serialize_into(out);
  ASSERT_EQ(out.size(), 4u + wire.size());
  EXPECT_EQ((util::Bytes{out[0], out[1], out[2], out[3]}),
            (util::Bytes{0xde, 0xad, 0xbe, 0xef}));
  // The size word must be patched relative to this record's start, not
  // the buffer's.
  EXPECT_EQ(util::Bytes(out.begin() + 4, out.end()), wire);
}

TEST(MeterMsgs, SerializeIntoBuildsParseableBatches) {
  // Encode all ten types back to back into one buffer — exactly what
  // meter_emit does to the pending batch — and parse the stream back.
  util::Bytes batch;
  for (std::uint32_t t = 1; t <= 10; ++t) {
    typed_with_name(t, "n").serialize_into(batch);
  }
  std::size_t pos = 0;
  std::uint32_t expect = 1;
  while (auto m = MeterMsg::parse_stream(batch, pos)) {
    EXPECT_EQ(static_cast<std::uint32_t>(m->type()), expect);
    ++expect;
  }
  EXPECT_EQ(expect, 11u);
  EXPECT_EQ(pos, batch.size());
}

std::string random_name(util::Rng& rng) {
  if (rng.bernoulli(0.15)) return "";
  return std::to_string(rng.uniform(0, 300000));
}

/// A random message drawn from all ten event types.
MeterMsg random_msg(util::Rng& rng) {
  MeterMsg m;
  const Pid pid = static_cast<Pid>(rng.uniform(1, 30));
  const SocketId sock = rng.uniform(0, 8);
  switch (rng.uniform(0, 10)) {
    case 0:
      m.body = MeterSend{pid, 0, sock,
                         static_cast<std::uint32_t>(rng.uniform(0, 2048)),
                         random_name(rng)};
      break;
    case 1:
      m.body = MeterRecv{pid, 0, sock,
                         static_cast<std::uint32_t>(rng.uniform(0, 2048)),
                         random_name(rng)};
      break;
    case 2: m.body = MeterRecvCall{pid, 0, sock}; break;
    case 3:
      m.body = MeterSockCrt{pid, 0, sock, 2, 1, 0};
      break;
    case 4: m.body = MeterDup{pid, 0, sock, sock + 1}; break;
    case 5: m.body = MeterDestSock{pid, 0, sock}; break;
    case 6: m.body = MeterFork{pid, 0, static_cast<Pid>(pid + 1)}; break;
    case 7:
      m.body = MeterAccept{pid, 0, sock, sock + 1, random_name(rng),
                           random_name(rng)};
      break;
    case 8:
      m.body = MeterConnect{pid, 0, sock, random_name(rng), random_name(rng)};
      break;
    default: m.body = MeterTermProc{pid, 0, 0}; break;
  }
  m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 6));
  m.header.cpu_time = rng.uniform(0, 20000);
  m.header.proc_time = rng.uniform(0, 1000);
  return m;
}

TEST(MeterMsgs, WireSizeMatchesSerializedSizeForEveryShape) {
  // serialize_into sizes its span encode by wire_size(); a disagreement
  // with the actual encoding would send every record down the re-encode
  // fallback.
  util::Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    const MeterMsg m = random_msg(rng);
    EXPECT_EQ(m.wire_size(), m.serialize().size()) << m.pretty();
  }
}

// ---- golden bytes: the wire layout of every body, pinned ----

using dpm::testing::hex;
using dpm::testing::unhex;

struct GoldenRecord {
  const char* name;
  MeterBody body;
  const char* wire;  // hex of serialize(); a change here is a wire change
};

// One fixed instance per body. Every field holds a distinct value wide
// enough to fill its bytes, so a moved, resized or reordered field changes
// the hex. Header: machine 3, cpuTime 123456789, procTime 40000.
const GoldenRecord kGoldenRecords[] = {
    {"send", MeterSend{-7, 0x01020304, 0x1122334455667788ull, 4096, "328140"},
     "38000000030015cd5b0700000000409c00000000000001000000f9ff"
     "ffff0403020188776655443322110010000006000000333238313430"},
    {"recv", MeterRecv{70000, 9, 42, 0xfffffffe, "/tmp/sock"},
     "3b000000030015cd5b0700000000409c000000000000020000007011"
     "0100090000002a00000000000000feffffff090000002f746d702f73"
     "6f636b"},
    {"recvcall", MeterRecvCall{5, 6, 0x8000000000000001ull},
     "2a000000030015cd5b0700000000409c000000000000030000000500"
     "0000060000000100000000000080"},
    {"sockcrt", MeterSockCrt{1, 2, 3, 2, 1, 17},
     "36000000030015cd5b0700000000409c000000000000040000000100"
     "0000020000000300000000000000020000000100000011000000"},
    {"dup", MeterDup{11, 12, 13, 0xabcdef},
     "32000000030015cd5b0700000000409c000000000000050000000b00"
     "00000c0000000d00000000000000efcdab0000000000"},
    {"destsock", MeterDestSock{21, 22, 23},
     "2a000000030015cd5b0700000000409c000000000000060000001500"
     "0000160000001700000000000000"},
    {"fork", MeterFork{100, 0x7fffffff, -101},
     "26000000030015cd5b0700000000409c000000000000070000006400"
     "0000ffffff7f9bffffff"},
    {"accept", MeterAccept{9, 8, 7, 6, "listener", "client-name"},
     "4d000000030015cd5b0700000000409c000000000000080000000900"
     "00000800000007000000000000000600000000000000080000000b00"
     "00006c697374656e6572636c69656e742d6e616d65"},
    {"connect", MeterConnect{31, 32, 33, "me", "them"},
     "38000000030015cd5b0700000000409c000000000000090000001f00"
     "000020000000210000000000000002000000040000006d657468656d"},
    {"termproc", MeterTermProc{41, 42, -1},
     "26000000030015cd5b0700000000409c0000000000000a0000002900"
     "00002a000000ffffffff"},
};

TEST(MeterMsgs, GoldenBytesForEveryBody) {
  for (const GoldenRecord& g : kGoldenRecords) {
    SCOPED_TRACE(g.name);
    const MeterMsg m = stamped(g.body);
    const util::Bytes wire = m.serialize();
    EXPECT_EQ(hex(wire), g.wire);
    auto parsed = MeterMsg::parse(unhex(g.wire));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->body.index(), m.body.index());
    EXPECT_EQ(event_name(parsed->type()), g.name);
    EXPECT_EQ(parsed->pid(), m.pid());
    EXPECT_EQ(parsed->header.machine, 3);
    EXPECT_EQ(parsed->header.cpu_time, 123456789);
    EXPECT_EQ(parsed->header.proc_time, 40000);
    EXPECT_EQ(hex(parsed->serialize()), g.wire);
  }
}

}  // namespace
}  // namespace dpm::meter
