// Controller/daemon message formats — Fig 3.6.
#include "daemon/protocol.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "testing.h"

namespace dpm::daemon {
namespace {

template <typename T>
T round_trip(const DaemonMsg& m) {
  auto wire = serialize(m);
  auto parsed = parse(wire);
  EXPECT_TRUE(parsed.has_value());
  return std::get<T>(*parsed);
}

TEST(Protocol, Fig36TypeNumbers) {
  EXPECT_EQ(static_cast<std::uint32_t>(MsgType::create_request), 11u);
  EXPECT_EQ(static_cast<std::uint32_t>(MsgType::create_reply), 18u);
}

TEST(Protocol, CreateRequestCarriesFig36Fields) {
  // Fig 3.6: filename, parameter count, parameter list, filter port,
  // filter host, meter flags, control port, control host.
  CreateRequest req;
  req.uid = 100;
  req.filename = "A";
  req.params = {"arg1", "arg2", "arg3"};
  req.filter_port = 1234;
  req.filter_host = "blue";
  req.meter_flags = 0x1ff;
  req.control_port = 5678;
  req.control_host = "yellow";
  req.stdin_file = "input.dat";
  auto got = round_trip<CreateRequest>(req);
  EXPECT_EQ(got.uid, 100);
  EXPECT_EQ(got.filename, "A");
  EXPECT_EQ(got.params, req.params);
  EXPECT_EQ(got.filter_port, 1234);
  EXPECT_EQ(got.filter_host, "blue");
  EXPECT_EQ(got.meter_flags, 0x1ffu);
  EXPECT_EQ(got.control_port, 5678);
  EXPECT_EQ(got.control_host, "yellow");
  EXPECT_EQ(got.stdin_file, "input.dat");
}

TEST(Protocol, CreateReplyPidStatus) {
  auto got = round_trip<CreateReply>(CreateReply{2120, 0});
  EXPECT_EQ(got.pid, 2120);
  EXPECT_EQ(got.status, 0);
}

TEST(Protocol, FilterRequestReply) {
  FilterRequest req;
  req.uid = 1;
  req.filterfile = "filter";
  req.logfile = "/usr/tmp/f1.log";
  req.descriptions = "descriptions";
  req.templates = "templates";
  req.control_port = 9;
  req.control_host = "red";
  auto got = round_trip<FilterRequest>(req);
  EXPECT_EQ(got.logfile, "/usr/tmp/f1.log");
  EXPECT_EQ(got.templates, "templates");

  auto reply = round_trip<FilterReply>(FilterReply{2117, 0, 1050});
  EXPECT_EQ(reply.pid, 2117);
  EXPECT_EQ(reply.meter_port, 1050);
}

TEST(Protocol, ProcRequestPreservesSubtype) {
  for (MsgType t : {MsgType::start_request, MsgType::stop_request,
                    MsgType::kill_request, MsgType::release_request}) {
    ProcRequest req;
    req.what = t;
    req.uid = 7;
    req.pid = 42;
    auto wire = serialize(DaemonMsg{req});
    auto parsed = parse(wire);
    ASSERT_TRUE(parsed.has_value());
    auto got = std::get<ProcRequest>(*parsed);
    EXPECT_EQ(got.what, t);
    EXPECT_EQ(got.pid, 42);
  }
}

TEST(Protocol, SetFlagsAcquireNotes) {
  auto sf = round_trip<SetFlagsRequest>(SetFlagsRequest{5, 10, 0xff});
  EXPECT_EQ(sf.flags, 0xffu);

  AcquireRequest aq;
  aq.uid = 2;
  aq.pid = 99;
  aq.filter_port = 700;
  aq.filter_host = "blue";
  aq.meter_flags = 3;
  auto aq2 = round_trip<AcquireRequest>(aq);
  EXPECT_EQ(aq2.pid, 99);
  EXPECT_EQ(aq2.filter_host, "blue");

  StateNote note;
  note.machine = "green";
  note.pid = 2122;
  note.event = 2;
  note.status = 0;
  auto note2 = round_trip<StateNote>(note);
  EXPECT_EQ(note2.machine, "green");
  EXPECT_EQ(note2.pid, 2122);

  IoNote io;
  io.machine = "red";
  io.pid = 1;
  io.data = "some output\n";
  EXPECT_EQ(round_trip<IoNote>(io).data, "some output\n");

  IoSend is;
  is.uid = 1;
  is.pid = 2;
  is.data = "stdin data";
  EXPECT_EQ(round_trip<IoSend>(is).data, "stdin data");

  EXPECT_EQ(round_trip<SimpleReply>(SimpleReply{13}).status, 13);
}

TEST(Protocol, ParseRejectsCorruptInput) {
  auto wire = serialize(DaemonMsg{CreateReply{1, 0}});
  wire[4] = 0xEE;  // unknown type
  EXPECT_FALSE(parse(wire).has_value());

  auto wire2 = serialize(DaemonMsg{CreateReply{1, 0}});
  wire2.pop_back();  // size mismatch
  EXPECT_FALSE(parse(wire2).has_value());

  EXPECT_FALSE(parse(util::Bytes{}).has_value());
}

TEST(Protocol, SerializedSizeIsFramed) {
  auto wire = serialize(DaemonMsg{SimpleReply{0}});
  const std::uint32_t size = wire[0] | wire[1] << 8 | wire[2] << 16 |
                             static_cast<std::uint32_t>(wire[3]) << 24;
  EXPECT_EQ(size, wire.size());
}

// ---- golden bytes: the wire layout of every message, pinned ----

using dpm::testing::hex;
using dpm::testing::unhex;

struct GoldenFrame {
  const char* name;
  DaemonMsg msg;
  const char* wire;  // hex of serialize(); a change here is a wire change
};

// One fixed instance per DaemonMsg alternative, in variant order. Every
// field holds a distinct value, so a moved, resized or reordered field
// changes the hex.
const GoldenFrame kGoldenFrames[] = {
    {"CreateRequest",
     CreateRequest{.uid = 100,
                   .filename = "A",
                   .params = {"arg1", "arg2", "arg3"},
                   .filter_port = 1234,
                   .filter_host = "blue",
                   .meter_flags = 0x1ff,
                   .control_port = 5678,
                   .control_host = "yellow",
                   .stdin_file = "input.dat",
                   .nonce = 0x0102030405060708ull},
     "5c0000000b0000006400000001000000410300000004000000617267"
     "3104000000617267320400000061726733d20404000000626c7565ff"
     "0100002e160600000079656c6c6f7709000000696e7075742e646174"
     "0807060504030201"},
    {"CreateReply", CreateReply{.pid = 2120, .status = -3},
     "100000001200000048080000fdffffff"},
    {"FilterRequest",
     FilterRequest{.uid = 1,
                   .filterfile = "filter",
                   .logfile = "/usr/tmp/f1.log",
                   .descriptions = "descriptions",
                   .templates = "templates",
                   .control_port = 9,
                   .control_host = "red",
                   .nonce = 77,
                   .mode = 2,
                   .parent_host = "agg",
                   .parent_port = 4100},
     "610000000c000000010000000600000066696c7465720f0000002f75"
     "73722f746d702f66312e6c6f670c0000006465736372697074696f6e"
     "730900000074656d706c617465730900030000007265644d00000000"
     "00000002030000006167670410"},
    {"FilterReply", FilterReply{.pid = 2117, .status = 0, .meter_port = 1050},
     "120000001300000045080000000000001a04"},
    {"SetFlagsRequest", SetFlagsRequest{.uid = 5, .pid = 10, .flags = 0xff},
     "140000000d000000050000000a000000ff000000"},
    {"ProcRequest",
     ProcRequest{.what = MsgType::kill_request, .uid = 7, .pid = 42},
     "1000000010000000070000002a000000"},
    {"AcquireRequest",
     AcquireRequest{.uid = 2,
                    .pid = 99,
                    .filter_port = 700,
                    .filter_host = "blue",
                    .meter_flags = 3},
     "1e000000110000000200000063000000bc0204000000626c75650300"
     "0000"},
    {"SimpleReply", SimpleReply{.status = 13},
     "0c000000150000000d000000"},
    {"StateNote",
     StateNote{.machine = "green", .pid = 2122, .event = 2, .status = -9},
     "1a0000001e00000005000000677265656e4a08000002f7ffffff"},
    {"IoNote", IoNote{.machine = "red", .pid = 1, .data = "some output\n"},
     "230000001f00000003000000726564010000000c000000736f6d6520"
     "6f75747075740a"},
    {"IoSend", IoSend{.uid = 1, .pid = 2, .data = "stdin data"},
     "1e0000002000000001000000020000000a000000737464696e206461"
     "7461"},
    {"BatchCreateRequest",
     BatchCreateRequest{.uid = 3,
                        .items = {{"pingpong_server", {"5000", "64"}},
                                  {"hello", {}}},
                        .filter_port = 1050,
                        .filter_host = "hub",
                        .meter_flags = 0x3ff,
                        .control_port = 1040,
                        .control_host = "hub",
                        .nonce = 0xdeadbeefcafef00dull},
     "600000002100000003000000020000000f00000070696e67706f6e67"
     "5f736572766572020000000400000035303030020000003634050000"
     "0068656c6c6f000000001a0403000000687562ff0300001004030000"
     "006875620df0fecaefbeadde"},
    {"BatchCreateReply",
     BatchCreateReply{.nonce = 0x1234, .pids = {2130, -1}, .statuses = {0, 3}},
     "280000002200000034120000000000000200000052080000ffffffff"
     "020000000000000003000000"},
    {"BatchProcRequest",
     BatchProcRequest{.what = MsgType::stop_request,
                      .uid = 4,
                      .nonce = 99,
                      .pids = {2130, 2131, 2132}},
     "28000000230000000f00000004000000630000000000000003000000"
     "520800005308000054080000"},
    {"BatchProcReply",
     BatchProcReply{.nonce = 99, .statuses = {0, 3, 0}},
     "20000000240000006300000000000000030000000000000003000000"
     "00000000"},
};

TEST(Protocol, GoldenBytesForEveryMessage) {
  ASSERT_EQ(std::size(kGoldenFrames), std::variant_size_v<DaemonMsg>);
  for (std::size_t i = 0; i < std::size(kGoldenFrames); ++i) {
    const GoldenFrame& g = kGoldenFrames[i];
    SCOPED_TRACE(g.name);
    EXPECT_EQ(g.msg.index(), i);
    EXPECT_EQ(hex(serialize(g.msg)), g.wire);
    // Round trip: the frame parses to the same alternative and type, and
    // re-serializes to the same bytes (the encoding is injective: every
    // field is fixed-width or length-prefixed).
    auto parsed = parse(unhex(g.wire));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->index(), i);
    EXPECT_EQ(msg_type(*parsed), msg_type(g.msg));
    EXPECT_EQ(hex(serialize(*parsed)), g.wire);
  }
}

TEST(Protocol, BatchMessagesRoundTrip) {
  const auto bcr = round_trip<BatchCreateRequest>(kGoldenFrames[11].msg);
  ASSERT_EQ(bcr.items.size(), 2u);
  EXPECT_EQ(bcr.items[0].filename, "pingpong_server");
  EXPECT_EQ(bcr.items[0].params,
            (std::vector<std::string>{"5000", "64"}));
  EXPECT_TRUE(bcr.items[1].params.empty());
  EXPECT_EQ(bcr.control_host, "hub");
  EXPECT_EQ(bcr.nonce, 0xdeadbeefcafef00dull);

  const auto bcy = round_trip<BatchCreateReply>(kGoldenFrames[12].msg);
  EXPECT_EQ(bcy.pids, (std::vector<std::int32_t>{2130, -1}));
  EXPECT_EQ(bcy.statuses, (std::vector<std::int32_t>{0, 3}));

  const auto bpr = round_trip<BatchProcRequest>(kGoldenFrames[13].msg);
  EXPECT_EQ(bpr.what, MsgType::stop_request);
  EXPECT_EQ(bpr.pids, (std::vector<std::int32_t>{2130, 2131, 2132}));

  const auto bpy = round_trip<BatchProcReply>(kGoldenFrames[14].msg);
  EXPECT_EQ(bpy.nonce, 99u);
  EXPECT_EQ(bpy.statuses, (std::vector<std::int32_t>{0, 3, 0}));
}

}  // namespace
}  // namespace dpm::daemon
