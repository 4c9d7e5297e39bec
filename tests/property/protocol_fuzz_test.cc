// Property tests for the controller <-> meterdaemon wire format (Fig 3.6):
// random messages of every alternative re-serialize bit-exactly;
// truncated and bit-flipped frames never crash the parser, and any frame
// it accepts is canonical after one re-serialization; every reject rule
// (count caps, FilterRequest mode, batch op, batch reply shape) holds.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "daemon/protocol.h"
#include "util/rng.h"

namespace dpm::daemon {
namespace {

std::string random_string(util::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0: return "";
    case 1: return "host" + std::to_string(rng.uniform(0, 999));
    case 2: return "/usr/tmp/f" + std::to_string(rng.uniform(0, 99)) + ".log";
    default: {
      // Arbitrary bytes, embedded and trailing NULs included.
      std::string s(static_cast<std::size_t>(rng.uniform(1, 24)), '\0');
      for (char& c : s) c = static_cast<char>(rng.uniform(0, 255));
      if (rng.bernoulli(0.5)) s.back() = '\0';
      return s;
    }
  }
}

std::vector<std::string> random_strings(util::Rng& rng) {
  std::vector<std::string> out(static_cast<std::size_t>(rng.uniform(0, 5)));
  for (auto& s : out) s = random_string(rng);
  return out;
}

std::vector<std::int32_t> random_i32s(util::Rng& rng, std::size_t n) {
  std::vector<std::int32_t> out(n);
  for (auto& v : out) v = static_cast<std::int32_t>(rng.next_u64());
  return out;
}

std::int32_t i32(util::Rng& rng) {
  return static_cast<std::int32_t>(rng.next_u64());
}
std::uint16_t u16(util::Rng& rng) {
  return static_cast<std::uint16_t>(rng.next_u64());
}
std::uint32_t u32(util::Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_u64());
}

constexpr MsgType kProcOps[] = {MsgType::start_request, MsgType::stop_request,
                                MsgType::kill_request, MsgType::release_request,
                                MsgType::status_request};

constexpr MsgType kAllTypes[] = {
    MsgType::create_request,       MsgType::create_reply,
    MsgType::filter_request,       MsgType::filter_reply,
    MsgType::setflags_request,     MsgType::start_request,
    MsgType::stop_request,         MsgType::kill_request,
    MsgType::acquire_request,      MsgType::release_request,
    MsgType::simple_reply,         MsgType::status_request,
    MsgType::state_note,           MsgType::io_note,
    MsgType::io_send,              MsgType::batch_create_request,
    MsgType::batch_create_reply,   MsgType::batch_proc_request,
    MsgType::batch_proc_reply};

MsgType random_proc_op(util::Rng& rng) {
  return kProcOps[rng.uniform(0, 4)];
}

/// A random message of alternative `which` (DaemonMsg's variant index).
DaemonMsg random_msg(util::Rng& rng, std::size_t which) {
  switch (which) {
    case 0:
      return CreateRequest{i32(rng),          random_string(rng),
                           random_strings(rng), u16(rng),
                           random_string(rng), u32(rng),
                           u16(rng),          random_string(rng),
                           random_string(rng), rng.next_u64()};
    case 1: return CreateReply{i32(rng), i32(rng)};
    case 2:
      return FilterRequest{i32(rng),
                           random_string(rng),
                           random_string(rng),
                           random_string(rng),
                           random_string(rng),
                           u16(rng),
                           random_string(rng),
                           rng.next_u64(),
                           static_cast<std::uint8_t>(rng.uniform(0, 2)),
                           random_string(rng),
                           u16(rng)};
    case 3: return FilterReply{i32(rng), i32(rng), u16(rng)};
    case 4: return SetFlagsRequest{i32(rng), i32(rng), u32(rng)};
    case 5: return ProcRequest{random_proc_op(rng), i32(rng), i32(rng)};
    case 6:
      return AcquireRequest{i32(rng), i32(rng), u16(rng), random_string(rng),
                            u32(rng)};
    case 7: return SimpleReply{i32(rng)};
    case 8:
      return StateNote{random_string(rng), i32(rng),
                       static_cast<std::uint8_t>(rng.uniform(0, 255)),
                       i32(rng)};
    case 9: return IoNote{random_string(rng), i32(rng), random_string(rng)};
    case 10: return IoSend{i32(rng), i32(rng), random_string(rng)};
    case 11: {
      BatchCreateRequest b;
      b.uid = i32(rng);
      b.items.resize(static_cast<std::size_t>(rng.uniform(0, 4)));
      for (auto& item : b.items) {
        item.filename = random_string(rng);
        item.params = random_strings(rng);
      }
      b.filter_port = u16(rng);
      b.filter_host = random_string(rng);
      b.meter_flags = u32(rng);
      b.control_port = u16(rng);
      b.control_host = random_string(rng);
      b.nonce = rng.next_u64();
      return b;
    }
    case 12: {
      const auto n = static_cast<std::size_t>(rng.uniform(0, 6));
      return BatchCreateReply{rng.next_u64(), random_i32s(rng, n),
                              random_i32s(rng, n)};
    }
    case 13:
      return BatchProcRequest{
          random_proc_op(rng), i32(rng), rng.next_u64(),
          random_i32s(rng, static_cast<std::size_t>(rng.uniform(0, 6)))};
    default:
      return BatchProcReply{
          rng.next_u64(),
          random_i32s(rng, static_cast<std::size_t>(rng.uniform(0, 6)))};
  }
}

void put_u32(util::Bytes& wire, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    wire[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST_P(ProtocolFuzz, RandomMessagesReserializeIdentically) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    for (std::size_t which = 0; which < std::variant_size_v<DaemonMsg>;
         ++which) {
      const DaemonMsg m = random_msg(rng, which);
      ASSERT_EQ(m.index(), which);
      const util::Bytes wire = serialize(m);
      auto parsed = parse(wire);
      ASSERT_TRUE(parsed.has_value()) << "alternative " << which;
      EXPECT_EQ(parsed->index(), which);
      EXPECT_EQ(msg_type(*parsed), msg_type(m));
      EXPECT_EQ(serialize(*parsed), wire) << "alternative " << which;
    }
  }
}

TEST_P(ProtocolFuzz, TruncatedAndFlippedFramesNeverCrash) {
  util::Rng rng(GetParam() + 100);
  std::size_t accepted = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t which = 0; which < std::variant_size_v<DaemonMsg>;
         ++which) {
      const util::Bytes wire = serialize(random_msg(rng, which));
      // Every truncation, with the size word left as is and patched to the
      // short length, is rejected: a frame holds exactly its fields, so a
      // prefix always cuts the last one.
      for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        util::Bytes part(wire.begin(),
                         wire.begin() + static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(parse(part).has_value()) << "cut " << cut;
        if (cut >= 4) {
          put_u32(part, 0, static_cast<std::uint32_t>(cut));
          EXPECT_FALSE(parse(part).has_value()) << "patched cut " << cut;
        }
      }
      // Random flips of 1–4 bytes. A frame's last field must end it, so a
      // flipped length cannot leave a shorter message with an unread
      // tail: every accepted frame is canonical and re-serializes to
      // exactly its input bytes.
      for (int flip = 0; flip < 60; ++flip) {
        util::Bytes bad = wire;
        const int n = static_cast<int>(rng.uniform(1, 4));
        for (int k = 0; k < n; ++k) {
          const auto at = static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(bad.size()) - 1));
          bad[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
        }
        if (auto p = parse(bad)) {
          ++accepted;
          EXPECT_EQ(serialize(*p), bad);
        }
      }
    }
  }
  // Flips of payload bytes (not counts or the frame header) leave valid
  // frames, so some must have been accepted.
  EXPECT_GT(accepted, 0u);
}

TEST_P(ProtocolFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam() + 200);
  for (int i = 0; i < 500; ++i) {
    util::Bytes junk(static_cast<std::size_t>(rng.uniform(8, 120)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    // A plausible frame: the size word matches and the type is real, so
    // the body decoder runs on arbitrary bytes.
    put_u32(junk, 0, static_cast<std::uint32_t>(junk.size()));
    put_u32(junk, 4,
            static_cast<std::uint32_t>(
                kAllTypes[rng.uniform(0, std::size(kAllTypes) - 1)]));
    // An accepted frame is canonical, whatever bytes it came from.
    if (auto p = parse(junk)) {
      EXPECT_EQ(serialize(*p), junk);
    }
  }
}

// ---- reject rules, one explicit case each --------------------------------

TEST(ProtocolReject, TrailingByteAfterLastField) {
  IoNote note;
  note.pid = 7;
  note.machine = "red";
  note.data = "out";
  util::Bytes wire = serialize(note);
  ASSERT_TRUE(parse(wire).has_value());
  wire.push_back(0);
  put_u32(wire, 0, static_cast<std::uint32_t>(wire.size()));
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(ProtocolReject, CreateParamsCapIs1024) {
  CreateRequest req;
  req.params.assign(1024, "p");
  EXPECT_TRUE(parse(serialize(req)).has_value());
  req.params.push_back("p");
  EXPECT_FALSE(parse(serialize(req)).has_value());
}

TEST(ProtocolReject, BatchItemParamsCapIs1024) {
  BatchCreateRequest req;
  req.items.resize(1);
  req.items[0].params.assign(1024, "p");
  EXPECT_TRUE(parse(serialize(req)).has_value());
  req.items[0].params.push_back("p");
  EXPECT_FALSE(parse(serialize(req)).has_value());
}

TEST(ProtocolReject, BatchItemsCapIs4096) {
  BatchCreateRequest req;
  req.items.resize(4096);
  EXPECT_TRUE(parse(serialize(req)).has_value());
  req.items.resize(4097);
  EXPECT_FALSE(parse(serialize(req)).has_value());
}

TEST(ProtocolReject, PidListCapIs65536) {
  BatchProcRequest req;
  req.pids.assign(65536, 7);
  EXPECT_TRUE(parse(serialize(req)).has_value());
  req.pids.push_back(7);
  EXPECT_FALSE(parse(serialize(req)).has_value());

  BatchProcReply rep;
  rep.statuses.assign(65537, 0);
  EXPECT_FALSE(parse(serialize(rep)).has_value());

  BatchCreateReply crep;
  crep.pids.assign(65537, 1);
  crep.statuses.assign(65537, 0);
  EXPECT_FALSE(parse(serialize(crep)).has_value());
}

TEST(ProtocolReject, FilterModeAbove2) {
  FilterRequest req;
  req.mode = 2;
  EXPECT_TRUE(parse(serialize(req)).has_value());
  req.mode = 3;
  EXPECT_FALSE(parse(serialize(req)).has_value());
}

TEST(ProtocolReject, BatchProcOpMustBeAProcessOp) {
  BatchProcRequest req;
  req.pids = {1, 2};
  for (MsgType op : kProcOps) {
    req.what = op;
    EXPECT_TRUE(parse(serialize(req)).has_value());
  }
  req.what = MsgType::create_request;
  EXPECT_FALSE(parse(serialize(req)).has_value());
}

TEST(ProtocolReject, BatchCreateReplyListsMustPair) {
  BatchCreateReply rep;
  rep.pids = {2130, 2131};
  rep.statuses = {0};
  EXPECT_FALSE(parse(serialize(rep)).has_value());
  rep.statuses = {0, 0};
  EXPECT_TRUE(parse(serialize(rep)).has_value());
}

}  // namespace
}  // namespace dpm::daemon
