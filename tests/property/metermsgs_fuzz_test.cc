// Property tests for the meter message wire format: random messages
// round-trip bit-exactly; arbitrary bytes, flips and truncations never
// crash or mis-parse.
#include <gtest/gtest.h>

#include "meter/metermsgs.h"
#include "util/rng.h"

namespace dpm::meter {
namespace {

std::string random_name(util::Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0: return "";
    case 1: return std::to_string(rng.uniform(0, 1u << 30));
    case 2: return "/tmp/sock" + std::to_string(rng.uniform(0, 99));
    case 3: return "fd#" + std::to_string(rng.uniform(1, 1 << 20));
    default: {
      // Arbitrary bytes: names are counted, so embedded and trailing NULs
      // must survive the round trip.
      std::string s(static_cast<std::size_t>(rng.uniform(1, 16)), '\0');
      for (char& c : s) c = static_cast<char>(rng.uniform(0, 255));
      if (rng.bernoulli(0.5)) s.back() = '\0';
      return s;
    }
  }
}

MeterMsg random_msg(util::Rng& rng) {
  MeterMsg m;
  const Pid pid = static_cast<Pid>(rng.uniform(1, 1 << 20));
  const auto pc = static_cast<std::uint32_t>(rng.uniform(0, 1 << 30));
  const auto sock = static_cast<SocketId>(rng.uniform(1, 1 << 24));
  switch (rng.uniform(1, 10)) {
    case 1:
      m.body = MeterSend{pid, pc, sock,
                         static_cast<std::uint32_t>(rng.uniform(0, 1 << 16)),
                         random_name(rng)};
      break;
    case 2:
      m.body = MeterRecv{pid, pc, sock,
                         static_cast<std::uint32_t>(rng.uniform(0, 1 << 16)),
                         random_name(rng)};
      break;
    case 3: m.body = MeterRecvCall{pid, pc, sock}; break;
    case 4:
      m.body = MeterSockCrt{pid, pc, sock,
                            static_cast<std::uint32_t>(rng.uniform(1, 3)),
                            static_cast<std::uint32_t>(rng.uniform(1, 2)), 0};
      break;
    case 5: m.body = MeterDup{pid, pc, sock, sock + 1}; break;
    case 6: m.body = MeterDestSock{pid, pc, sock}; break;
    case 7: m.body = MeterFork{pid, pc, pid + 1}; break;
    case 8:
      m.body = MeterAccept{pid, pc, sock, sock + 1, random_name(rng),
                           random_name(rng)};
      break;
    case 9:
      m.body = MeterConnect{pid, pc, sock, random_name(rng), random_name(rng)};
      break;
    default:
      m.body = MeterTermProc{pid, pc,
                             static_cast<std::int32_t>(rng.uniform(-1, 255))};
      break;
  }
  m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 64));
  m.header.cpu_time = rng.uniform(-1000000, 1000000000);
  m.header.proc_time = rng.uniform(0, 100000000) / 10000 * 10000;
  return m;
}

class MeterMsgFuzz : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MeterMsgFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST_P(MeterMsgFuzz, RoundTripIsExact) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    MeterMsg m = random_msg(rng);
    auto wire = m.serialize();
    auto parsed = MeterMsg::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type(), m.type());
    EXPECT_EQ(parsed->header.machine, m.header.machine);
    EXPECT_EQ(parsed->header.cpu_time, m.header.cpu_time);
    EXPECT_EQ(parsed->header.proc_time, m.header.proc_time);
    EXPECT_EQ(parsed->serialize(), wire);  // canonical
  }
}

TEST_P(MeterMsgFuzz, TruncationNeverParsesAsComplete) {
  util::Rng rng(GetParam() + 100);
  for (int i = 0; i < 50; ++i) {
    MeterMsg m = random_msg(rng);
    auto wire = m.serialize();
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
      util::Bytes partial(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
      std::size_t pos = 0;
      EXPECT_FALSE(MeterMsg::parse_stream(partial, pos).has_value());
      EXPECT_EQ(pos, 0u);
    }
  }
}

TEST_P(MeterMsgFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam() + 200);
  for (int i = 0; i < 500; ++i) {
    util::Bytes junk(static_cast<std::size_t>(rng.uniform(0, 200)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    std::size_t pos = 0;
    // Either a (coincidental) parse or a clean rejection — never a crash
    // or an out-of-bounds read.
    (void)MeterMsg::parse_stream(junk, pos);
    EXPECT_LE(pos, junk.size());
  }
}

TEST_P(MeterMsgFuzz, FlippedBytesParseOnlyAsThemselves) {
  // Flips of 1-4 bytes. A record's last field must end it, so a flipped
  // length cannot leave a shorter record with an unread tail: every
  // accepted record is canonical and re-serializes to exactly its input.
  util::Rng rng(GetParam() + 400);
  std::size_t accepted = 0;
  for (int i = 0; i < 200; ++i) {
    const util::Bytes wire = random_msg(rng).serialize();
    for (int flip = 0; flip < 20; ++flip) {
      util::Bytes bad = wire;
      const int n = static_cast<int>(rng.uniform(1, 4));
      for (int k = 0; k < n; ++k) {
        const auto at = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(bad.size()) - 1));
        bad[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
      }
      if (auto m = MeterMsg::parse(bad)) {
        ++accepted;
        EXPECT_EQ(m->serialize(), bad);
      }
    }
  }
  // Flips of field values (not sizes, lengths or the type) leave valid
  // records, so some must have been accepted.
  EXPECT_GT(accepted, 0u);
}

TEST_P(MeterMsgFuzz, StreamOfManyMessagesReassembles) {
  util::Rng rng(GetParam() + 300);
  std::vector<MeterMsg> msgs;
  util::Bytes wire;
  for (int i = 0; i < 64; ++i) {
    msgs.push_back(random_msg(rng));
    auto one = msgs.back().serialize();
    wire.insert(wire.end(), one.begin(), one.end());
  }
  std::size_t pos = 0;
  std::size_t count = 0;
  while (auto m = MeterMsg::parse_stream(wire, pos)) {
    ASSERT_LT(count, msgs.size());
    EXPECT_EQ(m->type(), msgs[count].type());
    ++count;
  }
  EXPECT_EQ(count, msgs.size());
  EXPECT_EQ(pos, wire.size());
}

}  // namespace
}  // namespace dpm::meter
