// The live sink's wire-view conversion against the Record one: for random
// records of all ten event types, under the standard descriptions and
// under descriptions that name fewer fields, omit a string, read a socket
// name from an integer field or name no meter event,
// event_from_view(view) must equal event_from_record(decode(view)) field
// by field, and hand a name table the same ids in the same order.
#include <gtest/gtest.h>

#include <string>

#include "analysis/trace_reader.h"
#include "meter/metermsgs.h"
#include "util/rng.h"

namespace dpm::analysis {
namespace {

// Fewer fields: SEND without its destination, RECEIVE keeping only the
// source's length, ACCEPT and CONNECT each with one of their two names,
// DESTSOCK undescribed.
const char* const kFewerFields =
    "SEND 1, pid,0,4,10 msgLength,16,4,10\n"
    "RECEIVE 2, pid,0,4,10 pc,4,4,10 sock,8,8,10 sourceNameLen,20,4,10\n"
    "RECVCALL 3, sock,8,8,10\n"
    "SOCKET 4, pid,0,4,10\n"
    "DUP 5, pid,0,4,10 newSock,16,8,10\n"
    "FORK 7, newPid,8,4,10\n"
    "ACCEPT 8, pid,0,4,10 sock,8,8,10 newSock,16,8,10 sockNameLen,24,4,10 "
    "peerNameLen,28,4,10 sockName,32,0,0\n"
    "CONNECT 9, pid,0,4,10 sockNameLen,16,4,10 peerNameLen,20,4,10 "
    "sockName,24,0,0\n"
    "TERMPROC 10, status,8,4,10\n";

// Odd but valid layouts: socket names read from integer fields, a pid
// read as a counted string, CONNECT's two names read in swapped order,
// and a type whose name is no meter event (both converters refuse it).
const char* const kOddLayouts =
    "send 1, pidLen,0,4,10 destName,8,8,10 pid,24,0,0\n"
    "Receive 2, pid,0,4,10 sourceName,16,4,16 msgLength,20,4,10\n"
    "BOGUS 3, pid,0,4,10\n"
    "FORK 7, pid,0,4,10 peerName,8,4,10\n"
    "CONNECT 9, pid,0,4,10 sockNameLen,16,4,10 peerNameLen,20,4,10 "
    "peerName,24,0,0 sockName,24,0,0\n"
    "TERMPROC 10, pid,0,4,10 status,8,4,10\n";

std::string random_name(util::Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0: return "";
    case 1: return "228320140";
    case 2: return std::to_string(rng.uniform(0, 300000));
    case 3: return "007";
    default: {
      static const char kBytes[] = {' ', '%', '=', 'a', '7', '\0', '#', '-'};
      std::string s(static_cast<std::size_t>(rng.uniform(1, 6)), 'x');
      for (char& c : s) c = kBytes[rng.uniform(0, 7)];
      return s;
    }
  }
}

util::Bytes random_record(util::Rng& rng) {
  meter::MeterMsg m;
  const auto pid = static_cast<meter::Pid>(rng.uniform(-2, 30));
  const auto sock = static_cast<meter::SocketId>(rng.uniform(0, 8));
  const auto len = static_cast<std::uint32_t>(rng.uniform(0, 70000));
  switch (rng.uniform(1, 10)) {
    case 1:
      m.body = meter::MeterSend{pid, 7, sock, len, random_name(rng)};
      break;
    case 2:
      m.body = meter::MeterRecv{pid, 7, sock, len, random_name(rng)};
      break;
    case 3: m.body = meter::MeterRecvCall{pid, 7, sock}; break;
    case 4: m.body = meter::MeterSockCrt{pid, 7, sock, 1, 2, 0}; break;
    case 5: m.body = meter::MeterDup{pid, 7, sock, sock + 1}; break;
    case 6: m.body = meter::MeterDestSock{pid, 7, sock}; break;
    case 7:
      m.body = meter::MeterFork{pid, 7, static_cast<meter::Pid>(pid + 1)};
      break;
    case 8:
      m.body = meter::MeterAccept{pid, 7, sock, sock + 1, random_name(rng),
                                  random_name(rng)};
      break;
    case 9:
      m.body = meter::MeterConnect{pid, 7, sock, random_name(rng),
                                   random_name(rng)};
      break;
    default:
      m.body = meter::MeterTermProc{
          pid, 7, static_cast<std::int32_t>(rng.uniform(-1, 3))};
      break;
  }
  m.header.machine = static_cast<std::uint16_t>(rng.uniform(0, 65535));
  m.header.cpu_time = rng.uniform(-50, 1LL << 40);
  m.header.proc_time = rng.uniform(0, 1 << 20);
  util::Bytes wire = m.serialize();
  if (rng.bernoulli(0.2)) {
    // A byte past the header: some records stop validating, others carry
    // odd values (a negative length, a name that reads as a number).
    const auto at = static_cast<std::size_t>(
        rng.uniform(static_cast<std::int64_t>(meter::kHeaderSize),
                    static_cast<std::int64_t>(wire.size()) - 1));
    wire[at] = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  return wire;
}

void expect_same_event(const Event& a, const Event& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.cpu_time, b.cpu_time);
  EXPECT_EQ(a.proc_time, b.proc_time);
  EXPECT_EQ(a.pid, b.pid);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.sock, b.sock);
  EXPECT_EQ(a.new_sock, b.new_sock);
  EXPECT_EQ(a.msg_length, b.msg_length);
  EXPECT_EQ(a.new_pid, b.new_pid);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.dest_name, b.dest_name);
  EXPECT_EQ(a.source_name, b.source_name);
  EXPECT_EQ(a.sock_name, b.sock_name);
  EXPECT_EQ(a.peer_name, b.peer_name);
}

class EventFromView : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, EventFromView,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST_P(EventFromView, EqualsTheDecodedRecordsEvent) {
  for (const char* text :
       {filter::default_descriptions_text().c_str(), kFewerFields,
        kOddLayouts}) {
    SCOPED_TRACE(text);
    filter::DescriptionError error;
    const auto desc = filter::Descriptions::parse(text, &error);
    ASSERT_TRUE(desc.has_value()) << error.message;
    util::Rng rng(GetParam() * 6151 + 17);
    // One table per path, kept across the records: equal ids mean both
    // paths interned the same names in the same order.
    NameTable by_view;
    NameTable by_view_rewalked;
    NameTable by_record;
    int converted = 0;
    for (int i = 0; i < 400; ++i) {
      const util::Bytes wire = random_record(rng);
      SCOPED_TRACE("record " + std::to_string(i));
      const auto v = filter::make_record_view(wire.data(), wire.size());
      ASSERT_TRUE(v.has_value());
      const auto rec = desc->decode(wire);
      const filter::WirePlan* plan = desc->wire_plan(v->type);
      if (plan == nullptr) {
        EXPECT_FALSE(rec.has_value());
        continue;
      }
      std::string_view strings[filter::WirePlan::kMaxStringFields];
      ASSERT_EQ(plan->validate(*v, strings), rec.has_value());
      if (!rec) continue;

      const auto from_view = event_from_view(*v, *plan, strings, by_view);
      const auto rewalked =
          event_from_view(*v, *plan, nullptr, by_view_rewalked);
      const auto from_record = event_from_record(*rec);
      ASSERT_EQ(from_view.has_value(), from_record.has_value());
      ASSERT_EQ(rewalked.has_value(), from_record.has_value());
      if (!from_record) continue;
      ++converted;
      const Event want = from_record->interned(by_record);
      expect_same_event(*from_view, want);
      expect_same_event(*rewalked, want);
      EXPECT_EQ(by_view.text(from_view->dest_name), from_record->dest_name);
      EXPECT_EQ(by_view.text(from_view->source_name),
                from_record->source_name);
      EXPECT_EQ(by_view.text(from_view->sock_name), from_record->sock_name);
      EXPECT_EQ(by_view.text(from_view->peer_name), from_record->peer_name);
      if (HasFailure()) return;
    }
    EXPECT_GT(converted, 100);
  }
}

}  // namespace
}  // namespace dpm::analysis
