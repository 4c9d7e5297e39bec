// Mutation fuzzer for filter trace lines. Random records of all ten event
// types are rendered by the filter's own path, then each line is mutated:
// single bytes flipped, inserted or deleted (weighted toward separators,
// '\r', '=', '%', signs and digits), whole tokens dropped, duplicated or
// swapped, and digit runs stretched past 19 digits. On every mutated line,
// and on all of them concatenated, read_trace must give exactly the
// events of the Record path (parse_trace, then event_from_record), and a
// TraceTailer fed the same text in random chunks must give them too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analysis_testing.h"
#include "analysis/live/aggregator.h"
#include "analysis/trace_reader.h"
#include "meter/metermsgs.h"
#include "util/rng.h"

namespace dpm::analysis {
namespace {

using analysis_testing::Stamp;

constexpr int kLinesPerSeed = 12800;  // 8 seeds: 102,400 mutated lines

std::string random_name(util::Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0: return "";
    case 1: return std::to_string(rng.uniform(0, 300000));
    case 2: {
      // Digit runs the reader canonicalizes, or must not.
      static const char* const kRuns[] = {"007", "0", "-0", "-12", "00",
                                          "9223372036854775807",
                                          "9223372036854775808",
                                          "-9223372036854775808",
                                          "123456789012345678901"};
      return kRuns[rng.uniform(0, 8)];
    }
    default: {
      // Bytes the trace renderer escapes, and ones it does not.
      static const char kBytes[] = {' ', '%', '=', '\n', 'a', '7', '-', '#'};
      std::string s(static_cast<std::size_t>(rng.uniform(1, 6)), 'x');
      for (char& c : s) c = kBytes[rng.uniform(0, 7)];
      return s;
    }
  }
}

std::pair<Stamp, meter::MeterBody> random_event(util::Rng& rng) {
  Stamp st;
  st.machine = static_cast<std::uint16_t>(rng.uniform(0, 6));
  st.cpu_time = rng.uniform(-5, 2000000);
  st.proc_time = rng.uniform(0, 3) * 10000;
  const auto pid = static_cast<meter::Pid>(rng.uniform(1, 300));
  const auto pc = static_cast<std::uint32_t>(rng.uniform(0, 9));
  const auto sock = static_cast<meter::SocketId>(rng.uniform(0, 400));
  const auto len = static_cast<std::uint32_t>(rng.uniform(0, 4096));
  meter::MeterBody body;
  switch (rng.uniform(1, 10)) {
    case 1: body = meter::MeterSend{pid, pc, sock, len, random_name(rng)}; break;
    case 2: body = meter::MeterRecv{pid, pc, sock, len, random_name(rng)}; break;
    case 3: body = meter::MeterRecvCall{pid, pc, sock}; break;
    case 4: body = meter::MeterSockCrt{pid, pc, sock, 2, 1, 0}; break;
    case 5: body = meter::MeterDup{pid, pc, sock, sock + 1}; break;
    case 6: body = meter::MeterDestSock{pid, pc, sock}; break;
    case 7: body = meter::MeterFork{pid, pc, static_cast<meter::Pid>(pid + 1)}; break;
    case 8:
      body = meter::MeterAccept{pid, pc, sock, sock + 1, random_name(rng),
                                random_name(rng)};
      break;
    case 9:
      body = meter::MeterConnect{pid, pc, sock, random_name(rng),
                                 random_name(rng)};
      break;
    default:
      body = meter::MeterTermProc{pid, pc,
                                  static_cast<std::int32_t>(rng.uniform(-3, 3))};
      break;
  }
  return {st, body};
}

/// A byte, weighted toward the ones the line grammar gives meaning to.
char grammar_byte(util::Rng& rng) {
  static const char kBytes[] = {' ', '\t', '\r', '=', '%', '-', '+', '0',
                                '1', '9', 'a', 'F', '\v', '\n', '\0'};
  if (rng.bernoulli(0.15)) return static_cast<char>(rng.uniform(0, 255));
  return kBytes[rng.uniform(0, static_cast<std::int64_t>(sizeof kBytes) - 1)];
}

std::size_t at(util::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(size)));
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (c == ' ') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string join(const std::vector<std::string>& tokens, util::Rng& rng) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i != 0) out += rng.bernoulli(0.9) ? " " : "\t";
    out += tokens[i];
  }
  return out;
}

/// One mutation of `line` (no newline).
void mutate_once(util::Rng& rng, std::string& line) {
  switch (rng.uniform(0, 6)) {
    case 0:  // flip a byte
      if (!line.empty()) line[at(rng, line.size() - 1)] = grammar_byte(rng);
      break;
    case 1:  // insert a byte
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(at(rng, line.size())),
                  grammar_byte(rng));
      break;
    case 2:  // delete a byte
      if (!line.empty()) {
        line.erase(line.begin() +
                   static_cast<std::ptrdiff_t>(at(rng, line.size() - 1)));
      }
      break;
    case 3: {  // drop a token
      auto t = tokens_of(line);
      t.erase(t.begin() + static_cast<std::ptrdiff_t>(at(rng, t.size() - 1)));
      line = join(t, rng);
      break;
    }
    case 4: {  // duplicate a token elsewhere
      auto t = tokens_of(line);
      const std::string copy = t[at(rng, t.size() - 1)];
      t.insert(t.begin() + static_cast<std::ptrdiff_t>(at(rng, t.size())), copy);
      line = join(t, rng);
      break;
    }
    case 5: {  // swap two tokens
      auto t = tokens_of(line);
      std::swap(t[at(rng, t.size() - 1)], t[at(rng, t.size() - 1)]);
      line = join(t, rng);
      break;
    }
    default: {  // stretch a digit run past 19 digits
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] >= '0' && line[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) break;
      const std::size_t pos = digits[at(rng, digits.size() - 1)];
      std::string run(static_cast<std::size_t>(rng.uniform(12, 24)), '0');
      if (rng.bernoulli(0.6)) {
        for (char& c : run) c = static_cast<char>('0' + rng.uniform(0, 9));
      }
      line.insert(pos, run);
      break;
    }
  }
}

class TraceLineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceLineFuzz, ReaderRecordPathAndTailerAgree) {
  util::Rng rng(GetParam());
  std::vector<std::pair<Stamp, meter::MeterBody>> events;
  for (int i = 0; i < kLinesPerSeed; ++i) events.push_back(random_event(rng));
  const std::string rendered = analysis_testing::trace_text(events);

  std::string all;
  std::size_t start = 0;
  int lines = 0;
  while (start < rendered.size()) {
    const std::size_t nl = rendered.find('\n', start);
    std::string line = rendered.substr(start, nl - start);
    start = nl + 1;
    for (auto n = rng.uniform(1, 3); n > 0; --n) mutate_once(rng, line);
    line += '\n';
    ++lines;
    const std::string diff = analysis_testing::trace_diff(
        read_trace(line), analysis_testing::record_path(line));
    ASSERT_EQ(diff, "") << "line: " << ::testing::PrintToString(line);
    all += line;
  }
  ASSERT_EQ(lines, kLinesPerSeed);

  const Trace batch = read_trace(all);
  ASSERT_EQ(analysis_testing::trace_diff(batch, analysis_testing::record_path(all)),
            "");

  // The tailer, fed the same text in random chunks, parses the same
  // events (its aggregator numbers them by arrival, as read_trace does).
  struct Collect : live::LiveObserver {
    Trace got;
    void on_event(std::size_t index, const Event& e,
                  const NameTable& names) override {
      Event copy = e;
      copy.index = index;
      copy.dest_name = got.names.intern(names.text(e.dest_name));
      copy.source_name = got.names.intern(names.text(e.source_name));
      copy.sock_name = got.names.intern(names.text(e.sock_name));
      copy.peer_name = got.names.intern(names.text(e.peer_name));
      got.events.push_back(copy);
    }
  } collect;
  live::LiveAnalysis live;
  live.add_observer(&collect);
  live::TraceTailer tailer(live);
  for (std::size_t pos = 0; pos < all.size();) {
    const auto n = static_cast<std::size_t>(rng.uniform(1, 300));
    tailer.feed(std::string_view(all).substr(pos, n));
    pos += n;
  }
  tailer.finish();
  collect.got.malformed = tailer.malformed();
  ASSERT_EQ(analysis_testing::trace_diff(collect.got, batch), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceLineFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace dpm::analysis
