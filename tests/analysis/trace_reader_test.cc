#include "analysis/trace_reader.h"

#include <gtest/gtest.h>

#include <memory>

#include "analysis_testing.h"
#include "filter/trace.h"
#include "util/rng.h"

namespace dpm::analysis {
namespace {

using analysis_testing::record_path;
using analysis_testing::Stamp;

void expect_same_events(const Trace& got, const Trace& want,
                        const std::string& text) {
  EXPECT_EQ(got.malformed, want.malformed) << text;
  ASSERT_EQ(got.events.size(), want.events.size()) << text;
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    const Event& a = got.events[i];
    const Event& b = want.events[i];
    SCOPED_TRACE("event " + std::to_string(i) + " of:\n" + text);
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
    EXPECT_EQ(got.names.text(a.dest_name), want.names.text(b.dest_name));
    EXPECT_EQ(got.names.text(a.source_name), want.names.text(b.source_name));
    EXPECT_EQ(got.names.text(a.sock_name), want.names.text(b.sock_name));
    EXPECT_EQ(got.names.text(a.peer_name), want.names.text(b.peer_name));
    EXPECT_EQ(a.index, b.index);
  }
}

TEST(TraceReader, NameTableInternsEachNameOnce) {
  NameTable names;
  EXPECT_EQ(names.intern(""), 0u);
  const NameId a = names.intern("196612");
  const NameId b = names.intern("/tmp/sock");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(names.intern("196612"), a);
  EXPECT_EQ(names.text(a), "196612");
  EXPECT_EQ(names.text(0), "");
  // A copy keeps the ids and its own index: it outlives the original.
  auto original = std::make_unique<NameTable>(names);
  NameTable copy = *original;
  original.reset();
  EXPECT_EQ(copy.intern("/tmp/sock"), b);
  EXPECT_EQ(copy.text(b), "/tmp/sock");
  const NameId c = copy.intern("131073");
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
}

TEST(TraceReader, MatchesRecordPath) {
  // One record of every event type, rendered by the filter's own path;
  // the names carry characters the renderer must escape.
  const std::string rendered = analysis_testing::trace_text({
      {Stamp{1, 100, 10000}, meter::MeterSend{5, 1, 7, 64, "a b"}},
      {Stamp{2, -40, 0}, meter::MeterRecv{6, 2, 8, 64, "c%d=e"}},
      {Stamp{2, 90, 0}, meter::MeterRecvCall{6, 3, 8}},
      {Stamp{1, 110, 0}, meter::MeterSockCrt{5, 4, 9, 2, 1, 0}},
      {Stamp{1, 120, 0}, meter::MeterDup{5, 5, 9, 10}},
      {Stamp{1, 130, 0}, meter::MeterDestSock{5, 6, 10}},
      {Stamp{1, 140, 0}, meter::MeterFork{5, 7, 11}},
      {Stamp{2, 150, 0}, meter::MeterAccept{6, 8, 3, 12, "2001", "1001"}},
      {Stamp{1, 160, 0}, meter::MeterConnect{5, 9, 7, "1001", "2001"}},
      {Stamp{1, 170, 20000}, meter::MeterTermProc{5, 10, -3}},
  });
  std::vector<std::string> lines = {
      "event=SEND\tmachine=3\tpid=4 \t sock=9\n",          // tabs
      "event=RECEIVE machine=1 pid=2\r\n",                 // CRLF
      "event=SEND machine=1\rpid=2 sock=3\n",              // inner CR
      "event=SEND machine=1 machine=2 pid=5\n",            // first wins
      "event=SEND destName=x destName=y pid=abc pid=6\n",  // first wins
      "event=BOGUS event=SEND pid=1\n",                    // last event wins
      "event=SEND event=BOGUS pid=1\n",
      "event=SEND event= pid=1\n",
      "event=%53END pid=7 size=54 traceType=1 domain=2 foo=bar\n",
      "event=SEND destName=%41%42%3 sourceName=%zz% pid=%35\n",
      "event=SEND destName=a%-fb sourceName=%4A%4a\n",
      "event=CONNECT sockName=007 peerName=-0 sock=+5\n",
      "event=ACCEPT sockName=a=b ma%63hine=4 machine=70000\n",
      "machine=1 pid=2\n",  // no event
      "=5 event=SEND\n",    // leading '='
      "event=SEND machine\n",
      "event=SEND destName= pid= machine=\n",  // empty values
      "event=fork newPid=99999999999 pc=-1\n",
      "  \t  \n# comment\n\n",
  };
  // Plus random lines of name=value tokens built from the pieces the
  // cases above use, now and then missing their '=' or naming nothing.
  static const char* const kNames[] = {
      "event", "machine", "pid", "sock", "destName", "sockName", "size", "",
  };
  static const char* const kValues[] = {
      "SEND", "receive", "Bogus", "0", "007", "-3", "+5", "99999999999",
      "a", "=", "%", "%4", "%41", "%-f", "%zz", "",
  };
  util::Rng rng(14);
  auto pick = [&rng](const auto& table) {
    const auto last = static_cast<std::int64_t>(std::size(table)) - 1;
    return table[rng.uniform(0, last)];
  };
  for (int i = 0; i < 400; ++i) {
    std::string line = rng.bernoulli(0.7) ? "event=SEND" : "event=";
    for (auto n = rng.uniform(1, 8); n > 0; --n) {
      line += rng.bernoulli(0.8) ? " " : "\t";
      if (rng.bernoulli(0.97)) line += pick(kNames);
      if (rng.bernoulli(0.97)) line += "=";
      for (auto k = rng.uniform(0, 2); k > 0; --k) line += pick(kValues);
    }
    if (rng.bernoulli(0.1)) line += "\r";
    lines.push_back(line + "\n");
  }
  expect_same_events(read_trace(rendered), record_path(rendered), rendered);
  std::string all = rendered;
  for (const std::string& line : lines) {
    expect_same_events(read_trace(line), record_path(line), line);
    all += line;
  }
  expect_same_events(read_trace(all), record_path(all), all);
}

}  // namespace
}  // namespace dpm::analysis
