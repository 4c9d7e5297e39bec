// The four filter programs run directly, without a controller: how each
// fails at startup (exit status and output, byte for byte), and how the
// aggregator treats a connection that loses its framing or ends
// mid-record.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "filter/count_filter.h"
#include "filter/descriptions.h"
#include "filter/fanin.h"
#include "filter/filter_program.h"
#include "filter/templates.h"
#include "meter/metermsgs.h"
#include "testing.h"

namespace dpm {
namespace {

struct Exit {
  int status = -1;
  std::string out;  // the program's stdout
};

/// Runs `main` on yellow with stdout on a host pipe. When `held` is set, a
/// holder process binds and listens on that port first.
Exit run_program(const std::string& name, kernel::ProcessMain main,
                 std::optional<net::Port> held = std::nullopt) {
  kernel::World world(dpm::testing::quick_config(61));
  const auto yellow = dpm::testing::add_machines(world, {"yellow"})[0];
  world.add_account_everywhere(100);
  world.machine(yellow).fs.put_text("desc",
                                    filter::default_descriptions_text());
  world.machine(yellow).fs.put_text("templ", filter::default_templates_text());
  if (held) {
    (void)world.spawn(yellow, "holder", 100, [port = *held](kernel::Sys& sys) {
      auto s =
          sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
      ASSERT_TRUE(s.ok());
      ASSERT_TRUE(sys.bind_port(*s, port).ok());
      ASSERT_TRUE(sys.listen(*s, 1).ok());
      sys.sleep(util::sec(1));
    });
    world.run_for(util::msec(1));
  }
  auto out = std::make_shared<kernel::HostPipe>();
  kernel::SpawnOpts opts;
  opts.stdout_fd = kernel::Descriptor::for_pipe(out);
  const auto pid = world.spawn(yellow, name, 100, std::move(main), opts);
  EXPECT_TRUE(pid.ok());
  world.run();
  Exit e;
  e.out = out->host_drain();
  if (const kernel::Process* p = world.find_process(yellow, *pid)) {
    e.status = p->exit_status;
  }
  return e;
}

Exit stdfilter(const std::string& port, std::optional<net::Port> held = {}) {
  return run_program("stdfilter",
                     filter::make_filter_main(
                         {"stdfilter", "log", "desc", "templ", port}),
                     held);
}
Exit countfilter(const std::string& port,
                 std::optional<net::Port> held = {}) {
  return run_program("countfilter",
                     filter::make_count_filter_main(
                         {"countfilter", "summary", "desc", "templ", port}),
                     held);
}
Exit localfilter(const std::string& port, const std::string& parent_port,
                 std::optional<net::Port> held = {}) {
  return run_program("localfilter",
                     filter::make_localfilter_main({"localfilter", "desc",
                                                    "templ", port, "yellow",
                                                    parent_port}),
                     held);
}
Exit aggregator(const std::string& port, const std::string& parent_port,
                std::optional<net::Port> held = {}) {
  return run_program(
      "aggregator",
      filter::make_aggregator_main({"aggregator", port, "yellow", parent_port}),
      held);
}

/// Each failed start: exit status 1 and exactly the expected output.
void expect_exits_one(const std::vector<std::pair<Exit, std::string>>& cases) {
  for (const auto& [e, want] : cases) {
    EXPECT_EQ(e.status, 1) << want;
    EXPECT_EQ(e.out, want);
  }
}

TEST(FilterProgramsTest, BadPortExitsOne) {
  expect_exits_one({
      {stdfilter("0"), "filter: bad port\n"},
      {countfilter("65536"), "countfilter: bad port\n"},
      {localfilter("x", "4900"), "localfilter: bad port\n"},
      {localfilter("4870", "-1"), "localfilter: bad port\n"},
      {aggregator("0", "4900"), "aggregator: bad port\n"},
      {aggregator("4870", ""), "aggregator: bad port\n"},
  });
}

TEST(FilterProgramsTest, TakenPortExitsOne) {
  // Every filter program names itself and the port it could not bind.
  expect_exits_one({
      {stdfilter("4870", 4870), "filter: cannot bind meter port\n"},
      {countfilter("4870", 4870), "countfilter: cannot bind meter port\n"},
      {localfilter("4870", "4900", 4870),
       "localfilter: cannot bind meter port\n"},
      {aggregator("4870", "4900", 4870),
       "aggregator: cannot bind meter port\n"},
  });
}

TEST(FilterProgramsTest, UnreachableParentExitsOne) {
  // Nothing listens on the parent port.
  expect_exits_one({
      {localfilter("4870", "4900"), "localfilter: parent unreachable\n"},
      {aggregator("4870", "4900"), "aggregator: parent unreachable\n"},
  });
}

/// An aggregator on yellow:4870 under a parent on yellow:4900 that keeps
/// every byte forwarded to it, and one child connection that sends
/// `bytes` in a single send and then closes.
struct AggregatorRun {
  util::Bytes forwarded;
  std::uint64_t records_in = 0;
  std::uint64_t desyncs = 0;
  std::uint64_t truncated = 0;
};

AggregatorRun feed_aggregator(const util::Bytes& bytes) {
  kernel::World world(dpm::testing::quick_config(62));
  const auto yellow = dpm::testing::add_machines(world, {"yellow"})[0];
  world.add_account_everywhere(100);
  AggregatorRun run;
  (void)world.spawn(yellow, "parent", 100, [&run](kernel::Sys& sys) {
    auto ls =
        sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    ASSERT_TRUE(ls.ok());
    ASSERT_TRUE(sys.bind_port(*ls, 4900).ok());
    ASSERT_TRUE(sys.listen(*ls, 1).ok());
    auto conn = sys.accept(*ls);
    ASSERT_TRUE(conn.ok());
    for (;;) {
      auto d = sys.recv(*conn, 8192);
      if (!d.ok() || d->empty()) break;
      run.forwarded.insert(run.forwarded.end(), d->begin(), d->end());
    }
  });
  (void)world.spawn(
      yellow, "aggregator", 100,
      filter::make_aggregator_main({"aggregator", "4870", "yellow", "4900"}));
  (void)world.spawn(yellow, "child", 100, [&bytes](kernel::Sys& sys) {
    sys.sleep(util::msec(5));  // let the aggregator listen
    auto addr = sys.resolve("yellow", 4870);
    ASSERT_TRUE(addr.has_value());
    auto fd =
        sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());
    ASSERT_TRUE(sys.send(*fd, bytes).ok());
    (void)sys.close(*fd);
  });
  world.run();
  obs::Registry& reg = world.obs();
  run.records_in = reg.counter("aggregator.records_in").value();
  run.desyncs = reg.counter("aggregator.desyncs").value();
  run.truncated = reg.counter("aggregator.truncated").value();
  return run;
}

util::Bytes send_record(std::int32_t pid) {
  meter::MeterMsg m;
  m.header.machine = 0;
  m.body = meter::MeterSend{
      .pid = pid, .pc = 1, .sock = 3, .msg_length = 64, .dest_name = "d"};
  return m.serialize();
}

TEST(AggregatorTest, BadSizeWordDropsTheRestOfTheRead) {
  // A valid record, then a frame whose size word is 3 (below the header
  // size), then another valid record: the first is forwarded, and the
  // rest of the read is dropped.
  const util::Bytes first = send_record(7);
  util::Bytes bytes = first;
  for (std::uint8_t b : {3, 0, 0, 0}) bytes.push_back(b);
  const util::Bytes after = send_record(8);
  bytes.insert(bytes.end(), after.begin(), after.end());

  const AggregatorRun run = feed_aggregator(bytes);
  EXPECT_EQ(run.forwarded, first);
  EXPECT_EQ(run.records_in, 1u);
  EXPECT_EQ(run.desyncs, 1u);
  EXPECT_EQ(run.truncated, 0u);
}

TEST(AggregatorTest, ChildClosingMidRecordCountsTruncated) {
  const util::Bytes record = send_record(7);
  const util::Bytes half(record.begin(),
                         record.begin() +
                             static_cast<std::ptrdiff_t>(record.size() / 2));
  const AggregatorRun run = feed_aggregator(half);
  EXPECT_TRUE(run.forwarded.empty());
  EXPECT_EQ(run.records_in, 0u);
  EXPECT_EQ(run.desyncs, 0u);
  EXPECT_EQ(run.truncated, 1u);
}

}  // namespace
}  // namespace dpm
