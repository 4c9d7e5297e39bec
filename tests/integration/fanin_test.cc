// The fan-in tier end to end: tree construction and record carriage,
// edge selection counts, the metertap/meter_forward syscall contract,
// provenance samples carried through forwarders that share a CPU, and the
// controller's one-request-per-machine job ops (DESIGN.md §11).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/ordering.h"
#include "analysis/predicates/service.h"
#include "analysis/trace_reader.h"
#include "apps/apps.h"
#include "control/session.h"
#include "kernel/syscalls.h"
#include "meter/metermsgs.h"
#include "testing.h"
#include "util/strings.h"

namespace dpm {
namespace {

using util::Err;

std::size_t count_substr(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// A hub plus g1..gN with the monitor booted and a session on hub.
struct FanInWorld {
  explicit FanInWorld(int n, std::uint64_t seed = 4242)
      : world(dpm::testing::quick_config(seed)) {
    std::vector<std::string> names{"hub"};
    for (int i = 1; i <= n; ++i) names.push_back("g" + std::to_string(i));
    machines = dpm::testing::add_machines(world, names);
    control::install_monitor(world);
    apps::install_everywhere(world);
    control::spawn_meterdaemons(world);
    session = std::make_unique<control::MonitorSession>(
        world, control::MonitorSession::Options{.host = "hub", .uid = 100});
    world.run();
    (void)session->drain_output();
  }

  kernel::World world;
  std::vector<kernel::MachineId> machines;
  std::unique_ptr<control::MonitorSession> session;
};

TEST(FanInTest, TreeBuildsAndCarriesRecords) {
  FanInWorld w(6);
  auto& s = *w.session;
  (void)s.command("filter f1 hub");
  // 6 leaves at arity 2 group into 3 aggregators, then 2, then the root:
  // 5 interior nodes, 4 tiers of machines end to end.
  const std::string out = s.command("fanin f1 2 g 1 6");
  EXPECT_NE(out.find("fanin 'f1': 6 local filters (0 failed), "
                     "5 aggregators (0 failed), depth 4"),
            std::string::npos)
      << out;

  (void)s.command("newjob big");
  (void)s.command("addprocess big g2 pingpong_server 5600 6");
  (void)s.command("addprocess big g5 pingpong_client g2 5600 6 32");
  (void)s.command("setflags big all");
  (void)s.command("startjob big");
  w.world.run();

  // Records really crossed the tree and every hop is accounted for.
  const kernel::FanInConservation fic = w.world.fanin_conservation();
  EXPECT_GT(fic.forwarded, 0u);
  EXPECT_TRUE(fic.balanced())
      << "forwarded=" << fic.forwarded << " accounted=" << fic.accounted()
      << " consumed=" << fic.consumed << " lost=" << fic.lost
      << " overflow=" << fic.overflow << " stranded=" << fic.stranded
      << " malformed=" << fic.malformed << " buffered=" << fic.buffered;
  EXPECT_TRUE(w.world.meter_conservation().balanced());

  // The root renders forwarded records into an ordinary, well-formed log.
  (void)s.command("getlog f1 t");
  auto text = w.world.machine(w.machines[0]).fs.read_text("t");
  ASSERT_TRUE(text.has_value());
  analysis::Trace trace = analysis::read_trace(*text);
  EXPECT_EQ(trace.malformed, 0u);
  EXPECT_GT(trace.events.size(), 0u);
}

TEST(FanInTest, LocalFiltersSelectExactly) {
  FanInWorld w(4);
  auto& s = *w.session;
  // Accept only the large sends: 1-in-`every` of each burst_sender's
  // datagrams, so the accepted count is exact and loss-free.
  w.world.machine_by_name("hub")->fs.put_text(
      "tmpl_big", "machine=#*, pid=#*, type=1, msgLength>256\n");
  (void)s.command("filter f1 hub filter descriptions tmpl_big");
  const std::string out = s.command("fanin f1 2 g 1 4");
  EXPECT_EQ(count_substr(out, "(0 failed)"), 2u) << out;

  constexpr int kCount = 24, kEvery = 4;
  (void)s.command("newjob send");
  (void)s.command("setflags send send");
  (void)s.command(util::strprintf(
      "addgroup send g 1 4 1 burst_sender self 9 %d 64 512 %d 300", kCount,
      kEvery));
  const auto a0 = w.world.obs().counter("filter.accepted").value();
  (void)s.command("startjob send");
  w.world.run();
  const auto accepted = w.world.obs().counter("filter.accepted").value() - a0;

  // 4 senders x ceil(24/4) large datagrams each, all surviving selection.
  EXPECT_EQ(accepted, 4u * ((kCount + kEvery - 1) / kEvery));
  EXPECT_TRUE(w.world.fanin_conservation().balanced());
  EXPECT_TRUE(w.world.meter_conservation().balanced());
}

TEST(FanInTest, MeterForwardSyscallContract) {
  kernel::World world(dpm::testing::quick_config(7));
  auto machines = dpm::testing::add_machines(world, {"red", "green"});
  world.add_account_everywhere(100);

  // A framed tier-1 batch: two wire records, each self-framing (leading
  // u32 size), exactly as a local filter re-frames accepted bytes.
  meter::MeterMsg m1;
  m1.header.machine = 1;
  m1.body = meter::MeterSend{
      .pid = 7, .pc = 1, .sock = 3, .msg_length = 64, .dest_name = {}};
  meter::MeterMsg m2;
  m2.header.machine = 1;
  m2.body = meter::MeterRecv{
      .pid = 8, .pc = 2, .sock = 4, .msg_length = 64, .source_name = {}};
  util::Bytes batch = m1.serialize();
  const util::Bytes second = m2.serialize();
  batch.insert(batch.end(), second.begin(), second.end());
  const std::size_t batch_bytes = batch.size();

  std::size_t drained = 0;
  auto sr = world.spawn(machines[0], "up", 100, [&](kernel::Sys& sys) {
    auto ls = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    ASSERT_TRUE(ls.ok());
    ASSERT_TRUE(sys.bind_port(*ls, 4800).ok());
    ASSERT_TRUE(sys.listen(*ls, 1).ok());
    auto conn = sys.accept(*ls);
    ASSERT_TRUE(conn.ok());
    while (drained < batch_bytes) {
      auto d = sys.recv(*conn, batch_bytes - drained);
      if (!d.ok() || d->empty()) break;
      drained += d->size();
    }
  });
  ASSERT_TRUE(sr.ok());

  auto cr = world.spawn(machines[1], "down", 100, [&](kernel::Sys& sys) {
    // Untapped datagram socket: metertap wants a connected stream.
    auto dg = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::dgram);
    ASSERT_TRUE(dg.ok());
    EXPECT_EQ(sys.metertap(*dg).error(), Err::einval);

    auto fd = sys.socket(kernel::SockDomain::internet,
                         kernel::SockType::stream);
    ASSERT_TRUE(fd.ok());
    EXPECT_EQ(sys.metertap(*fd).error(), Err::enotconn);

    sys.sleep(util::msec(5));  // let the upstream bind
    auto addr = sys.resolve("red", 4800);
    ASSERT_TRUE(addr.has_value());
    ASSERT_TRUE(sys.connect(*fd, *addr).ok());

    // Forwarding on an untapped edge is refused; tapping converts it.
    EXPECT_EQ(sys.meter_forward(*fd, batch, 2).error(),
              Err::einval);
    ASSERT_TRUE(sys.metertap(*fd).ok());
    ASSERT_TRUE(sys.meter_forward(*fd, batch, 2).ok());
  });
  ASSERT_TRUE(cr.ok());

  world.run();
  EXPECT_EQ(drained, batch_bytes);
  const kernel::FanInConservation fic = world.fanin_conservation();
  EXPECT_EQ(fic.forwarded, 2u);
  EXPECT_EQ(fic.consumed, 2u);
  EXPECT_TRUE(fic.balanced());
}

TEST(FanInTest, ForwardersSharingACpuKeepTheirOwnSamples) {
  // `fanin f1 2 g 1 4` hosts the aggregator over g1 and g2 on g1 and the
  // one over g3 and g4 on g3, each beside that machine's local filter: two
  // forwarders per machine, which park for its one CPU inside
  // meter_forward while the other stages and forwards its own batch. With
  // every record traced, each sample must ride the batch it was staged
  // into: none is dropped, every journey makes both hops, and all
  // journeys from one meter edge leave by the same local filter's uplink.
  kernel::WorldConfig cfg = dpm::testing::quick_config(4242);
  cfg.prov_sample_period = 1;
  kernel::World world(cfg);
  (void)dpm::testing::add_machines(world, {"hub", "g1", "g2", "g3", "g4"});
  control::install_monitor(world);
  apps::install_everywhere(world);
  world.add_account_everywhere(100);
  control::spawn_meterdaemons(world);
  auto live = analysis::pred::install_live_predicates(
      world, analysis::pred::standard_descriptions());
  control::MonitorSession s(world, {.host = "hub", .uid = 100});
  world.run();
  (void)s.drain_output();

  (void)s.command("filter f1 hub");
  (void)s.command("fanin f1 2 g 1 4");
  (void)s.command("predicate add burst: @1:* type=send & @2:* type=send");
  (void)s.command("newjob j f1");
  (void)s.command("setflags j send");
  (void)s.command("addgroup j g 1 4 1 burst_sender self 9 24 64 512 4 400");
  (void)s.command("startjob j");
  (void)s.command("removejob j");
  s.send_line("bye");
  world.run();
  live->detector.finish();

  obs::Registry& reg = world.obs();
  const std::uint64_t sampled = reg.counter("prov.sampled").value();
  EXPECT_EQ(sampled, 4u * 24u);
  EXPECT_EQ(reg.counter("prov.dropped").value(), 0u);
  EXPECT_EQ(reg.counter("prov.completed").value(), sampled);
  const auto& journeys = world.provenance()->journeys();
  EXPECT_EQ(journeys.size(), sampled);
  std::map<std::uint64_t, std::set<std::uint64_t>> uplinks;  // by meter edge
  for (const auto& j : journeys) {
    ASSERT_EQ(j.hops.size(), 2u) << "trace " << j.trace_id;
    uplinks[j.edge].insert(j.hops.front().edge);
  }
  EXPECT_EQ(uplinks.size(), 4u);
  for (const auto& [edge, first_hops] : uplinks) {
    EXPECT_EQ(first_hops.size(), 1u) << "meter edge " << edge;
  }
}

/// Forwards the engine's views to the installed live sink and keeps each
/// accepted record's wire bytes. It overrides only on_view, so the engine
/// never decodes a Record for it.
class WireTapSink : public filter::RecordSink {
 public:
  explicit WireTapSink(std::shared_ptr<filter::RecordSink> inner)
      : inner_(std::move(inner)) {}

  void on_view(const filter::RecordView& v, const filter::WirePlan& plan,
               const std::string_view* strings,
               const filter::Descriptions& desc) override {
    wire.emplace_back(v.data, v.data + v.size);
    inner_->on_view(v, plan, strings, desc);
  }
  void on_record(const filter::Record&) override { ++record_calls; }

  std::vector<util::Bytes> wire;
  std::size_t record_calls = 0;

 private:
  std::shared_ptr<filter::RecordSink> inner_;
};

TEST(FanInTest, LiveBundleOnTheViewPathMatchesBatchAndTheRecordPath) {
  // Datagram bursts (every datagram's SEND carries its destName) and a
  // cross-leaf pingpong stream through a fan-in tree, every record fed to
  // the live predicate bundle through the root filter's view path. The
  // bundle must agree with batch order_events on the retrieved log, pair
  // for pair and clock for clock, and with a bundle fed the same records
  // as decoded Records, verdict for verdict.
  FanInWorld w(4);
  auto bundle = analysis::pred::install_live_predicates(
      w.world, analysis::pred::standard_descriptions());
  auto tap = std::make_shared<WireTapSink>(filter::live_sink(w.world));
  filter::install_live_sink(w.world, tap);
  const std::string spec = "burst: @1:* type=send & @2:* type=send";
  auto& s = *w.session;
  (void)s.command("filter f1 hub");
  (void)s.command("fanin f1 2 g 1 4");
  (void)s.command("predicate add " + spec);
  (void)s.command("newjob j f1");
  (void)s.command("setflags j all");
  (void)s.command("addgroup j g 1 4 1 burst_sender self 9 200 64 512 4 400");
  (void)s.command("addprocess j g3 pingpong_server 4810 5");
  (void)s.command("addprocess j g1 pingpong_client g3 4810 5 64");
  (void)s.command("startjob j");
  (void)s.command("removejob j");
  (void)s.command("getlog f1 j.trace");
  bundle->detector.finish();
  EXPECT_EQ(tap->record_calls, 0u);

  const auto text = w.world.machine(w.machines[0]).fs.read_text("j.trace");
  ASSERT_TRUE(text.has_value());
  const analysis::Trace trace = analysis::read_trace(*text);
  const analysis::Ordering ord = analysis::order_events(trace);
  std::size_t datagrams = 0;
  for (const analysis::Event& e : trace.events) {
    if (e.type == meter::EventType::send && e.dest_name != 0) ++datagrams;
  }
  EXPECT_EQ(datagrams, 4u * 200u);
  EXPECT_GT(ord.cross_machine_pairs, 0u);

  const analysis::live::LiveAnalysis& live = bundle->live;
  ASSERT_EQ(live.events(), trace.events.size());
  EXPECT_EQ(tap->wire.size(), trace.events.size());
  EXPECT_EQ(live.stats().message_pairs, ord.message_pairs);
  EXPECT_EQ(live.stats().cross_machine_pairs, ord.cross_machine_pairs);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(live.lamport_of(i), ord.events[i].lamport) << "event " << i;
    EXPECT_EQ(live.matched_send_of(i), ord.events[i].matched_send)
        << "event " << i;
  }

  // The same records, decoded, through a sink's Record entry point.
  const filter::Descriptions& desc = analysis::pred::standard_descriptions();
  analysis::live::LiveAnalysis by_record(live.config());
  analysis::pred::PredicateDetector detector(desc, bundle->detector.config());
  ASSERT_TRUE(detector.add_predicate(spec));
  by_record.add_observer(&detector);
  analysis::live::LiveRecordSink record_sink(by_record);
  for (const util::Bytes& raw : tap->wire) {
    const auto rec = desc.decode(raw);
    ASSERT_TRUE(rec.has_value());
    record_sink.on_record(*rec);
  }
  detector.finish();
  EXPECT_EQ(record_sink.dropped(), 0u);
  ASSERT_EQ(by_record.events(), live.events());
  for (std::size_t i = 0; i < live.events(); ++i) {
    EXPECT_EQ(by_record.lamport_of(i), live.lamport_of(i)) << "event " << i;
  }

  const auto& want = detector.verdicts();
  const auto& got = bundle->detector.verdicts();
  EXPECT_GT(got.size(), 0u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("verdict " + std::to_string(i));
    EXPECT_EQ(got[i].predicate, want[i].predicate);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].occurrence, want[i].occurrence);
    EXPECT_EQ(got[i].cut_lo_us, want[i].cut_lo_us);
    EXPECT_EQ(got[i].cut_hi_us, want[i].cut_hi_us);
    EXPECT_EQ(got[i].detect_lag_us, want[i].detect_lag_us);
    ASSERT_EQ(got[i].witness.size(), want[i].witness.size());
    for (std::size_t k = 0; k < got[i].witness.size(); ++k) {
      const auto& a = got[i].witness[k];
      const auto& b = want[i].witness[k];
      EXPECT_EQ(a.proc, b.proc);
      EXPECT_EQ(a.lo_hlc_us, b.lo_hlc_us);
      EXPECT_EQ(a.hi_hlc_us, b.hi_hlc_us);
      EXPECT_EQ(a.lo_index, b.lo_index);
      EXPECT_EQ(a.hi_index, b.hi_index);
      EXPECT_EQ(a.open, b.open);
    }
  }
}

TEST(FanInTest, JobOpsSendOneRequestPerMachine) {
  FanInWorld w(3);
  auto& s = *w.session;
  (void)s.command("filter f1 hub");
  (void)s.command("newjob j");
  const obs::Counter& calls = w.world.obs().counter("daemon.rpc_calls");

  // 9 processes on 3 machines: every op prints one line per process but
  // puts one request per machine on the wire.
  std::uint64_t before = calls.value();
  std::string out = s.command("addgroup j g 1 3 3 waiter");
  EXPECT_NE(out.find("9 of 9 processes created across 3 machines"),
            std::string::npos)
      << out;
  EXPECT_EQ(calls.value() - before, 3u);

  before = calls.value();
  out = s.command("startjob j");
  EXPECT_EQ(count_substr(out, "' started."), 9u) << out;
  EXPECT_EQ(calls.value() - before, 3u);

  before = calls.value();
  out = s.command("stopjob j");
  EXPECT_EQ(count_substr(out, "' stopped."), 9u) << out;
  EXPECT_EQ(calls.value() - before, 3u);

  before = calls.value();
  out = s.command("removejob j");
  EXPECT_EQ(count_substr(out, "' removed"), 9u) << out;
  EXPECT_EQ(calls.value() - before, 3u);
  EXPECT_EQ(w.world.obs().counter("daemon.rpc_failures").value(), 0u);
}

}  // namespace
}  // namespace dpm
