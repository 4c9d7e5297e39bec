#include "filter/fanin.h"

#include "filter/filter_program.h"
#include "filter/provtap.h"
#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "obs/registry.h"

namespace dpm::filter {
namespace {

/// Staged forward batches flush at this size or at end of select round,
/// whichever comes first — the same order of magnitude as a meter flush,
/// so upward frames amortize the per-send fabric cost without sitting on
/// records across quiet rounds.
constexpr std::size_t kBatchHighWater = 8 * 1024;

/// A node whose parent stays unreachable across this many failed connect
/// attempts degrades permanently: staged records keep flowing into the
/// dead edge, where the kernel books them fanin.lost_records.
constexpr int kMaxReconnects = 8;

/// A fan-in node's outbound side: the records staged since the last
/// forward, and the node's one edge toward its parent. The invariant that
/// makes the tier-1 ledger exact: after establish() succeeds, the link
/// always holds an open fd — a dead socket is *kept* and forwarded into
/// (the kernel accounts those records as lost) until a replacement
/// connects, so no staged record ever bypasses meter_forward's accounting.
class StagedUplink {
 public:
  /// Accounts under "<prefix>.batches_out" and "<prefix>.reconnects". The
  /// samples of the records staged through `prov` travel with the batch
  /// that carries them.
  StagedUplink(kernel::Sys& sys, const std::string& prefix, std::string host,
               net::Port port, ProvenanceTap& prov)
      : sys_(sys),
        host_(std::move(host)),
        port_(port),
        prov_(prov),
        batches_out_(sys.world().obs().counter(prefix + ".batches_out")),
        reconnects_(sys.world().obs().counter(prefix + ".reconnects")) {}

  /// Initial connect, with retries — the tree is built top-down (parents
  /// listen before children start), so this converges in a round or two.
  bool establish() {
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (try_connect()) return true;
      sys_.sleep(util::msec(10));
    }
    return false;
  }

  /// Records staged so far: the position the next staged record takes.
  std::uint32_t staged() const { return staged_; }

  void stage(const std::uint8_t* raw, std::size_t size) {
    batch_.insert(batch_.end(), raw, raw + size);
    ++staged_;
  }

  /// Forwards the batch once it holds kBatchHighWater bytes.
  void flush_if_full() {
    if (batch_.size() >= kBatchHighWater) forward();
  }

  /// End of a select round: forwards whatever is staged.
  void flush() {
    if (staged_ > 0) forward();
  }

 private:
  /// Ships the staged batch, with its provenance samples, up the link and
  /// resets the stage. On a dead edge the records are already booked
  /// fanin.lost_records by the kernel (never re-sent); the next forward
  /// attempts one bounded reconnect. The samples go with the batch into
  /// meter_forward, which delivers or kills them; only with no link at
  /// all do they die here.
  void forward() {
    batches_out_.add(1);
    auto samples = prov_.take_samples();
    if (want_reconnect_ && failures_ <= kMaxReconnects && try_connect()) {
      reconnects_.add(1);
    }
    if (fd_ < 0) {
      if (obs::ProvenanceTracker* prov = sys_.world().provenance()) {
        prov->on_fanin_drop(samples);
      }
    } else if (!sys_.meter_forward(fd_, batch_, staged_, std::move(samples))) {
      want_reconnect_ = true;
    }
    batch_.clear();
    staged_ = 0;
  }

  bool try_connect() {
    auto addr = sys_.resolve(host_, port_);
    if (!addr) {
      ++failures_;
      return false;
    }
    auto s =
        sys_.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    if (!s) {
      ++failures_;
      return false;
    }
    if (!sys_.connect(*s, *addr, util::msec(250))) {
      (void)sys_.close(*s);
      ++failures_;
      return false;
    }
    (void)sys_.metertap(*s);
    if (fd_ >= 0) (void)sys_.close(fd_);
    fd_ = *s;
    want_reconnect_ = false;
    return true;
  }

  kernel::Sys& sys_;
  std::string host_;
  net::Port port_;
  ProvenanceTap& prov_;
  obs::Counter& batches_out_;
  obs::Counter& reconnects_;
  util::Bytes batch_;
  std::uint32_t staged_ = 0;
  kernel::Fd fd_ = -1;
  int failures_ = 0;
  bool want_reconnect_ = false;
};

}  // namespace

kernel::ProcessMain make_localfilter_main(
    const std::vector<std::string>& argv) {
  return [argv](kernel::Sys& sys) {
    if (argv.size() < 6) {
      (void)sys.print(
          "localfilter: usage: localfilter descriptions templates port "
          "parent-host parent-port\n");
      sys.exit(1);
    }
    const auto port = parse_port(argv[3]);
    const auto pport = parse_port(argv[5]);
    if (!port || !pport) {
      (void)sys.print("localfilter: bad port\n");
      sys.exit(1);
    }

    auto files = load_support_files(sys, "localfilter", argv[1], argv[2]);
    if (!files) sys.exit(1);

    // Accounts under "localfilter.*" so the edge stage and the session
    // filter stay separable in the world's one registry. No live sink:
    // the root is the session's single live tap, and tapping here would
    // force a decode of every accepted record on every machine.
    FilterEngine engine(std::move(files->descriptions), files->templates,
                        &sys.world().obs(), "localfilter");
    // Record provenance: a staging filter — decisions are stamped as an
    // intermediate stage, and sampled accepted records travel with the
    // uplink batch so the kernel can re-key them at the next hop.
    kernel::World& world = sys.world();
    ProvenanceTap prov(world.provenance(), /*final_filter=*/false);
    StagedUplink up(sys, "localfilter", argv[4], *pport, prov);

    const kernel::Fd lsock = open_meter_port(sys, *port, "localfilter");
    if (!up.establish()) {
      (void)sys.print("localfilter: parent unreachable\n");
      sys.exit(1);
    }

    if (prov.enabled()) {
      engine.set_provenance([&prov, &world, &up](std::uint64_t conn,
                                                 const std::uint8_t* raw,
                                                 std::size_t size,
                                                 bool accepted) {
        prov.on_record(conn, raw, size, accepted, up.staged(),
                       util::count_us(world.exec().now()));
      });
    }
    const FilterEngine::OnAcceptRaw stage =
        [&up](const std::uint8_t* raw, std::size_t size) {
          up.stage(raw, size);
        };
    serve_meter_port(
        sys, lsock,
        {.data =
             [&](std::uint64_t conn, const util::Bytes& data) {
               engine.feed_forward(conn, data, stage);
               up.flush_if_full();
             },
         .closed = [&](std::uint64_t conn) { engine.end_connection(conn); },
         .round_end = [&] { up.flush(); }},
        &prov);

    (void)sys.write(2, filter_summary_line("localfilter", engine.stats()));
    sys.exit(0);
  };
}

kernel::ProcessMain make_aggregator_main(
    const std::vector<std::string>& argv) {
  return [argv](kernel::Sys& sys) {
    if (argv.size() < 4) {
      (void)sys.print(
          "aggregator: usage: aggregator port parent-host parent-port\n");
      sys.exit(1);
    }
    const auto port = parse_port(argv[1]);
    const auto pport = parse_port(argv[3]);
    if (!port || !pport) {
      (void)sys.print("aggregator: bad port\n");
      sys.exit(1);
    }

    obs::Registry& reg = sys.world().obs();
    obs::Counter& records_in = reg.counter("aggregator.records_in");
    obs::Counter& desyncs = reg.counter("aggregator.desyncs");
    obs::Counter& truncated = reg.counter("aggregator.truncated");
    // Record provenance: an aggregator makes no decisions — every inbound
    // record is re-staged toward the parent, so sampled records just get a
    // stage mark and ride the forwarded batch to their next hop.
    kernel::World& world = sys.world();
    ProvenanceTap prov(world.provenance(), /*final_filter=*/false);
    StagedUplink up(sys, "aggregator", argv[2], *pport, prov);

    const kernel::Fd lsock = open_meter_port(sys, *port, "aggregator");
    if (!up.establish()) {
      (void)sys.print("aggregator: parent unreachable\n");
      sys.exit(1);
    }

    // Children forward whole records, but their streams interleave at recv
    // boundaries, so the node re-frames each one. A bad size word drops
    // the rest of the connection's read: those records were already
    // counted consumed at recv (consumed is terminal per hop), so the
    // ledger stays exact.
    RecordFramer framer;
    serve_meter_port(
        sys, lsock,
        {.data =
             [&](std::uint64_t conn, const util::Bytes& data) {
               const std::uint32_t first_pos = up.staged();
               if (!framer.feed(conn, data,
                                [&up](const std::uint8_t* raw,
                                      std::size_t size) {
                                  up.stage(raw, size);
                                })) {
                 desyncs.add(1);
               }
               const std::uint32_t n = up.staged() - first_pos;
               records_in.add(n);
               prov.on_passthrough(conn, n, first_pos,
                                   util::count_us(world.exec().now()));
               up.flush_if_full();
             },
         // A child that went away mid-record: its tail was consumed at
         // recv and is dropped — counted, not silent.
         .closed =
             [&](std::uint64_t conn) {
               if (framer.end(conn)) truncated.add(1);
             },
         .round_end = [&] { up.flush(); }},
        &prov);
    sys.exit(0);
  };
}

void register_fanin_programs(kernel::ExecRegistry& registry) {
  registry.register_program(kLocalFilterProgram, make_localfilter_main);
  registry.register_program(kAggregatorProgram, make_aggregator_main);
}

}  // namespace dpm::filter
