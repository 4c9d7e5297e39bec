#include "filter/fanin.h"

#include <algorithm>
#include <map>

#include "filter/filter_program.h"
#include "filter/provtap.h"
#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "meter/metermsgs.h"
#include "obs/registry.h"
#include "util/strings.h"

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

/// The node's single edge toward its parent. The invariant that makes the
/// tier-1 ledger exact: after establish() succeeds, the link always holds
/// an open fd — a dead socket is *kept* and forwarded into (the kernel
/// accounts those records as lost) until a replacement connects, so no
/// accepted record ever bypasses meter_forward's accounting.
class UpLink {
 public:
  UpLink(std::string host, net::Port port, obs::Counter& reconnects)
      : host_(std::move(host)), port_(port), reconnects_(&reconnects) {}

  /// Initial connect, with retries — the tree is built top-down (parents
  /// listen before children start), so this converges in a round or two.
  bool establish(kernel::Sys& sys) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (try_connect(sys)) return true;
      sys.sleep(util::msec(10));
    }
    return false;
  }

  /// Ships the staged batch, with its provenance samples, up the link and
  /// resets the stage. On a dead edge the records are already booked
  /// fanin.lost_records by the kernel (never re-sent); the next flush
  /// attempts one bounded reconnect. The samples go with the batch into
  /// meter_forward, which delivers or kills them; only with no link at
  /// all do they die here.
  void forward(kernel::Sys& sys, util::Bytes& batch, std::uint32_t& records,
               std::vector<obs::ProvenanceTracker::ForwardSample> samples) {
    if (records == 0) return;  // nothing staged, so nothing sampled
    if (want_reconnect_ && failures_ <= kMaxReconnects && try_connect(sys)) {
      reconnects_->add(1);
    }
    if (fd_ < 0) {
      if (obs::ProvenanceTracker* prov = sys.world().provenance()) {
        prov->on_fanin_drop(samples);
      }
    } else if (!sys.meter_forward(fd_, batch, records, std::move(samples))) {
      want_reconnect_ = true;
    }
    batch.clear();
    records = 0;
  }

 private:
  bool try_connect(kernel::Sys& sys) {
    auto addr = sys.resolve(host_, port_);
    if (!addr) {
      ++failures_;
      return false;
    }
    auto s = sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    if (!s) {
      ++failures_;
      return false;
    }
    if (!sys.connect(*s, *addr, util::msec(250))) {
      (void)sys.close(*s);
      ++failures_;
      return false;
    }
    (void)sys.metertap(*s);
    if (fd_ >= 0) (void)sys.close(fd_);
    fd_ = *s;
    want_reconnect_ = false;
    return true;
  }

  std::string host_;
  net::Port port_;
  kernel::Fd fd_ = -1;
  int failures_ = 0;
  bool want_reconnect_ = false;
  obs::Counter* reconnects_;
};

/// Re-frames one inbound tier-1 byte stream into whole records. Children
/// forward whole frames, but the stream interleaves at recv boundaries, so
/// each connection carries its own partial tail between rounds.
class FrameSplitter {
 public:
  explicit FrameSplitter(obs::Counter& desyncs) : desyncs_(&desyncs) {}

  /// Moves every complete record in carry+data to `out`; returns how many.
  /// A bad size word desynchronizes the connection: the remainder is
  /// dropped (the records were already counted consumed at recv — consumed
  /// is terminal per hop, so the ledger stays exact) and desyncs bumped.
  std::size_t feed(const util::Bytes& data, util::Bytes& out) {
    buf_.insert(buf_.end(), data.begin(), data.end());
    const std::uint8_t* base = buf_.data();
    const std::size_t len = buf_.size();
    std::size_t pos = 0;
    std::size_t n = 0;
    while (len - pos >= 4) {
      const std::uint32_t size = util::load_u32(base + pos);
      if (size < meter::kHeaderSize || size > (1u << 20)) {
        desyncs_->add(1);
        buf_.clear();
        return n;
      }
      if (len - pos < size) break;
      out.insert(out.end(), base + pos, base + pos + size);
      pos += size;
      ++n;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
    return n;
  }

  bool mid_record() const { return !buf_.empty(); }

 private:
  util::Bytes buf_;
  obs::Counter* desyncs_;
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
    const auto port = util::parse_int(argv[3]);
    const auto pport = util::parse_int(argv[5]);
    if (!port || *port <= 0 || *port > 65535 || !pport || *pport <= 0 ||
        *pport > 65535) {
      (void)sys.print("localfilter: bad port\n");
      sys.exit(1);
    }

    auto files = load_support_files(sys, "localfilter", argv[1], argv[2]);
    if (!files) sys.exit(1);

    // Accounts under "localfilter.*" so the edge stage and the session
    // filter stay separable in the world's one registry. No live sink:
    // the root is the session's single live tap, and tapping here would
    // force a decode of every accepted record on every machine.
    obs::Registry& reg = sys.world().obs();
    FilterEngine engine(std::move(files->descriptions), files->templates,
                        &reg, "localfilter");
    obs::Counter& batches_out = reg.counter("localfilter.batches_out");
    obs::Counter& reconnects = reg.counter("localfilter.reconnects");

    auto lsock =
        sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    if (!lsock) sys.exit(1);
    if (!sys.bind_port(*lsock, static_cast<net::Port>(*port))) {
      (void)sys.print("localfilter: cannot bind meter port\n");
      sys.exit(1);
    }
    if (!sys.listen(*lsock, 32)) sys.exit(1);

    UpLink up(argv[4], static_cast<net::Port>(*pport), reconnects);
    if (!up.establish(sys)) {
      (void)sys.print("localfilter: parent unreachable\n");
      sys.exit(1);
    }

    util::Bytes batch;
    std::uint32_t staged = 0;
    const FilterEngine::OnAcceptRaw stage = [&](const std::uint8_t* raw,
                                                std::size_t size) {
      batch.insert(batch.end(), raw, raw + size);
      ++staged;
    };
    // Record provenance: a staging filter — decisions are stamped as an
    // intermediate stage, and sampled accepted records travel with the
    // uplink batch so the kernel can re-key them at the next hop.
    kernel::World& world = sys.world();
    ProvenanceTap prov(world.provenance(), /*final_filter=*/false);
    if (prov.enabled()) {
      engine.set_provenance([&prov, &world, &staged](std::uint64_t conn,
                                                     const std::uint8_t* raw,
                                                     std::size_t size,
                                                     bool accepted) {
        prov.on_record(conn, raw, size, accepted, staged,
                       util::count_us(world.exec().now()));
      });
    }
    auto flush_up = [&] {
      batches_out.add(1);
      up.forward(sys, batch, staged, prov.take_samples());
    };

    std::vector<kernel::Fd> conns;
    for (;;) {
      std::vector<kernel::Fd> fds = conns;
      fds.push_back(*lsock);
      auto sel = sys.select(fds, /*child_events=*/false, std::nullopt);
      if (!sel) break;
      for (kernel::Fd fd : sel->readable) {
        if (fd == *lsock) {
          auto conn = sys.accept(*lsock);
          if (conn) {
            conns.push_back(*conn);
            prov.open_conn(static_cast<std::uint64_t>(*conn),
                           sys.socket_id(*conn));
          }
          continue;
        }
        auto data = sys.recv(fd, 8192);
        if (!data || data->empty()) {
          engine.end_connection(static_cast<std::uint64_t>(fd));
          prov.close_conn(static_cast<std::uint64_t>(fd));
          (void)sys.close(fd);
          conns.erase(std::remove(conns.begin(), conns.end(), fd),
                      conns.end());
          continue;
        }
        engine.feed_forward(static_cast<std::uint64_t>(fd), *data, stage);
        if (batch.size() >= kBatchHighWater) flush_up();
      }
      if (staged > 0) flush_up();
    }

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
    const auto port = util::parse_int(argv[1]);
    const auto pport = util::parse_int(argv[3]);
    if (!port || *port <= 0 || *port > 65535 || !pport || *pport <= 0 ||
        *pport > 65535) {
      (void)sys.print("aggregator: bad port\n");
      sys.exit(1);
    }

    obs::Registry& reg = sys.world().obs();
    obs::Counter& records_in = reg.counter("aggregator.records_in");
    obs::Counter& batches_out = reg.counter("aggregator.batches_out");
    obs::Counter& reconnects = reg.counter("aggregator.reconnects");
    obs::Counter& desyncs = reg.counter("aggregator.desyncs");
    obs::Counter& truncated = reg.counter("aggregator.truncated");

    auto lsock =
        sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
    if (!lsock) sys.exit(1);
    if (!sys.bind_port(*lsock, static_cast<net::Port>(*port))) {
      (void)sys.print("aggregator: cannot bind port\n");
      sys.exit(1);
    }
    if (!sys.listen(*lsock, 32)) sys.exit(1);

    UpLink up(argv[2], static_cast<net::Port>(*pport), reconnects);
    if (!up.establish(sys)) {
      (void)sys.print("aggregator: parent unreachable\n");
      sys.exit(1);
    }

    util::Bytes batch;
    std::uint32_t staged = 0;
    // Record provenance: an aggregator makes no decisions — every inbound
    // record is re-staged toward the parent, so sampled records just get a
    // stage mark and ride the forwarded batch to their next hop.
    kernel::World& world = sys.world();
    ProvenanceTap prov(world.provenance(), /*final_filter=*/false);
    auto flush_up = [&] {
      batches_out.add(1);
      up.forward(sys, batch, staged, prov.take_samples());
    };
    std::vector<kernel::Fd> conns;
    std::map<kernel::Fd, FrameSplitter> splitters;
    for (;;) {
      std::vector<kernel::Fd> fds = conns;
      fds.push_back(*lsock);
      auto sel = sys.select(fds, /*child_events=*/false, std::nullopt);
      if (!sel) break;
      for (kernel::Fd fd : sel->readable) {
        if (fd == *lsock) {
          auto conn = sys.accept(*lsock);
          if (conn) {
            conns.push_back(*conn);
            splitters.emplace(*conn, FrameSplitter(desyncs));
            prov.open_conn(static_cast<std::uint64_t>(*conn),
                           sys.socket_id(*conn));
          }
          continue;
        }
        auto it = splitters.find(fd);
        if (it == splitters.end()) continue;
        auto data = sys.recv(fd, 8192);
        if (!data || data->empty()) {
          // A child went away; its mid-record tail (if any) was consumed
          // at recv and is dropped here — counted, not silent.
          if (it->second.mid_record()) truncated.add(1);
          splitters.erase(it);
          prov.close_conn(static_cast<std::uint64_t>(fd));
          (void)sys.close(fd);
          conns.erase(std::remove(conns.begin(), conns.end(), fd),
                      conns.end());
          continue;
        }
        const std::uint32_t first_pos = staged;
        const std::size_t n = it->second.feed(*data, batch);
        staged += static_cast<std::uint32_t>(n);
        records_in.add(n);
        prov.on_passthrough(static_cast<std::uint64_t>(fd), n, first_pos,
                            util::count_us(world.exec().now()));
        if (batch.size() >= kBatchHighWater) flush_up();
      }
      if (staged > 0) flush_up();
    }
    sys.exit(0);
  };
}

void register_fanin_programs(kernel::ExecRegistry& registry) {
  registry.register_program(kLocalFilterProgram, make_localfilter_main);
  registry.register_program(kAggregatorProgram, make_aggregator_main);
}

}  // namespace dpm::filter
