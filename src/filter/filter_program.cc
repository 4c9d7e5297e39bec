#include "filter/filter_program.h"

#include "filter/provtap.h"
#include "filter/trace.h"
#include "kernel/syscalls.h"
#include "kernel/world.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/strings.h"

namespace dpm::filter {

FilterEngine::FilterEngine(Descriptions descriptions,
                           const Templates& templates, obs::Registry* obs,
                           const std::string& key_prefix)
    : desc_(std::move(descriptions)),
      bytecode_(FilterBytecode::compile(templates, desc_)) {
  if (!obs) {
    own_obs_ = std::make_unique<obs::Registry>();
    obs = own_obs_.get();
  }
  obs_ = obs;
  auto key = [&key_prefix](const char* name) { return key_prefix + name; };
  bytecode_.set_ops_counter(&obs->counter(key(".bytecode_ops")));
  records_in_ = &obs_->counter(key(".records_in"));
  accepted_ = &obs_->counter(key(".accepted"));
  rejected_ = &obs_->counter(key(".rejected"));
  malformed_ = &obs_->counter(key(".malformed"));
  truncated_ = &obs_->counter(key(".truncated"));
  bytes_in_ = &obs_->counter(key(".bytes_in"));
  bytes_out_ = &obs_->counter(key(".bytes_out"));
}

void RecordSink::on_view(const RecordView& v, const WirePlan&,
                         const std::string_view*, const Descriptions& desc) {
  // The engine validated the record against its plan, so the decode
  // cannot fail.
  on_record(*desc.decode(v.data, v.size));
}

void FilterEngine::add_sink(RecordSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

FilterStats FilterEngine::stats() const {
  FilterStats s;
  s.records_in = records_in_->value();
  s.accepted = accepted_->value();
  s.rejected = rejected_->value();
  s.malformed = malformed_->value();
  s.truncated = truncated_->value();
  s.bytes_in = bytes_in_->value();
  s.bytes_out = bytes_out_->value();
  return s;
}

std::string filter_summary_line(const std::string& prog,
                                const FilterStats& st) {
  return util::strprintf(
      "%s: records=%llu accepted=%llu rejected=%llu "
      "malformed=%llu truncated=%llu\n",
      prog.c_str(), static_cast<unsigned long long>(st.records_in),
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.malformed),
      static_cast<unsigned long long>(st.truncated));
}

void FilterEngine::select(std::uint64_t conn, const std::uint8_t* raw,
                          std::size_t size, const OnAccept& on_accept) {
  // Records of undescribed types have no plan and count as malformed,
  // exactly like records that fail their description's bounds. The
  // record's counted strings are resolved once, by validate(), and reused
  // by the matcher's string clauses and by the renderer.
  const auto v = make_record_view(raw, size);
  const WirePlan* wp = v ? desc_.wire_plan(v->type) : nullptr;
  std::string_view strings[WirePlan::kMaxStringFields];
  if (!wp || !wp->validate(*v, strings)) {
    malformed_->add(1);
    if (prov_tap_) prov_tap_(conn, raw, size, false);
    return;
  }
  const FilterBytecode::Decision d = bytecode_.evaluate(*wp, *v, strings);
  if (!d.accept) {
    rejected_->add(1);
    if (prov_tap_) prov_tap_(conn, raw, size, false);
    return;
  }
  accepted_->add(1);
  // The tap fires at the decision, *before* the accept consumers: a sink
  // may drive live analysis synchronously, and the tracker must see the
  // accept (and queue the identity for live binding) first.
  if (prov_tap_) prov_tap_(conn, raw, size, true);
  for (RecordSink* sink : sinks_) sink->on_view(*v, *wp, strings, desc_);
  on_accept(*v, *wp, strings, d.discard);
}

void FilterEngine::drain(std::uint64_t conn, const util::Bytes& data,
                         const OnAccept& on_accept) {
  bytes_in_->add(data.size());
  // Selection runs in place over the framed bytes: the view borrows them
  // only for the call.
  const bool framed = framer_.feed(
      conn, data, [&](const std::uint8_t* raw, std::size_t size) {
        records_in_->add(1);
        select(conn, raw, size, on_accept);
      });
  // A desynchronized stream: everything after the bad size word is dropped.
  if (!framed) malformed_->add(1);
}

void FilterEngine::end_connection(std::uint64_t conn) {
  // The connection ended mid-record: the cut-short tail is a counted loss,
  // not a silent one.
  if (framer_.end(conn)) {
    malformed_->add(1);
    truncated_->add(1);
  }
}

std::string FilterEngine::feed(std::uint64_t conn, const util::Bytes& data) {
  std::string out;
  feed(conn, data, out);
  return out;
}

void FilterEngine::feed(std::uint64_t conn, const util::Bytes& data,
                        std::string& out) {
  drain(conn, data,
        [&](const RecordView& v, const WirePlan& wp,
            const std::string_view* strings, const std::vector<bool>* discard) {
          // A validated record of a parsed plan always renders.
          const std::size_t before = out.size();
          trace_line_view(wp, v, discard, strings, out);
          bytes_out_->add(out.size() - before);
        });
}

void FilterEngine::feed_each(std::uint64_t conn, const util::Bytes& data,
                             const std::function<void(const Record&)>& fn) {
  drain(conn, data,
        [&](const RecordView& v, const WirePlan&, const std::string_view*,
            const std::vector<bool>*) {
          // validate() passed, so the decode cannot fail.
          fn(*desc_.decode(v.data, v.size));
        });
}

void FilterEngine::feed_forward(std::uint64_t conn, const util::Bytes& data,
                                const OnAcceptRaw& fn) {
  drain(conn, data,
        [&](const RecordView& v, const WirePlan&, const std::string_view*,
            const std::vector<bool>*) { fn(v.data, v.size); });
}

namespace {

std::string read_whole_file(kernel::Sys& sys, const std::string& path) {
  auto fd = sys.open(path, kernel::Sys::OpenMode::read);
  if (!fd) return {};
  std::string text;
  for (;;) {
    auto chunk = sys.read(*fd, 4096);
    if (!chunk || chunk->empty()) break;
    text += util::to_string(*chunk);
  }
  (void)sys.close(*fd);
  return text;
}

}  // namespace

std::optional<SupportFiles> load_support_files(kernel::Sys& sys,
                                               const std::string& prog,
                                               const std::string& desc_path,
                                               const std::string& templ_path) {
  DescriptionError desc_err;
  auto desc = Descriptions::parse(read_whole_file(sys, desc_path), &desc_err);
  if (!desc) {
    (void)sys.print(prog + ": bad descriptions: " + desc_err.message + "\n");
    return std::nullopt;
  }
  std::string err;
  auto templ = Templates::parse(read_whole_file(sys, templ_path), &err);
  if (!templ) {
    (void)sys.print(prog + ": bad templates: " + err + "\n");
    return std::nullopt;
  }
  return SupportFiles{std::move(*desc), std::move(*templ)};
}

std::optional<net::Port> parse_port(std::string_view text) {
  const auto n = util::parse_int(text);
  if (!n || *n <= 0 || *n > 65535) return std::nullopt;
  return static_cast<net::Port>(*n);
}

kernel::Fd open_meter_port(kernel::Sys& sys, net::Port port,
                           const std::string& prog) {
  auto lsock =
      sys.socket(kernel::SockDomain::internet, kernel::SockType::stream);
  if (!lsock) sys.exit(1);
  if (!sys.bind_port(*lsock, port)) {
    (void)sys.print(prog + ": cannot bind meter port\n");
    sys.exit(1);
  }
  if (!sys.listen(*lsock, 32)) sys.exit(1);
  return *lsock;
}

void serve_meter_port(kernel::Sys& sys, kernel::Fd lsock,
                      const MeterPortHooks& hooks, ProvenanceTap* prov) {
  std::vector<kernel::Fd> conns;
  for (;;) {
    std::vector<kernel::Fd> fds = conns;
    fds.push_back(lsock);
    auto sel = sys.select(fds, /*child_events=*/false, std::nullopt);
    if (!sel) return;
    if (hooks.round_begin) hooks.round_begin();
    for (kernel::Fd fd : sel->readable) {
      if (fd == lsock) {
        if (auto conn = sys.accept(lsock)) {
          conns.push_back(*conn);
          if (prov) {
            prov->open_conn(static_cast<std::uint64_t>(*conn),
                            sys.socket_id(*conn));
          }
        }
        continue;
      }
      const auto conn = static_cast<std::uint64_t>(fd);
      auto data = sys.recv(fd, 8192);
      if (!data || data->empty()) {
        // The metered process went away: end its connection.
        hooks.closed(conn);
        if (prov) prov->close_conn(conn);
        (void)sys.close(fd);
        std::erase(conns, fd);
        continue;
      }
      hooks.data(conn, *data);
    }
    hooks.round_end();
  }
}

kernel::ProcessMain make_filter_main(const std::vector<std::string>& argv) {
  return [argv](kernel::Sys& sys) {
    if (argv.size() < 5) {
      (void)sys.print("filter: usage: filter logfile descriptions templates port\n");
      sys.exit(1);
    }
    const std::string& logfile = argv[1];
    const auto port = parse_port(argv[4]);
    if (!port) {
      (void)sys.print("filter: bad port\n");
      sys.exit(1);
    }

    auto files = load_support_files(sys, "filter", argv[2], argv[3]);
    if (!files) sys.exit(1);
    // Account into the world's registry so the filter shows up in
    // world.obs_snapshot() alongside the kernel and fabric.
    obs::Registry& reg = sys.world().obs();
    FilterEngine engine(std::move(files->descriptions), files->templates,
                        &reg);
    // A live sink installed on the world (install_live_sink) taps this
    // filter's accepted records as they stream in. Held here so the sink
    // outlives the engine even if the harness drops its reference.
    std::shared_ptr<RecordSink> tap = live_sink(sys.world());
    if (tap) engine.add_sink(tap.get());
    // Record provenance: this engine feeds the live sink, so its decisions
    // are the pipeline's final filter stage.
    kernel::World& world = sys.world();
    ProvenanceTap prov(world.provenance(), /*final_filter=*/true);
    if (prov.enabled()) {
      engine.set_provenance([&prov, &world](std::uint64_t conn,
                                            const std::uint8_t* raw,
                                            std::size_t size, bool accepted) {
        prov.on_record(conn, raw, size, accepted, 0,
                       util::count_us(world.exec().now()));
      });
    }
    obs::Histogram& records_per_round =
        reg.histogram("filter.records_per_round");
    obs::Histogram& log_append_bytes = reg.histogram("filter.log_append_bytes");

    auto log_fd = sys.open(logfile, kernel::Sys::OpenMode::write_trunc);
    if (!log_fd) {
      (void)sys.print("filter: cannot open log file\n");
      sys.exit(1);
    }
    const kernel::Fd lsock = open_meter_port(sys, *port, "filter");

    // Trace lines are batched per select round instead of written per
    // record; kHighWater bounds the buffer within a round. Every round
    // flushes at its end so the log file stays current for concurrent
    // readers (getlog copies it while the filter is live).
    constexpr std::size_t kHighWater = 16 * 1024;
    std::string pending;
    auto flush_log = [&] {
      if (pending.empty()) return;
      log_append_bytes.record(static_cast<std::int64_t>(pending.size()));
      (void)sys.write(*log_fd, pending);
      pending.clear();
    };

    // A round's span opens when select returns and closes after the
    // round's log flush.
    std::optional<obs::ObsSpan> round;
    std::uint64_t records_before = 0;
    serve_meter_port(
        sys, lsock,
        {.round_begin =
             [&] {
               round.emplace(reg, "filter.select_round");
               records_before = engine.stats().records_in;
             },
         .data =
             [&](std::uint64_t conn, const util::Bytes& data) {
               engine.feed(conn, data, pending);
               if (pending.size() >= kHighWater) flush_log();
             },
         .closed = [&](std::uint64_t conn) { engine.end_connection(conn); },
         .round_end =
             [&] {
               flush_log();
               records_per_round.record(static_cast<std::int64_t>(
                   engine.stats().records_in - records_before));
               round.reset();
             }},
        &prov);
    flush_log();

    (void)sys.write(2, filter_summary_line("filter", engine.stats()));
    sys.exit(0);
  };
}

void register_filter_program(kernel::ExecRegistry& registry) {
  registry.register_program(kStdFilterProgram, make_filter_main);
}

void install_live_sink(kernel::World& world, std::shared_ptr<RecordSink> sink) {
  world.set_service(kLiveSinkService, std::move(sink));
}

std::shared_ptr<RecordSink> live_sink(kernel::World& world) {
  return std::static_pointer_cast<RecordSink>(world.service(kLiveSinkService));
}

}  // namespace dpm::filter
