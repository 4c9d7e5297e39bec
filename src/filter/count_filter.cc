#include "filter/count_filter.h"

#include <map>

#include "filter/filter_program.h"
#include "kernel/syscalls.h"
#include "util/strings.h"

namespace dpm::filter {

namespace {

using kernel::Sys;

/// Aggregated view of the accepted records.
class Counters {
 public:
  void add(const Record& rec) {
    ++by_event_[rec.event_name];
    const auto machine = rec.num("machine").value_or(-1);
    const auto pid = rec.num("pid").value_or(-1);
    auto& p = by_proc_[{machine, pid}];
    ++p.events;
    if (rec.event_name == "SEND") {
      ++p.sends;
      p.bytes += rec.num("msgLength").value_or(0);
    }
    ++total_;
  }

  std::string render() const {
    std::string out = "# countfilter summary\n";
    out += util::strprintf("total=%llu\n",
                           static_cast<unsigned long long>(total_));
    for (const auto& [name, n] : by_event_) {
      out += util::strprintf("event %s %llu\n", name.c_str(),
                             static_cast<unsigned long long>(n));
    }
    for (const auto& [key, p] : by_proc_) {
      out += util::strprintf(
          "proc m%lld/p%lld events=%llu sends=%llu sendBytes=%lld\n",
          static_cast<long long>(key.first), static_cast<long long>(key.second),
          static_cast<unsigned long long>(p.events),
          static_cast<unsigned long long>(p.sends),
          static_cast<long long>(p.bytes));
    }
    return out;
  }

 private:
  struct ProcCounts {
    std::uint64_t events = 0;
    std::uint64_t sends = 0;
    std::int64_t bytes = 0;
  };
  std::map<std::string, std::uint64_t> by_event_;
  std::map<std::pair<std::int64_t, std::int64_t>, ProcCounts> by_proc_;
  std::uint64_t total_ = 0;
};

}  // namespace

kernel::ProcessMain make_count_filter_main(
    const std::vector<std::string>& argv) {
  return [argv](Sys& sys) {
    if (argv.size() < 5) {
      (void)sys.print("countfilter: bad arguments\n");
      sys.exit(1);
    }
    const std::string& logfile = argv[1];
    const auto port = parse_port(argv[4]);
    if (!port) {
      (void)sys.print("countfilter: bad port\n");
      sys.exit(1);
    }
    auto files = load_support_files(sys, "countfilter", argv[2], argv[3]);
    if (!files) sys.exit(1);
    // The engine does framing, selection and the decode of accepted
    // records; this filter only aggregates them. It accounts into the
    // world's registry like the standard filter.
    FilterEngine engine(std::move(files->descriptions), files->templates,
                        &sys.world().obs());
    const kernel::Fd lsock = open_meter_port(sys, *port, "countfilter");

    Counters counters;
    auto rewrite_log = [&] {
      auto fd = sys.open(logfile, Sys::OpenMode::write_trunc);
      if (fd) {
        (void)sys.write(*fd, counters.render());
        (void)sys.close(*fd);
      }
    };
    rewrite_log();  // an empty summary exists from the start

    bool changed = false;
    serve_meter_port(
        sys, lsock,
        {.data =
             [&](std::uint64_t conn, const util::Bytes& data) {
               engine.feed_each(conn, data, [&](const Record& rec) {
                 counters.add(rec);
                 changed = true;
               });
             },
         .closed = [&](std::uint64_t conn) { engine.end_connection(conn); },
         .round_end =
             [&] {
               if (changed) rewrite_log();
               changed = false;
             }});

    (void)sys.write(2, filter_summary_line("countfilter", engine.stats()));
    sys.exit(0);
  };
}

void register_count_filter_program(kernel::ExecRegistry& registry) {
  registry.register_program(kCountFilterProgram, make_count_filter_main);
}

}  // namespace dpm::filter
