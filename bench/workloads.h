// Shared synthetic workloads and timing helpers for the benchmarks.
//
// The three pipeline workloads (send/recv-heavy, accept/connect-heavy,
// mixed) and the filter rules were born in bench_pipeline.cc; bench_live
// measures streaming analysis over the very same record streams, so they
// live here where both binaries (and any future bench) share one
// definition — a speedup or regression then means the path changed, not
// the workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "filter/filter_program.h"
#include "filter/trace.h"
#include "meter/metermsgs.h"
#include "util/bytes.h"

namespace dpm::bench {

// ---- synthetic workloads --------------------------------------------------

enum class Workload { sendrecv, acceptconnect, mixed };

inline const char* workload_name(Workload w) {
  switch (w) {
    case Workload::sendrecv: return "sendrecv";
    case Workload::acceptconnect: return "acceptconnect";
    case Workload::mixed: return "mixed";
  }
  return "?";
}

inline constexpr Workload kWorkloads[] = {
    Workload::sendrecv, Workload::acceptconnect, Workload::mixed};

/// Messages of one workload, header fields varied the way a live meter
/// varies them. Socket names reuse the paper's single-decimal internet
/// rendering; a few are empty (unknown peer) and a few long.
///
/// Every workload opens with a joined stream channel (connect on machine
/// 1, accept on machine 2) and routes one event in three over it as a
/// completed send/receive pair, so message pairing — and everything
/// downstream of it (happens-before edges, critical path) — has real
/// work on every workload, not just the dedicated "paired" stream.
inline std::vector<meter::MeterMsg> make_messages(Workload w, int n) {
  using namespace meter;
  std::vector<MeterMsg> out;
  out.reserve(static_cast<std::size_t>(n) + 2);
  {
    MeterMsg c;
    c.body = MeterConnect{1, 0, 5, "111", "222"};
    c.header.machine = 1;
    c.header.cpu_time = 0;
    out.push_back(std::move(c));
    MeterMsg a;
    a.body = MeterAccept{2, 0, 6, 7, "222", "111"};
    a.header.machine = 2;
    a.header.cpu_time = 500;
    out.push_back(std::move(a));
  }
  for (int i = 0; i < n; ++i) {
    MeterMsg m;
    // Channel slice: a send from the connect endpoint immediately
    // followed by the matching receive at the accept endpoint.
    if (i % 6 == 0) {
      m.body = MeterSend{1, 0, 5, static_cast<std::uint32_t>(32 + i % 1024),
                         ""};
      m.header.machine = 1;
      m.header.cpu_time = 1000 * i;
      m.header.proc_time = 10000 * (i / 16);
      out.push_back(std::move(m));
      continue;
    }
    if (i % 6 == 1) {
      m.body = MeterRecv{2, 0, 7,
                         static_cast<std::uint32_t>(32 + (i - 1) % 1024), ""};
      m.header.machine = 2;
      m.header.cpu_time = 1000 * i + 700;
      m.header.proc_time = 10000 * (i / 16);
      out.push_back(std::move(m));
      continue;
    }
    switch (w) {
      case Workload::sendrecv:
        switch (i % 3) {
          case 0:
            m.body = MeterSend{i % 7, 0, static_cast<SocketId>(3 + i % 4),
                               static_cast<std::uint32_t>(32 + i % 1024),
                               i % 8 == 0 ? "228320140" : ""};
            break;
          case 1:
            m.body = MeterRecv{i % 7, 0, 3, 64, "228320140"};
            break;
          default:
            m.body = MeterRecvCall{i % 7, 0, 3};
            break;
        }
        break;
      case Workload::acceptconnect:
        if (i % 2 == 0) {
          m.body = MeterAccept{i % 7, 0, 4, static_cast<SocketId>(100 + i),
                               "131073", i % 16 == 0 ? "131073" : "196612"};
        } else {
          m.body = MeterConnect{i % 7, 0, 5, "196612", "131073"};
        }
        break;
      case Workload::mixed:
        switch (i % 10) {
          case 0: m.body = MeterSend{i % 7, 0, 4, 256, "228320140"}; break;
          case 1: m.body = MeterRecv{i % 7, 0, 3, 64, ""}; break;
          case 2: m.body = MeterRecvCall{i % 7, 0, 3}; break;
          case 3: m.body = MeterSockCrt{i % 7, 0, 9, 2, 1, 0}; break;
          case 4: m.body = MeterDup{i % 7, 0, 9, 10}; break;
          case 5: m.body = MeterDestSock{i % 7, 0, 9}; break;
          case 6: m.body = MeterFork{i % 7, 0, 1000 + i}; break;
          case 7: m.body = MeterAccept{i % 7, 0, 4, 11, "131073", "196612"}; break;
          case 8: m.body = MeterConnect{i % 7, 0, 5, "196612", "131073"}; break;
          default: m.body = MeterTermProc{i % 7, 0, 0}; break;
        }
        break;
    }
    m.header.machine = static_cast<std::uint16_t>(i % 8 == 0 ? 0 : 1 + i % 5);
    m.header.cpu_time = 1000 * i;
    m.header.proc_time = 10000 * (i / 16);
    out.push_back(std::move(m));
  }
  return out;
}

inline util::Bytes make_batch(Workload w, int n) {
  util::Bytes out;
  for (const auto& m : make_messages(w, n)) m.serialize_into(out);
  return out;
}

/// Rules exercising every clause form: numeric clauses, a field-to-field
/// comparison (infeasible for types missing a field), string literals,
/// type clauses, and discards. Selectivity is partial so both accepted and
/// rejected records flow.
inline constexpr const char* kRules =
    "machine=5, cpuTime<10000\n"
    "machine=0, type=1, sock=4, destName=228320140\n"
    "type=8, sockName=peerName\n"
    "machine=#*, pid=#*, type=1, msgLength>128\n"
    "type=2, sourceName=228320140\n";

inline filter::FilterEngine make_engine(const char* rules = kRules) {
  auto d = filter::Descriptions::parse(filter::default_descriptions_text());
  auto t = filter::Templates::parse(rules);
  return filter::FilterEngine(std::move(*d), *t);
}

/// The reference filter the engine is checked against: frames `batch`,
/// decodes every record, decides it with the interpreted
/// Templates::evaluate and renders it with the reference trace_line. The
/// engine's log over the same bytes must equal this one byte for byte.
inline std::string reference_log(const util::Bytes& batch, const char* rules) {
  auto d = filter::Descriptions::parse(filter::default_descriptions_text());
  auto t = filter::Templates::parse(rules);
  std::string out;
  std::size_t pos = 0;
  while (auto size = util::BinaryReader(batch.data() + pos,
                                        batch.size() - pos).u32()) {
    if (*size == 0 || *size > batch.size() - pos) break;
    const auto rec = d->decode(batch.data() + pos, *size);
    pos += *size;
    if (!rec) continue;
    const filter::Templates::Decision dec = t->evaluate(*rec);
    if (dec.accept) out += filter::trace_line(*rec, dec.discard);
  }
  return out;
}

// ---- wall-clock rate measurement ------------------------------------------

template <typename Fn>
double measure_rate(std::uint64_t per_pass, Fn&& pass, double min_seconds) {
  using clock = std::chrono::steady_clock;
  std::uint64_t done = 0;
  const auto start = clock::now();
  double elapsed = 0;
  do {
    pass();
    done += per_pass;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(done) / elapsed;
}

/// Best of `reps` timed windows. The stages are measured sequentially on
/// one core, so a transient (another process, a frequency dip) skews
/// whichever side it lands on; the per-rep maximum is the stable
/// estimate of each path's actual rate.
template <typename Fn>
double best_rate(int reps, std::uint64_t per_pass, Fn&& pass,
                 double min_seconds) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    const double r = measure_rate(per_pass, pass, min_seconds);
    if (r > best) best = r;
  }
  return best;
}

}  // namespace dpm::bench
