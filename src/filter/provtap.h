// Filter-side adapters for record provenance (obs/provenance.h).
//
// The tracker's conservation identity is (edge, index): the consuming
// socket id and the record's position in that edge's delivered stream.
// Filter programs key their engine connections by fd, so the adapter maps
// fd -> socket id (resolved once per accept via Sys::socket_id) and keeps
// the per-connection record count the index is derived from. Identity
// fields for live binding are read straight off the wire bytes through the
// header's field list — no WirePlan, no body decode, and nothing added to
// the wire, so filter logs stay byte-identical with tracing on or off.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "meter/metermsgs.h"
#include "obs/provenance.h"

namespace dpm::filter {

/// Identity fields of one wire record: the MeterHeader's machine, cpuTime
/// and traceType (meter/metermsgs.h), and pid — the first body field,
/// common to every record type.
struct WireIdentity {
  std::uint16_t machine = 0;
  std::int32_t pid = 0;
  std::uint32_t type = 0;
  std::int64_t cpu_time = 0;
};

inline WireIdentity wire_identity(const std::uint8_t* raw, std::size_t size) {
  WireIdentity id;
  util::BinaryReader r(raw, size);
  meter::MeterHeader h;
  meter::MeterHeader::fields(h, [&](const char*, auto& v) { (void)r.get(v); });
  if (!r.ok()) return id;  // the engine framed it; be safe
  id.machine = h.machine;
  id.cpu_time = h.cpu_time;
  id.type = static_cast<std::uint32_t>(h.trace_type);
  (void)r.get(id.pid);  // stays 0 on a header-only record
  return id;
}

/// One filter program's provenance adapter. Three roles share it:
///
///  - the *final* filter (the live sink's feeder) stamps accept/reject
///    decisions and queues accepted identities for live binding;
///  - a *staging* filter (localfilter) stamps decisions and collects the
///    sampled accepted records of the outbound batch as forward samples;
///  - an *aggregator* passes records through undecided (on_passthrough)
///    and collects forward samples the same way.
///
/// Batch lifecycle for the staging roles: take_samples() hands the staged
/// batch's samples to the forward call that sends it. From there they
/// travel with the call (UpLink::forward -> Sys::meter_forward -> the
/// kernel's fan-in send), and whichever path ends the forward kills them
/// or carries them to delivery, so none leaks onto another batch.
class ProvenanceTap {
 public:
  /// `tracker` may be null (tracing off): every call is then a no-op.
  ProvenanceTap(obs::ProvenanceTracker* tracker, bool final_filter)
      : t_(tracker), final_(final_filter) {}

  bool enabled() const { return t_ != nullptr; }

  /// Registers a connection's consuming socket id (from Sys::socket_id).
  /// Connections are descriptors, so they index a table.
  void open_conn(std::uint64_t conn, std::uint64_t edge) {
    if (t_ == nullptr || edge == 0) return;
    if (conn >= conns_.size()) conns_.resize(conn + 1);
    conns_[conn] = ConnState{edge, 0, t_->consumer_queue(edge)};
  }
  void close_conn(std::uint64_t conn) {
    if (conn < conns_.size()) conns_[conn] = ConnState{};
  }

  /// FilterEngine::ProvTap body: one framed record at its decision point.
  /// The engine taps *before* the accept consumers run, so on a staging
  /// filter `staged_pos` (the current record count of the outbound batch)
  /// is exactly the position an accepted record is about to take there.
  void on_record(std::uint64_t conn, const std::uint8_t* raw, std::size_t size,
                 bool accepted, std::uint32_t staged_pos,
                 std::int64_t now_us) {
    ConnState* cs = find(conn);
    if (cs == nullptr) return;
    const std::uint64_t idx = cs->count++;
    if (!gate(*cs, idx)) return;
    const WireIdentity id = wire_identity(raw, size);
    t_->on_filter(cs->edge, idx, accepted, final_, id.machine, id.pid,
                  id.type, id.cpu_time, now_us);
    if (!final_ && accepted) {
      pending_.push_back({staged_pos, cs->edge, idx});
    }
  }

  /// Aggregator pass-through: `n` records from `conn` were appended to the
  /// outbound batch at positions [first_pos, first_pos + n).
  void on_passthrough(std::uint64_t conn, std::size_t n,
                      std::uint32_t first_pos, std::int64_t now_us) {
    ConnState* cs = find(conn);
    if (cs == nullptr) return;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t idx = cs->count++;
      if (!gate(*cs, idx)) continue;
      t_->on_stage(cs->edge, idx, now_us);
      pending_.push_back({first_pos + static_cast<std::uint32_t>(k), cs->edge,
                          idx});
    }
  }

  /// The sampled records staged since the last call, for the forward of
  /// the batch they sit in.
  std::vector<obs::ProvenanceTracker::ForwardSample> take_samples() {
    return std::exchange(pending_, {});
  }

 private:
  struct ConnState {
    std::uint64_t edge = 0;   // consuming socket id; 0: no connection
    std::uint64_t count = 0;  // records framed so far = next index
    std::shared_ptr<obs::ProvenanceTracker::InflightQueue> inflight;
  };

  ConnState* find(std::uint64_t conn) {
    if (conn >= conns_.size() || conns_[conn].edge == 0) return nullptr;
    return &conns_[conn];
  }

  /// The per-record gate: an in-flight entry, not the sampler hash (on a
  /// fan-in edge the entries were re-keyed here at indices the origin
  /// edge's sampler chose, which this edge's hash would reject). An index
  /// off the front of the edge's in-flight queue is answered there; only
  /// a front index is looked up.
  bool gate(ConnState& cs, std::uint64_t idx) {
    return cs.inflight->take(idx) && t_->tracked(cs.edge, idx);
  }

  obs::ProvenanceTracker* t_;
  bool final_;
  std::vector<ConnState> conns_;  // indexed by connection
  std::vector<obs::ProvenanceTracker::ForwardSample> pending_;
};

}  // namespace dpm::filter
