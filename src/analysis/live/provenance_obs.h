// Analysis-side adapter for record provenance (obs/provenance.h).
//
// The tracker's live binding is identity-based: a final-filter accept
// queues the record's meter-header identity (machine, pid, type, cpu_time)
// and the matching LiveAnalysis event — same identity, FIFO order — binds
// it to the event's arrival index. This observer is that bridge. It must
// be registered with LiveAnalysis::add_observer_front: the predicate
// detector settles events synchronously inside its own on_event, and the
// binding has to exist before the detector's settle hook fires.
//
// Settle semantics mirror the live aggregator's evidence model: a
// non-receive event is causally final the moment it is admitted (program
// order only), so it settles at on_event; a receive settles when its
// routing evidence resolves — on_pair (matched) or on_gap (expelled).
#pragma once

#include <cstdint>

#include "analysis/live/aggregator.h"
#include "obs/provenance.h"

namespace dpm::analysis::live {

class ProvenanceLiveObserver : public LiveObserver {
 public:
  /// `tracker` may be null (tracing off): every callback is then a no-op.
  /// `reg` supplies the stamp clock (the world's registry carries the
  /// executive's sim-time clock).
  ProvenanceLiveObserver(obs::ProvenanceTracker* tracker, obs::Registry* reg)
      : t_(tracker), reg_(reg) {}

  void on_event(std::size_t index, const Event& e,
                const NameTable& /*names*/) override {
    if (t_ == nullptr) return;
    t_->on_live_event(index, e.machine, e.pid,
                      static_cast<std::uint32_t>(e.type), e.cpu_time,
                      e.type == meter::EventType::recv, now_us());
  }
  void on_pair(std::size_t /*send_index*/, std::size_t recv_index) override {
    if (t_ != nullptr) t_->on_live_settle(recv_index, now_us());
  }
  void on_gap(std::size_t index) override {
    if (t_ != nullptr) t_->on_live_settle(index, now_us());
  }

 private:
  std::int64_t now_us() const { return util::count_us(reg_->now()); }

  obs::ProvenanceTracker* t_;
  obs::Registry* reg_;
};

}  // namespace dpm::analysis::live
