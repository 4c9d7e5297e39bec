// Record-lifecycle provenance: deterministic sampled per-record tracing
// from meter emit to predicate verdict.
//
// The paper's perturbation study asks what monitoring costs; this module
// asks where the time goes. Per-subsystem aggregates (obs counters) say
// how many records each stage moved, but not how stale a verdict is or
// which stage added the latency. The tracker samples 1-in-N records per
// meter edge with a seeded, deterministic sampler and stamps sim-time at
// each stage of the record's life:
//
//   emit -> pending-batch flush -> filter decision -> each fan-in hop ->
//   live-analysis settle -> predicate verdict
//
// Identity is the record's *conservation identity* — (edge, index) where
// `edge` is the consuming socket id and `index` the record's position in
// that edge's delivered stream — carried in this side-table, never on the
// wire: filter logs stay byte-identical with sampling on or off. Indices
// are assigned where the conservation ledgers count: at batch delivery (a
// dropped batch never gets indices, so the filter-side per-connection
// record counter stays aligned with the table by construction).
//
// The stamps feed log2 histograms (stage.emit_to_ring_us,
// stage.ring_to_filter_us, stage.fanin_hop_us, stage.settle_us,
// stage.verdict_us, e2e.freshness_us) and a bounded ring of completed
// journeys that trace2chrome --flows renders as Chrome trace_event flow
// chains. The first two keys measure emit -> flush and flush -> filter;
// they keep the names they had when an alternative shared-memory meter
// transport existed, so recorded snapshots stay comparable.
//
// Layering: this is an obs-level component (kernel, filter, and analysis
// all stamp through it), so it speaks only raw integers — edge ids are
// opaque uint64s, identities are raw meter-header fields. The kernel owns
// the World-attached instance; filter/analysis adapters live in their own
// layers (filter/provtap.h, analysis/live/provenance_obs.h).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace dpm::obs {

class ProvenanceTracker {
 public:
  struct Config {
    std::uint32_t sample_period = 64;  // trace 1 record in N per edge (>= 1)
    std::uint64_t seed = 1;            // phase-spreads edges deterministically
    std::size_t max_inflight = 4096;   // sampled entries in flight (then evict)
  };

  /// The last stage an accepted record reaches in this world:
  /// e2e.freshness_us is emit -> that stage's stamp. `verdict` when a
  /// predicate detector is installed, `live` otherwise.
  enum class FinalStage { live, verdict };

  struct Hop {
    std::uint64_t edge = 0;       // delivering fan-in edge (consumer socket)
    std::int64_t start_us = -1;   // staged toward the hop (filter accept)
    std::int64_t arrive_us = -1;  // delivered at the next node
  };

  /// One sampled record's stamped lifecycle. Stages the record never
  /// reached stay -1 (e.g. a rejected record has no accept/live/verdict).
  struct Journey {
    std::uint64_t trace_id = 0;
    std::uint64_t edge = 0;        // tier-0 edge the record was emitted on
    std::uint64_t index = 0;       // per-edge record index on that edge
    std::int64_t emit_us = -1;
    std::int64_t enqueue_us = -1;  // pending-batch flush
    std::int64_t filter_us = -1;   // first filter decision
    std::vector<Hop> hops;         // fan-in tier traversals, in order
    std::int64_t accept_us = -1;   // final (live-sink) filter accept
    std::int64_t live_us = -1;     // live-analysis settle
    std::int64_t verdict_us = -1;  // predicate-detector settle
    bool accepted = false;
    // Live-binding identity: the meter-header fields of the record, used
    // to match the filter-accepted wire record to its analysis Event.
    std::uint16_t machine = 0;
    std::int32_t pid = 0;
    std::uint32_t type = 0;
    std::int64_t cpu_time = 0;
  };

  ProvenanceTracker(const Config& cfg, Registry* reg);

  const Config& config() const { return cfg_; }
  FinalStage final_stage() const { return final_stage_; }
  void set_final_stage(FinalStage s) { final_stage_ = s; }

  /// The deterministic 1-in-N test: (index + phase(edge, seed)) % N == 0.
  /// The per-edge phase keeps edges from sampling in lockstep.
  bool sampled(std::uint64_t edge, std::uint64_t index);

  /// True when (edge, index) has an in-flight entry. This — not sampled()
  /// — decides the filter tap's per-record gate: on an origin (tier-0)
  /// edge it coincides with the sampler by construction, but on a fan-in
  /// edge the entries were re-keyed to indices the *origin* edge's sampler
  /// chose, which the downstream edge's hash knows nothing about.
  bool tracked(std::uint64_t edge, std::uint64_t index) const {
    return entries_.find(Key{edge, index}) != entries_.end();
  }

  /// One edge's in-flight indices, in the order the edge's consumer reads
  /// them. Entries are opened on an edge, or re-keyed onto it by a fan-in
  /// delivery, in ascending index order as the edge delivers their
  /// records, and the consumer reads records in that order too. So the
  /// consumer, holding the queue (consumer_queue), answers an unsampled
  /// record with no lookup: only an index at the queue's front can be in
  /// flight. The queue may still hold an index whose entry died (evicted,
  /// killed), so a front index is confirmed with tracked().
  class InflightQueue {
   public:
    /// True when `index` is the queue's next index; drops it and every
    /// index below it, which the consumer has passed. Indices must be
    /// asked in ascending order.
    bool take(std::uint64_t index) {
      while (!q_.empty() && q_.front() < index) q_.pop_front();
      if (q_.empty() || q_.front() != index) return false;
      q_.pop_front();
      return true;
    }

   private:
    friend class ProvenanceTracker;
    std::deque<std::uint64_t> q_;
  };

  /// The in-flight queue of `edge`, for its consumer to hold while it
  /// reads the edge. It outlives the edge's closing (then it stays empty).
  std::shared_ptr<InflightQueue> consumer_queue(std::uint64_t edge) {
    return edge_state(edge).inflight;
  }

  // ---- tier-0: emit and transport ---------------------------------------
  /// A flushed pending batch landed in the consumer's receive buffer. `emit_us` carries one emit stamp per
  /// record in wire order (kernel keeps it beside the pending batch);
  /// `flush_us` is when the batch left the producer. Indices are assigned
  /// here, in delivery order — a batch dropped before delivery was never
  /// offered to this call and so never consumes indices.
  void on_batch_deliver(std::uint64_t edge,
                        const std::vector<std::int64_t>& emit_us,
                        std::int64_t flush_us, std::int64_t now_us);

  // ---- filter stage ------------------------------------------------------
  /// One framed record decided by a filter engine, in consume order
  /// (`index` is the caller's per-edge record count). Stamps the first
  /// filter decision and records stage.ring_to_filter_us. An accepted
  /// record on the *final* filter (the one feeding the live sink) is
  /// queued for live binding under its identity fields; on a staging
  /// filter it waits, still keyed on `edge`, for the forward call that
  /// carries its batch onto the next hop.
  void on_filter(std::uint64_t edge, std::uint64_t index, bool accepted,
                 bool final_filter, std::uint16_t machine, std::int32_t pid,
                 std::uint32_t type, std::int64_t cpu_time,
                 std::int64_t now_us);

  /// An aggregator pass-through (no filter decision): marks the record
  /// staged toward its next hop. Used for records arriving on fan-in
  /// edges at an intermediate aggregator.
  void on_stage(std::uint64_t edge, std::uint64_t index, std::int64_t now_us);

  // ---- fan-in hops -------------------------------------------------------
  /// A sampled record of a batch being forwarded up the fan-in tier. The
  /// forwarder collects them as it stages the batch and passes them with
  /// it, through Sys::meter_forward to the kernel's fan-in send and on to
  /// delivery: they travel with the call, never through shared state, so
  /// forwarders parked mid-forward cannot take each other's samples.
  struct ForwardSample {
    std::uint32_t pos = 0;     // record position within the forwarded batch
    std::uint64_t edge = 0;    // edge the entry is currently keyed on
    std::uint64_t index = 0;
  };

  /// The batch carrying `samples` left on a fan-in edge. Each entry moves
  /// off the inbound edge it was staged from, which may close while the
  /// batch is in flight, to a transit key that only on_fanin_deliver or
  /// on_fanin_drop ends; `samples` are updated to name it.
  void on_fanin_send(std::vector<ForwardSample>& samples);
  /// A forwarded batch of `records` records was delivered on `out_edge`:
  /// assigns that edge's next indices, re-keys each sample to
  /// (out_edge, base + pos), and records its stage.fanin_hop_us.
  void on_fanin_deliver(std::uint64_t out_edge, std::uint32_t records,
                        const std::vector<ForwardSample>& samples,
                        std::int64_t now_us);
  /// The batch was dropped (queue overflow, dead peer) or never sent (the
  /// forward bailed out before the kernel took it): the samples die.
  void on_fanin_drop(const std::vector<ForwardSample>& samples);

  // ---- live analysis and verdicts ----------------------------------------
  /// The live analysis admitted an event: binds the oldest queued sample
  /// with the same identity to `live_index`. Non-receive events settle
  /// into the causal structure immediately; receives settle at
  /// on_live_settle (pair or gap evidence).
  void on_live_event(std::uint64_t live_index, std::uint16_t machine,
                     std::int32_t pid, std::uint32_t type,
                     std::int64_t cpu_time, bool is_recv, std::int64_t now_us);
  /// A receive's pairing resolved (on_pair / on_gap).
  void on_live_settle(std::uint64_t live_index, std::int64_t now_us);
  /// The predicate detector settled the event (its verdict evaluation for
  /// this event is final).
  void on_verdict_settle(std::uint64_t live_index, std::int64_t now_us);

  // ---- lifecycle ---------------------------------------------------------
  /// The consumer endpoint died: in-flight entries keyed on `edge` can
  /// never progress; drop them and forget the edge's counters.
  void on_edge_closed(std::uint64_t edge);

  const std::deque<Journey>& journeys() const { return journeys_; }
  std::size_t inflight() const { return entries_.size(); }

 private:
  struct EdgeState {
    std::uint64_t next_index = 0;  // next record index to assign
    std::uint64_t phase = 0;       // sampler phase for this edge
    std::shared_ptr<InflightQueue> inflight;  // shared with the consumer
  };
  struct Entry {
    Journey j;
    std::int64_t stage_start_us = -1;  // staged toward a fan-in hop since
  };
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (edge, index)
  struct IdKey {
    std::uint16_t machine = 0;
    std::int32_t pid = 0;
    std::uint32_t type = 0;
    std::int64_t cpu_time = 0;
    friend auto operator<=>(const IdKey&, const IdKey&) = default;
  };

  EdgeState& edge_state(std::uint64_t edge);
  void open_entry(EdgeState& es, std::uint64_t edge, std::uint64_t index,
                  std::int64_t emit_us, std::int64_t enqueue_us);
  /// Files a new entry's key on its edge's in-flight queue.
  static void enqueue(EdgeState& es, std::uint64_t index);
  void finish(Entry&& e);
  void kill(const Key& k);

  Config cfg_;
  FinalStage final_stage_ = FinalStage::live;

  std::map<std::uint64_t, EdgeState> edges_;
  std::map<Key, Entry> entries_;            // in transit, keyed on the edge
  std::map<IdKey, std::deque<Key>> bind_;   // accepted, awaiting live event
  std::deque<IdKey> bind_order_;            // FIFO for bind_ eviction
  std::size_t bind_size_ = 0;
  std::map<std::uint64_t, Entry> live_entries_;  // keyed by live index
  std::uint64_t next_transit_ = 0;  // index of the next fan-in transit key

  std::deque<Journey> journeys_;
  std::uint64_t next_trace_id_ = 1;

  Histogram* h_emit_to_ring_ = nullptr;
  Histogram* h_ring_to_filter_ = nullptr;
  Histogram* h_fanin_hop_ = nullptr;
  Histogram* h_settle_ = nullptr;
  Histogram* h_verdict_ = nullptr;
  Histogram* h_freshness_ = nullptr;
  Counter* c_sampled_ = nullptr;
  Counter* c_completed_ = nullptr;
  Counter* c_rejected_ = nullptr;
  Counter* c_dropped_ = nullptr;
  Counter* c_evicted_ = nullptr;
  Gauge* g_inflight_ = nullptr;
};

/// The stage.* / e2e.* instrument keys the tracker records into, in
/// pipeline order — shared by the dpmtop pipeline panel, the controller
/// `lag` command, and scripts/check_obs.sh.
struct ProvenanceStage {
  const char* key;    // registry histogram key
  const char* label;  // short human label for panels
};
const std::vector<ProvenanceStage>& provenance_stages();

/// Renders the tracker's finished journeys as Chrome trace_event objects
/// (a comma-joined fragment, no enclosing brackets; empty when there are
/// no journeys): one synthetic "record provenance" process with a thread
/// lane per stage, 1us "X" slices at each stamp, and an "s"/"t"/"f" flow
/// chain per journey connecting them. Timestamps are sim-time
/// microseconds (the stage stamps' clock), so the lanes are internally
/// consistent but deliberately not aligned with the skewed local-clock
/// event lanes.
std::string journeys_chrome_events(const ProvenanceTracker& t);

}  // namespace dpm::obs
