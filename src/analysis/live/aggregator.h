// Streaming causal analysis: the paper's off-line stage three, online.
//
// The paper analyzes traces only "after the measured computation has
// ended" (§4). LiveAnalysis consumes the same records one at a time —
// pushed by a filter sink while the computation runs, or tailed from a
// growing log — and maintains incrementally what order_events() computes
// in batch, plus what batch never could: a view of *now*.
//
//   * happens-before: send/receive pairing through the shared PairingCore
//     (identical pairs to order_events), program order, and Lamport
//     clocks by monotone relaxation — every new edge can only raise a
//     clock, so propagating increases along the (at most two) successors
//     of each raised node reaches the same fixpoint Kahn's algorithm
//     computes on the final DAG;
//   * critical path: alongside each Lamport clock, the maximum-cost path
//     cost into every event (program edges weighted by local elapsed
//     time, message edges by send→receive latency, both clamped at 0)
//     with a predecessor pointer; walking back from the costliest event
//     yields the path with its time attributed per process and per
//     channel;
//   * rolling-window stats: per-process and per-channel rates over the
//     last window_us of trace time (RollingWindow), latencies into
//     obs::Registry log2 histograms.
//
// A cyclic constraint set (only possible from mis-matched pairs) is
// detected when a Lamport clock exceeds the event count — the longest
// path in a DAG of n events is at most n — and freezes further
// relaxation; stats().had_cycle mirrors Ordering::had_cycle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/live/pairing.h"
#include "analysis/live/window.h"
#include "analysis/trace_reader.h"
#include "filter/filter_program.h"
#include "obs/registry.h"

namespace dpm::analysis::live {

struct LiveConfig {
  /// Rolling-stats window, in trace-time microseconds.
  std::int64_t window_us = 1'000'000;
  /// Park TTL in units of Lamport progress: an event parked awaiting
  /// routing evidence for more than this much progress is expelled as a
  /// per-channel *gap* (its evidence is presumed lost to a fault) instead
  /// of holding memory forever. The longest path in an n-event DAG is n,
  /// so the default never fires on a healthy trace shorter than 64k
  /// events — batch equivalence is exact there. 0 disables expulsion.
  std::uint64_t park_ttl = 65536;
};

/// How one happens-before edge was induced.
enum class EdgeKind : std::uint8_t { none, program, message };

/// Downstream consumers of the pairing/ordering stream (the predicate
/// detector, analysis/predicates/). Callbacks fire synchronously inside
/// add_event, in a fixed order: on_event for the new event (indices are
/// arrival order, the same ones lamport_of/time_of use), then on_pair for
/// every pair the event completed, then on_gap for every parked event the
/// TTL sweep expelled. The same trace fed in any chunking produces the
/// same callback sequence. on_event's `names` is the aggregator's table
/// (the same on every call), which the event's name ids index.
class LiveObserver {
 public:
  virtual ~LiveObserver() = default;
  virtual void on_event(std::size_t index, const Event& e,
                        const NameTable& names) = 0;
  virtual void on_pair(std::size_t /*send_index*/, std::size_t /*recv_index*/) {
  }
  virtual void on_gap(std::size_t /*index*/) {}
};

class LiveAnalysis {
 public:
  /// `reg` is the registry the aggregator accounts through (the world's,
  /// when attached to a running session — its live.* instruments then
  /// appear in world.obs_snapshot()). Null keeps a private registry.
  explicit LiveAnalysis(LiveConfig cfg = {}, obs::Registry* reg = nullptr);

  /// The table the name ids of the aggregator's events index. The
  /// tailer parses into it; observers read names through it.
  NameTable& names() { return *names_; }
  const NameTable& names() const { return *names_; }

  /// Consumes one event whose name ids index `names`: names() itself on
  /// the tailer's path, or a Trace's table when a batch trace is replayed
  /// here (its names are then interned into names()). Indices are
  /// assigned by arrival order; the event's own `index` field is ignored.
  void add_event(const Event& e, const NameTable& names);
  /// Consumes one record event_from_record converted, interning its
  /// names into names().
  void add_event(const RecordEvent& e);

  // ---- happens-before state (mirrors Ordering for equivalence) ----------
  std::size_t events() const { return nodes_.size(); }
  std::uint64_t lamport_of(std::size_t i) const { return nodes_[i].lamport; }
  std::optional<std::size_t> matched_send_of(std::size_t i) const;

  // Per-event views (the Chrome exporter renders lanes from these).
  ProcKey proc_of(std::size_t i) const { return nodes_[i].proc; }
  meter::EventType type_of(std::size_t i) const { return nodes_[i].type; }
  std::int64_t time_of(std::size_t i) const { return nodes_[i].t_us; }
  std::int64_t cost_of(std::size_t i) const { return nodes_[i].cost; }

  struct Stats {
    std::size_t events = 0;
    std::size_t message_pairs = 0;
    std::size_t cross_machine_pairs = 0;
    std::size_t clock_anomalies = 0;  // recv local time < send local time
    std::int64_t max_anomaly_us = 0;
    bool had_cycle = false;
    bool pairing_disorder = false;  // PairingCore::disorder()
    std::size_t parked = 0;         // events awaiting routing evidence
    std::size_t gaps = 0;           // parked events expelled by the TTL
    std::uint64_t max_lamport = 0;
    std::uint64_t relax_steps = 0;  // total relaxation edge visits
    std::int64_t now_us = 0;        // largest local timestamp seen
  };
  Stats stats() const;

  // ---- rolling-window rates ---------------------------------------------
  struct ProcRates {
    ProcKey proc;
    std::uint64_t total_events = 0;
    std::uint64_t total_sends = 0;
    std::uint64_t total_recvs = 0;
    std::uint64_t total_bytes = 0;  // sent + received payload bytes
    double events_per_s = 0;        // over the rolling window
    double bytes_per_s = 0;
    bool terminated = false;  // saw TERMPROC
  };
  /// Sorted by ProcKey. Advances every window to the newest trace time.
  std::vector<ProcRates> process_rates();

  struct ChannelRates {
    ProcKey from;
    ProcKey to;
    std::uint64_t total_msgs = 0;
    std::uint64_t total_bytes = 0;
    double msgs_per_s = 0;  // over the rolling window
    double bytes_per_s = 0;
    double avg_latency_us = 0;        // over the window (clamped at 0)
    std::int64_t last_latency_us = 0;  // raw, may be negative under skew
  };
  std::vector<ChannelRates> channel_rates();

  // ---- critical path ------------------------------------------------------
  struct CritStep {
    std::size_t from = 0;  // event indices
    std::size_t to = 0;
    EdgeKind kind = EdgeKind::none;
    std::int64_t elapsed_us = 0;
    ProcKey from_proc;
    ProcKey to_proc;
  };
  struct CriticalPath {
    bool valid = false;         // false until any event arrived
    std::int64_t total_us = 0;  // cost of the costliest event
    std::size_t end_event = 0;
    std::vector<CritStep> steps;  // start → end
    std::map<ProcKey, std::int64_t> proc_us;  // program-edge attribution
    std::map<std::pair<ProcKey, ProcKey>, std::int64_t> channel_us;
  };
  /// Walks the predecessor chain back from the costliest event. O(path).
  CriticalPath critical_path() const;

  const LiveConfig& config() const { return cfg_; }
  obs::Registry& obs() { return *reg_; }

  /// Registers a downstream observer (not owned; must outlive the
  /// aggregator or be removed by destroying the aggregator first).
  void add_observer(LiveObserver* obs) { observers_.push_back(obs); }

  /// Registers an observer ahead of the ones already present. The
  /// provenance live observer needs this: the predicate detector settles
  /// events synchronously inside its own on_event, so an observer that
  /// must see the event *before* the detector's verdict (to bind the
  /// record's identity to its live index) has to run first.
  void add_observer_front(LiveObserver* obs) {
    observers_.insert(observers_.begin(), obs);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Node {
    ProcKey proc;
    meter::EventType type = meter::EventType::send;
    std::int64_t t_us = 0;
    std::uint32_t bytes = 0;
    std::uint64_t lamport = 1;
    std::int64_t cost = 0;  // max-cost path into this event, microseconds
    std::uint32_t pred = kNone;          // cost's argmax predecessor
    EdgeKind pred_kind = EdgeKind::none;
    std::uint32_t prog_next = kNone;     // program-order successor
    std::uint32_t pair_peer = kNone;     // send: its recv; recv: its send
  };

  struct ProcStats {
    explicit ProcStats(std::int64_t span)
        : wnd_events(span), wnd_bytes(span) {}
    RollingWindow wnd_events;
    RollingWindow wnd_bytes;
    std::uint64_t total_events = 0;
    std::uint64_t total_sends = 0;
    std::uint64_t total_recvs = 0;
    std::uint64_t total_bytes = 0;
    bool terminated = false;
  };
  struct ChanStats {
    explicit ChanStats(std::int64_t span)
        : wnd_msgs(span), wnd_bytes(span), wnd_latency(span) {}
    RollingWindow wnd_msgs;
    RollingWindow wnd_bytes;
    RollingWindow wnd_latency;  // weight = clamped latency
    std::uint64_t total_msgs = 0;
    std::uint64_t total_bytes = 0;
    std::int64_t last_latency_us = 0;
    // "live.chan_latency_us.<from>-><to>", besides the aggregate
    obs::Histogram* latency_hist = nullptr;
  };

  /// add_event's body, for an event whose name ids index names().
  void add(const Event& e);
  void on_pair(const PairingCore::Pair& p);
  bool relax(std::uint32_t u, std::uint32_t v, EdgeKind kind);
  void propagate(std::uint32_t from);
  std::int64_t edge_weight(std::uint32_t u, std::uint32_t v) const;

  LiveConfig cfg_;
  std::unique_ptr<obs::Registry> own_reg_;
  obs::Registry* reg_ = nullptr;

  std::vector<Node> nodes_;
  // On the heap, so pairing_'s pointer to it survives a move.
  std::unique_ptr<NameTable> names_ = std::make_unique<NameTable>();
  PairingCore pairing_{*names_};
  std::map<ProcKey, std::uint32_t> last_of_;  // per-process last event
  std::map<ProcKey, ProcStats> procs_;
  std::map<std::pair<ProcKey, ProcKey>, ChanStats> chans_;

  std::size_t message_pairs_ = 0;
  std::size_t cross_machine_pairs_ = 0;
  std::size_t clock_anomalies_ = 0;
  std::int64_t max_anomaly_us_ = 0;
  bool had_cycle_ = false;
  std::uint64_t max_lamport_ = 0;
  std::uint64_t relax_steps_ = 0;
  std::int64_t now_us_ = 0;
  std::uint32_t best_cost_node_ = kNone;

  std::vector<std::uint32_t> worklist_;
  std::vector<LiveObserver*> observers_;

  // Registry instruments (resolved once; null registry → private one).
  obs::Counter* c_events_ = nullptr;
  obs::Counter* c_pairs_ = nullptr;
  obs::Counter* c_cross_ = nullptr;
  obs::Counter* c_anomalies_ = nullptr;
  obs::Counter* c_relax_ = nullptr;
  obs::Counter* c_gaps_ = nullptr;
  obs::Gauge* g_parked_ = nullptr;
  obs::Gauge* g_max_lamport_ = nullptr;
  obs::Gauge* g_crit_us_ = nullptr;
  obs::Gauge* g_procs_ = nullptr;
  obs::Histogram* h_latency_ = nullptr;
};

/// Incremental splitter for a growing trace file: feed() any chunking of
/// the text (a live stream, tail-read blocks); complete lines are parsed
/// with parse_trace_event_line and pushed into the aggregator. finish()
/// flushes a trailing line that lacks its newline.
class TraceTailer {
 public:
  explicit TraceTailer(LiveAnalysis& live) : live_(&live) {}

  void feed(std::string_view chunk);
  void finish();

  std::size_t lines() const { return lines_; }
  std::size_t malformed() const { return malformed_; }

 private:
  void take_line(std::string_view line);

  LiveAnalysis* live_;
  std::string partial_;
  std::size_t lines_ = 0;
  std::size_t malformed_ = 0;
};

/// The filter push sink (filter::RecordSink) feeding a LiveAnalysis:
/// accepted records are converted straight off the filter's wire view
/// (event_from_view) and aggregated with no decode and no log round-trip.
/// Install on a World with filter::install_live_sink so every filter
/// started in a session feeds it.
class LiveRecordSink : public filter::RecordSink {
 public:
  explicit LiveRecordSink(LiveAnalysis& live) : live_(&live) {}

  void on_view(const filter::RecordView& v, const filter::WirePlan& plan,
               const std::string_view* strings,
               const filter::Descriptions& desc) override;
  /// The same event from a decoded record (event_from_record), for
  /// callers that hold one.
  void on_record(const filter::Record& rec) override;

  /// Accepted records that did not convert to an Event (unknown name or
  /// missing identity fields).
  std::size_t dropped() const { return dropped_; }

 private:
  /// Aggregates a converted event, or counts a record that did not
  /// convert.
  void take(std::optional<Event> e);

  LiveAnalysis* live_;
  std::size_t dropped_ = 0;
};

}  // namespace dpm::analysis::live
