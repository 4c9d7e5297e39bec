// Online possibly/definitely detection of global predicates.
//
// The detector subscribes to a LiveAnalysis (LiveObserver) and turns its
// event/pairing stream into verdicts about compiled predicates:
//
//   * A *settled frontier* replays events in trace order, holding a
//     receive back until its matching send is known (or the pairing
//     layer expelled it as a gap) — so when an event settles, every
//     happens-before edge into it is final. A receive whose matched
//     send has not settled yet registers as that send's *waiter* and is
//     woken the moment the send's stamp is recorded, so a send blocked
//     behind its own process's unpaired receive can never wedge the
//     receiver's process. Send stamps are retained only until their
//     receive settles (join or gap), are pruned when the pairing TTL
//     expels the send itself, and are capped (lowest trace index
//     evicted first) — a waiter of an evicted stamp settles without the
//     join rather than stall.
//   * Per process it maintains a vector clock (exact happens-before:
//     receives join their send's clock), a hybrid logical clock
//     (l = max(l, local_reading, sender_l); the HLC never runs behind
//     any clock it has heard from), and the *state*: the last value of
//     every meter-record field, which is what clauses test.
//   * Per predicate instantiation (wildcard selectors bind to concrete
//     processes as they appear) and per conjunct, truth transitions of
//     the clause group open and close *intervals* stamped with the
//     VC/HLC/local-time bounds of the state's first and last events.
//   * Interval heads are checked Garg–Waldecker style: a tuple with no
//     pairwise exclusion is a witness cut. With physical skew bounded by
//     ε (MachineClock, World::clock_skew_bound_us):
//
//       possibly(P):  no pair ordered by happens-before, and every pair
//                     of intervals can overlap once readings are
//                     widened by ε;
//       definitely(P): possibly's conditions, and the latest start plus
//                     ε still precedes the earliest end — the overlap
//                     survives any skew assignment within ε, so every
//                     run through the lattice passes through it. (ε
//                     bounds any *pair* of readings of one instant, so
//                     all per-machine offsets against any one reference
//                     clock live in a window of width ε — shifting
//                     starts up and ends down can cost at most ε.)
//
//     definitely(P) ⊆ possibly(P) holds structurally: a definite verdict
//     is only ever emitted on a cut that already passed the possibly
//     tests. An excluded earlier interval can never witness again (its
//     peers' queues only move later) and is popped, so detection is
//     incremental and each interval is visited O(conjuncts) times.
//
// Verdicts are deterministic functions of the trace prefix: same trace,
// same chunking or not, same verdict sequence.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/live/aggregator.h"
#include "analysis/predicates/predicate.h"
#include "obs/registry.h"

namespace dpm::analysis::pred {

struct DetectorConfig {
  /// Physical clock-skew bound ε, in microseconds: any two machine-clock
  /// readings of the same instant differ by at most this. Drives both
  /// verdict tiers (see header comment). World::clock_skew_bound_us()
  /// computes a sound value for a simulated world.
  std::int64_t epsilon_us = 1000;
  /// Cap on retained send stamps (sends settled but whose receive has
  /// not). Stamps normally die when the receive settles or the pairing
  /// TTL expels the send; the cap bounds the residue of sends whose
  /// receive never produces either signal in a long-running session.
  /// Past it the lowest-index stamp is dropped (its receive, if it ever
  /// settles, joins nothing — counted in pred.send_stamps_dropped).
  std::size_t max_send_stamps = 65536;
};

class PredicateDetector : public live::LiveObserver {
 public:
  /// `reg` defaults to a private registry, like LiveAnalysis. Pass the
  /// world's to surface pred.* in obs snapshots.
  PredicateDetector(const filter::Descriptions& desc, DetectorConfig cfg = {},
                    obs::Registry* reg = nullptr);

  /// Parses + compiles + registers one predicate spec. False + `error`
  /// on parse/compile failure or duplicate name.
  bool add_predicate(std::string_view spec_text, std::string* error = nullptr);

  // ---- LiveObserver (feed from a LiveAnalysis via add_observer) ----------
  void on_event(std::size_t index, const Event& e,
                const NameTable& names) override;
  void on_pair(std::size_t send_index, std::size_t recv_index) override;
  void on_gap(std::size_t index) override;

  /// Settles everything still buffered (receives whose sends never
  /// arrived settle without a join). Call at end of trace before reading
  /// final verdicts; feeding more events afterwards is undefined.
  void finish();

  // ---- results ------------------------------------------------------------
  enum class VerdictKind : std::uint8_t { possibly, definitely };

  struct WitnessInterval {
    ProcKey proc;
    std::int64_t lo_hlc_us = 0;  // HLC physical component at state entry
    std::int64_t hi_hlc_us = 0;  // ... at last settled event while true
    std::int64_t lo_local_us = 0;  // raw machine-clock readings (for
    std::int64_t hi_local_us = 0;  // ground-truth inversion in benches)
    std::size_t lo_index = 0;      // trace indices of the interval bounds
    std::size_t hi_index = 0;
    bool open = false;  // still true when the verdict was emitted
  };

  struct Verdict {
    std::string predicate;
    VerdictKind kind = VerdictKind::possibly;
    std::uint64_t occurrence = 0;  // per-predicate witness ordinal
    std::int64_t cut_lo_us = 0;    // witness window: latest interval start
    std::int64_t cut_hi_us = 0;    // ... earliest interval end (HLC us)
    std::int64_t detect_lag_us = 0;  // frontier HLC - cut_lo at emission
    std::vector<WitnessInterval> witness;  // one per local conjunct
  };

  /// Verdicts emitted since the last take; order is emission order.
  std::vector<Verdict> take_verdicts();
  /// All verdicts retained so far (the newest kMaxVerdicts in detector.cc).
  const std::deque<Verdict>& verdicts() const { return verdicts_; }

  struct PredicateStatus {
    std::string name;
    std::string spec;
    std::size_t instantiations = 0;
    std::uint64_t possibly_count = 0;
    std::uint64_t definitely_count = 0;
    /// 0 = never held, 1 = possibly, 2 = definitely (the strongest
    /// verdict emitted so far; mirrors the pred.state.<name> gauge).
    int strongest = 0;
  };
  std::vector<PredicateStatus> status() const;

  struct Stats {
    std::size_t events = 0;       // observed from the live stream
    std::size_t settled = 0;      // passed the frontier
    std::size_t unsettled = 0;    // buffered awaiting pairing evidence
    std::size_t predicates = 0;
    std::size_t instantiations = 0;
    std::size_t open_intervals = 0;
    std::uint64_t cuts_examined = 0;
    std::uint64_t verdicts_possibly = 0;
    std::uint64_t verdicts_definitely = 0;
    std::size_t capped_instantiations = 0;
    std::size_t send_stamps = 0;          // retained, awaiting their recv
    std::size_t send_stamps_dropped = 0;  // pruned (TTL gap / cap / no recv)
  };
  Stats stats() const;

  const DetectorConfig& config() const { return cfg_; }
  obs::Registry& obs() { return *reg_; }

  /// Hook fired once per event as it passes the settled frontier — every
  /// happens-before edge into it is final and its predicate evaluation
  /// for this event has run. `live_index` is the LiveAnalysis arrival
  /// index. Record provenance stamps its verdict stage here.
  using SettleHook = std::function<void(std::size_t live_index)>;
  void set_settle_hook(SettleHook hook) { settle_hook_ = std::move(hook); }

 private:
  static constexpr std::size_t kNoIndex = SIZE_MAX;

  using Vc = std::vector<std::uint32_t>;  // indexed by dense proc slot

  struct Interval {
    std::int64_t lo_l = 0, hi_l = 0;    // HLC physical bounds
    std::int64_t lo_pt = 0, hi_pt = 0;  // raw local-clock bounds
    Vc lo_vc, hi_vc;                    // VC at entry / last event while true
    std::size_t lo_index = 0, hi_index = 0;
    bool open = true;
  };

  /// One (instantiation, conjunct): the concrete process, its pending
  /// closed intervals, and the currently open one.
  struct Tracker {
    std::size_t proc_slot = 0;
    bool holds = false;
    Interval open;                 // valid while holds
    std::deque<Interval> queue;    // closed, FIFO
  };

  struct Instantiation {
    std::vector<Tracker> trackers;  // one per local conjunct
    std::uint64_t occurrences = 0;
    /// Last emitted witness signature (lo_index per conjunct) and whether
    /// it already got a definite verdict — dedups re-examination of a
    /// tuple that includes still-open intervals.
    std::vector<std::size_t> last_sig;
    bool last_definitely = false;
    std::uint64_t last_occ = 0;
  };

  struct PredState {
    CompiledPredicate compiled;
    std::vector<Instantiation> insts;
    /// Per conjunct: proc slots already bound (drives incremental
    /// cartesian instantiation as processes appear).
    std::vector<std::vector<std::size_t>> bound;
    std::uint64_t possibly_count = 0;
    std::uint64_t definitely_count = 0;
    int strongest = 0;
    obs::Counter* c_occurrences = nullptr;
    obs::Gauge* g_state = nullptr;
  };

  struct ProcRt {
    ProcKey key;
    Vc vc;
    std::int64_t hlc_l = 0;
    std::uint32_t hlc_c = 0;
    std::int64_t last_pt = 0;
    std::size_t last_index = 0;
    std::vector<std::optional<filter::FieldValue>> state;
  };

  struct PendEvent {
    Event e;
    std::size_t index = 0;
    std::size_t send_index = kNoIndex;  // for receives: the matched send
    bool gap = false;                   // expelled by the pairing TTL
  };

  /// Stamps of a settled send, held until its receive settles and joins.
  struct SendStamp {
    Vc vc;
    std::int64_t hlc_l = 0;
    std::size_t proc_slot = 0;
  };

  void settle_ready();
  void settle(PendEvent& pe);
  void wake_waiter(std::size_t send_index);
  void drop_send_stamp(std::size_t send_index);
  std::size_t proc_slot(const ProcKey& key);
  void bind_one(std::size_t pred_index, std::size_t slot);
  void expand_combos(std::size_t pred_index, std::size_t pinned,
                     std::size_t at, std::vector<std::size_t>& combo);
  bool conjunct_holds(const CompiledConjunct& cc, const ProcRt& rt) const;
  void update_trackers(std::size_t slot, std::uint32_t changed_mask,
                       bool terminating, const ProcRt& rt);
  void close_open(Tracker& t, const ProcRt& rt, std::int64_t end_l,
                  std::int64_t end_pt);
  void check_instantiation(PredState& ps, Instantiation& inst);
  bool hb_before(const Vc& hi, std::size_t hi_slot, const Vc& lo) const;
  bool reaches_hold(const PredState& ps) const;
  void emit_verdict(PredState& ps, Instantiation& inst,
                    const std::vector<const Interval*>& heads,
                    VerdictKind kind);

  const filter::Descriptions& desc_;
  DetectorConfig cfg_;
  StateUpdateTable updates_;
  std::unique_ptr<obs::Registry> own_reg_;
  obs::Registry* reg_ = nullptr;

  std::map<ProcKey, std::size_t> slot_of_;
  std::vector<ProcRt> procs_;
  std::map<std::string, std::size_t> pred_of_;  // name -> preds_ index
  std::vector<PredState> preds_;

  // The aggregator's name table, which pending events' name ids index.
  const NameTable* names_ = nullptr;
  std::map<std::size_t, PendEvent> pending_;  // index -> unsettled event
  std::map<ProcKey, std::deque<std::size_t>> proc_pending_;
  std::set<std::size_t> candidates_;  // settle-eligible (to re-verify)
  std::map<std::size_t, SendStamp> send_stamps_;
  /// send index -> receive index parked on its stamp; woken (re-inserted
  /// into candidates_) when the send settles or its stamp is dropped.
  std::map<std::size_t, std::size_t> send_waiters_;
  std::set<std::pair<std::size_t, std::size_t>> channels_;  // settled edges
  std::size_t settled_ = 0;
  std::size_t events_seen_ = 0;
  std::int64_t frontier_l_ = 0;     // max HLC l over settled events
  std::size_t capped_ = 0;
  std::size_t insts_total_ = 0;     // instantiations across all predicates
  std::size_t stamps_dropped_ = 0;
  bool finished_ = false;

  std::deque<Verdict> verdicts_;
  std::size_t taken_ = 0;  // verdicts_ prefix already returned by take
  SettleHook settle_hook_;

  obs::Counter* c_verdicts_ = nullptr;
  obs::Counter* c_possibly_ = nullptr;
  obs::Counter* c_definitely_ = nullptr;
  obs::Counter* c_cuts_ = nullptr;
  obs::Counter* c_capped_ = nullptr;
  obs::Counter* c_stamps_dropped_ = nullptr;
  obs::Gauge* g_predicates_ = nullptr;
  obs::Gauge* g_insts_ = nullptr;
  obs::Gauge* g_open_ = nullptr;
  obs::Gauge* g_unsettled_ = nullptr;
  obs::Histogram* h_lag_ = nullptr;
};

}  // namespace dpm::analysis::pred
