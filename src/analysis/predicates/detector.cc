#include "analysis/predicates/detector.h"

#include <algorithm>

namespace dpm::analysis::pred {

namespace {

/// Cap on concrete instantiations per predicate (cartesian growth over
/// wildcard selectors); beyond it new combinations are counted
/// (pred.instantiations_capped) and ignored.
constexpr std::size_t kMaxInstantiations = 64;
/// Cap on retained (not yet consumed) verdicts.
constexpr std::size_t kMaxVerdicts = 4096;

}  // namespace

PredicateDetector::PredicateDetector(const filter::Descriptions& desc,
                                     DetectorConfig cfg, obs::Registry* reg)
    : desc_(desc), cfg_(cfg), updates_(desc) {
  if (reg == nullptr) {
    own_reg_ = std::make_unique<obs::Registry>();
    reg = own_reg_.get();
  }
  reg_ = reg;
  c_verdicts_ = &reg_->counter("pred.verdicts");
  c_possibly_ = &reg_->counter("pred.verdicts_possibly");
  c_definitely_ = &reg_->counter("pred.verdicts_definitely");
  c_cuts_ = &reg_->counter("pred.lattice_cuts");
  c_capped_ = &reg_->counter("pred.instantiations_capped");
  c_stamps_dropped_ = &reg_->counter("pred.send_stamps_dropped");
  g_predicates_ = &reg_->gauge("pred.predicates");
  g_insts_ = &reg_->gauge("pred.instantiations");
  g_open_ = &reg_->gauge("pred.open_intervals");
  g_unsettled_ = &reg_->gauge("pred.unsettled");
  h_lag_ = &reg_->histogram("pred.witness_lag_us");
}

bool PredicateDetector::add_predicate(std::string_view spec_text,
                                      std::string* error) {
  const auto spec = PredicateSpec::parse(spec_text, error);
  if (!spec) return false;
  if (pred_of_.count(spec->name)) {
    if (error != nullptr) *error = "predicate '" + spec->name + "' exists";
    return false;
  }
  auto compiled = CompiledPredicate::compile(*spec, desc_, error);
  if (!compiled) return false;

  PredState ps;
  ps.compiled = std::move(*compiled);
  ps.bound.resize(ps.compiled.locals().size());
  ps.c_occurrences = &reg_->counter("pred.occurrences." + spec->name);
  ps.g_state = &reg_->gauge("pred.state." + spec->name);
  pred_of_[spec->name] = preds_.size();
  preds_.push_back(std::move(ps));
  g_predicates_->set(static_cast<std::int64_t>(preds_.size()));

  // Bind the processes that already appeared: a predicate added
  // mid-stream behaves like a late-bound instantiation — its intervals
  // start at the current state, the pre-registration history is not
  // replayed.
  for (std::size_t slot = 0; slot < procs_.size(); ++slot) {
    bind_one(preds_.size() - 1, slot);
  }
  return true;
}

/// Expands instantiations of predicate `pi` with process `slot` bound to
/// every conjunct whose selector matches; then records the binding.
void PredicateDetector::bind_one(std::size_t pi, std::size_t slot) {
  PredState& ps = preds_[pi];
  const auto& locals = ps.compiled.locals();
  const ProcRt& rt = procs_[slot];
  for (std::size_t c = 0; c < locals.size(); ++c) {
    if (!locals[c].sel.matches(rt.key)) continue;
    if (std::find(ps.bound[c].begin(), ps.bound[c].end(), slot) !=
        ps.bound[c].end()) {
      continue;
    }
    // Cartesian expansion with position c pinned to `slot`; conjuncts
    // bind pairwise-distinct processes.
    std::vector<std::size_t> combo(locals.size());
    combo[c] = slot;
    expand_combos(pi, c, 0, combo);
    ps.bound[c].push_back(slot);
  }
}

void PredicateDetector::expand_combos(std::size_t pi, std::size_t pinned,
                                      std::size_t at,
                                      std::vector<std::size_t>& combo) {
  PredState& ps = preds_[pi];
  const std::size_t n = ps.compiled.locals().size();
  if (at == n) {
    if (ps.insts.size() >= kMaxInstantiations) {
      ++capped_;
      c_capped_->add(1);
      return;
    }
    Instantiation inst;
    inst.trackers.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Tracker& t = inst.trackers[i];
      t.proc_slot = combo[i];
      // A process bound after it already ran: its conjunct is evaluated
      // against the current state, and an interval (if the state already
      // satisfies it) starts *now* — the pre-binding history is not
      // replayed, which under-approximates possibly but never fabricates
      // a witness.
      const ProcRt& rt = procs_[combo[i]];
      if (rt.vc.empty()) continue;  // no settled event yet
      if (conjunct_holds(ps.compiled.locals()[i], rt)) {
        t.holds = true;
        t.open = Interval{rt.hlc_l, rt.hlc_l, rt.last_pt, rt.last_pt,
                          rt.vc,    rt.vc,    rt.last_index, rt.last_index,
                          true};
      }
    }
    ps.insts.push_back(std::move(inst));
    g_insts_->set(static_cast<std::int64_t>(++insts_total_));
    return;
  }
  if (at == pinned) {
    expand_combos(pi, pinned, at + 1, combo);
    return;
  }
  for (const std::size_t s : ps.bound[at]) {
    if (std::find(combo.begin(), combo.begin() + static_cast<long>(at), s) !=
            combo.begin() + static_cast<long>(at) ||
        s == combo[pinned]) {
      continue;
    }
    combo[at] = s;
    expand_combos(pi, pinned, at + 1, combo);
  }
  combo[at] = SIZE_MAX;
}

bool PredicateDetector::conjunct_holds(const CompiledConjunct& cc,
                                       const ProcRt& rt) const {
  for (const CompiledClause& c : cc.clauses) {
    const auto& slot = rt.state[c.field];
    if (!slot.has_value()) return false;  // field never seen: wildcard too
    if (!c.holds(*slot)) return false;
  }
  return true;
}

// ---- event intake ---------------------------------------------------------

void PredicateDetector::on_event(std::size_t index, const Event& e,
                                 const NameTable& names) {
  if (finished_) return;
  names_ = &names;
  ++events_seen_;
  PendEvent pe;
  pe.e = e;
  pe.index = index;
  // A pair may have been announced before the recv's own on_event (it
  // cannot with the aggregator's callback order, but stay safe).
  auto [it, fresh] = pending_.try_emplace(index, std::move(pe));
  (void)fresh;
  proc_pending_[e.proc()].push_back(index);
  if (proc_pending_[e.proc()].front() == index) candidates_.insert(index);
  settle_ready();
}

void PredicateDetector::on_pair(std::size_t send_index,
                                std::size_t recv_index) {
  if (finished_) return;
  const auto it = pending_.find(recv_index);
  if (it == pending_.end()) return;  // recv already settled (gap/finish)
  it->second.send_index = send_index;
  candidates_.insert(recv_index);
  settle_ready();
}

void PredicateDetector::on_gap(std::size_t index) {
  if (finished_) return;
  const auto it = pending_.find(index);
  if (it == pending_.end()) {
    // An already-settled send expelled by the pairing TTL: it will never
    // pair, so its retained stamp is dead weight.
    drop_send_stamp(index);
    settle_ready();
    return;
  }
  it->second.gap = true;
  candidates_.insert(index);
  settle_ready();
}

/// Re-queues the receive (if any) parked on `send_index`'s stamp.
void PredicateDetector::wake_waiter(std::size_t send_index) {
  const auto it = send_waiters_.find(send_index);
  if (it == send_waiters_.end()) return;
  candidates_.insert(it->second);
  send_waiters_.erase(it);
}

void PredicateDetector::drop_send_stamp(std::size_t send_index) {
  const auto it = send_stamps_.find(send_index);
  if (it == send_stamps_.end()) return;
  send_stamps_.erase(it);
  ++stamps_dropped_;
  c_stamps_dropped_->add(1);
  wake_waiter(send_index);
}

void PredicateDetector::finish() {
  if (finished_) return;
  // Receives still waiting settle without a join: their sends never
  // arrived (or arrive behind them and can no longer be waited for).
  // Severing the lowest stuck per-process head and re-running the settle
  // loop keeps the result deterministic for a given trace.
  while (!pending_.empty()) {
    settle_ready();
    bool severed = false;
    for (auto& [idx, pe] : pending_) {
      const auto& q = proc_pending_[pe.e.proc()];
      if (q.empty() || q.front() != idx) continue;
      if (pe.e.type == meter::EventType::recv && !pe.gap &&
          pe.send_index != kNoIndex && send_stamps_.count(pe.send_index)) {
        // The join is sitting right there (unreachable given waiter
        // wakeups, but never discard a known causal edge): re-queue the
        // receive instead of severing it.
        candidates_.insert(idx);
      } else {
        pe.gap = true;
        pe.send_index = kNoIndex;
        candidates_.insert(idx);
      }
      severed = true;
      break;
    }
    if (!severed) break;  // no per-process head: bookkeeping bug, don't spin
  }
  finished_ = true;
  g_unsettled_->set(0);
}

void PredicateDetector::settle_ready() {
  while (!candidates_.empty()) {
    const std::size_t idx = *candidates_.begin();
    candidates_.erase(candidates_.begin());
    const auto it = pending_.find(idx);
    if (it == pending_.end()) continue;
    PendEvent& pe = it->second;
    auto& q = proc_pending_[pe.e.proc()];
    if (q.empty() || q.front() != idx) continue;  // program order first
    const bool is_recv = pe.e.type == meter::EventType::recv;
    if (is_recv && !pe.gap && pe.send_index != kNoIndex &&
        !send_stamps_.count(pe.send_index)) {
      if (pending_.count(pe.send_index)) {
        // Paired, but the send has not settled yet (it may be blocked
        // behind its own process's unpaired receive): park as its
        // waiter — settle() wakes us the moment the stamp lands.
        send_waiters_[pe.send_index] = idx;
        continue;
      }
      // The send settled without leaving a stamp (expelled by the
      // pairing TTL or pruned past the stamp cap): the join is
      // unrecoverable — settle without it rather than wedge the queue.
    }
    if (is_recv && !pe.gap && pe.send_index == kNoIndex) {
      continue;  // unpaired recv: wait for pairing evidence or the TTL
    }
    PendEvent settled = std::move(pe);
    pending_.erase(it);
    q.pop_front();
    settle(settled);
    // Settling may unblock this process's next event and (for sends) the
    // waiting receive.
    if (!q.empty()) candidates_.insert(q.front());
  }
  g_unsettled_->set(static_cast<std::int64_t>(pending_.size()));
}

std::size_t PredicateDetector::proc_slot(const ProcKey& key) {
  const auto it = slot_of_.find(key);
  if (it != slot_of_.end()) return it->second;
  const std::size_t slot = procs_.size();
  slot_of_[key] = slot;
  ProcRt rt;
  rt.key = key;
  rt.state.resize(state_field_count());
  procs_.push_back(std::move(rt));
  return slot;
}

void PredicateDetector::settle(PendEvent& pe) {
  const Event& e = pe.e;
  const bool fresh_proc = !slot_of_.count(e.proc());
  const std::size_t slot = proc_slot(e.proc());
  ProcRt& rt = procs_[slot];

  // Vector clock: tick own component; a joined receive folds in the
  // send's clock (which already counts the send itself).
  if (rt.vc.size() <= slot) rt.vc.resize(slot + 1, 0);
  ++rt.vc[slot];
  std::int64_t msg_l = 0;
  bool new_edge = false;
  if (e.type == meter::EventType::recv && pe.send_index != kNoIndex) {
    const auto sit = send_stamps_.find(pe.send_index);
    if (sit != send_stamps_.end()) {
      if (!pe.gap) {
        const SendStamp& ss = sit->second;
        if (rt.vc.size() < ss.vc.size()) rt.vc.resize(ss.vc.size(), 0);
        for (std::size_t i = 0; i < ss.vc.size(); ++i) {
          rt.vc[i] = std::max(rt.vc[i], ss.vc[i]);
        }
        msg_l = ss.hlc_l;
        new_edge = channels_.insert({ss.proc_slot, slot}).second;
      }
      // Joined or not, the receive is the stamp's only consumer.
      send_stamps_.erase(sit);
    }
  }

  // Hybrid logical clock: never behind the local reading nor any clock
  // heard from; the causality counter keeps ties ordered but the physical
  // component l is what interval arithmetic uses.
  const std::int64_t pt = e.cpu_time;
  const std::int64_t prev_l = rt.hlc_l;
  rt.hlc_l = std::max({rt.hlc_l, pt, msg_l});
  rt.hlc_c = rt.hlc_l == prev_l && rt.hlc_l > pt ? rt.hlc_c + 1 : 0;
  rt.last_pt = pt;
  rt.last_index = pe.index;
  frontier_l_ = std::max(frontier_l_, rt.hlc_l);

  // State update: the fields this event type carries.
  const std::uint32_t mask = updates_.update_mask(e.type);
  for (FieldId id = 0; id < state_field_count(); ++id) {
    if (mask & (1u << id)) rt.state[id] = state_field_value(e, id, *names_);
  }

  if (e.type == meter::EventType::send) {
    // A gap send was expelled by the pairing TTL and will never pair;
    // recording its stamp would only leak it.
    if (!pe.gap) {
      send_stamps_[pe.index] = SendStamp{rt.vc, rt.hlc_l, slot};
      while (send_stamps_.size() > cfg_.max_send_stamps) {
        drop_send_stamp(send_stamps_.begin()->first);
      }
    }
    wake_waiter(pe.index);
  }

  ++settled_;
  if (fresh_proc) {
    for (std::size_t pi = 0; pi < preds_.size(); ++pi) bind_one(pi, slot);
  }
  update_trackers(slot, mask, e.type == meter::EventType::termproc, rt);

  // Channel edges are monotone: a new one can certify a reach conjunct
  // that was the only thing holding a verdict back.
  if (new_edge) {
    for (PredState& ps : preds_) {
      if (ps.compiled.reaches().empty()) continue;
      for (Instantiation& inst : ps.insts) check_instantiation(ps, inst);
    }
  }

  // The event is through the frontier: its verdict evaluation is final.
  if (settle_hook_) settle_hook_(pe.index);
}

void PredicateDetector::close_open(Tracker& t, const ProcRt& rt,
                                   std::int64_t end_l, std::int64_t end_pt) {
  (void)rt;
  Interval iv = t.open;
  iv.open = false;
  // The state held until the falsifying event: its reading bounds the
  // interval's end for the ε arithmetic, while hi_vc/hi_index stay at the
  // last event observed *in* the state (the hb anchor).
  iv.hi_l = std::max(iv.hi_l, end_l);
  iv.hi_pt = std::max(iv.hi_pt, end_pt);
  t.queue.push_back(std::move(iv));
  t.holds = false;
}

void PredicateDetector::update_trackers(std::size_t slot,
                                        std::uint32_t changed_mask,
                                        bool terminating, const ProcRt& rt) {
  std::int64_t open_delta = 0;
  for (PredState& ps : preds_) {
    const auto& locals = ps.compiled.locals();
    for (Instantiation& inst : ps.insts) {
      bool touched = false;
      for (std::size_t c = 0; c < locals.size(); ++c) {
        Tracker& t = inst.trackers[c];
        if (t.proc_slot != slot) continue;
        touched = true;
        // Extend the open interval to the process's newest settled event
        // first — the state still held through it.
        if (t.holds) {
          t.open.hi_l = rt.hlc_l;
          t.open.hi_pt = rt.last_pt;
          t.open.hi_vc = rt.vc;
          t.open.hi_index = rt.last_index;
        }
        const bool relevant = (locals[c].field_mask & changed_mask) != 0;
        if (relevant || terminating) {
          const bool now = !terminating && conjunct_holds(locals[c], rt);
          if (now && !t.holds) {
            t.holds = true;
            t.open = Interval{rt.hlc_l, rt.hlc_l,      rt.last_pt,
                              rt.last_pt, rt.vc,       rt.vc,
                              rt.last_index, rt.last_index, true};
            ++open_delta;
          } else if (!now && t.holds) {
            close_open(t, rt, rt.hlc_l, rt.last_pt);
            --open_delta;
          }
        }
      }
      if (touched) check_instantiation(ps, inst);
    }
  }
  if (open_delta != 0) {
    // Recount lazily; the gauge is cheap relative to detection.
    std::int64_t open = 0;
    for (const PredState& ps : preds_) {
      for (const Instantiation& inst : ps.insts) {
        for (const Tracker& t : inst.trackers) {
          if (t.holds) ++open;
          open += static_cast<std::int64_t>(t.queue.size());
        }
      }
    }
    g_open_->set(open);
  }
}

bool PredicateDetector::hb_before(const Vc& hi, std::size_t hi_slot,
                                  const Vc& lo) const {
  // Event e (on process p, clock Ve) happens-before f (clock Vf) iff
  // Ve[p] <= Vf[p]: f has heard of e's tick.
  const std::uint32_t mine = hi_slot < hi.size() ? hi[hi_slot] : 0;
  const std::uint32_t theirs = hi_slot < lo.size() ? lo[hi_slot] : 0;
  return mine != 0 && mine <= theirs;
}

bool PredicateDetector::reaches_hold(const PredState& ps) const {
  for (const ReachConjunct& rc : ps.compiled.reaches()) {
    // BFS over the settled channel digraph from every process matching
    // `from`; reachable set must touch a process matching `to`.
    std::vector<char> seen(procs_.size(), 0);
    std::vector<std::size_t> frontier;
    for (std::size_t s = 0; s < procs_.size(); ++s) {
      if (rc.from.matches(procs_[s].key)) {
        seen[s] = 1;
        frontier.push_back(s);
      }
    }
    bool hit = false;
    for (std::size_t s = 0; s < procs_.size() && !hit; ++s) {
      if (seen[s] && rc.to.matches(procs_[s].key)) hit = true;
    }
    while (!hit && !frontier.empty()) {
      const std::size_t u = frontier.back();
      frontier.pop_back();
      for (const auto& [a, b] : channels_) {
        if (a != u || seen[b]) continue;
        seen[b] = 1;
        if (rc.to.matches(procs_[b].key)) {
          hit = true;
          break;
        }
        frontier.push_back(b);
      }
    }
    if (!hit) return false;
  }
  return true;
}

void PredicateDetector::check_instantiation(PredState& ps,
                                            Instantiation& inst) {
  const std::size_t n = inst.trackers.size();
  std::vector<const Interval*> heads(n);
  // ε bounds any pair of machines' readings of one instant, so relative
  // to any reference clock every offset lives in one window of width ε:
  // the worst the adversary can do to an overlap is ε, not 2ε.
  const std::int64_t slack = cfg_.epsilon_us;
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      Tracker& t = inst.trackers[i];
      heads[i] = !t.queue.empty() ? &t.queue.front()
                                  : (t.holds ? &t.open : nullptr);
      if (heads[i] == nullptr) return;  // conjunct i has no interval yet
    }
    c_cuts_->add(1);

    // Pairwise exclusion: interval i "dead before" interval j when it is
    // happens-before j's start, or ends more than ε (of local clock)
    // before j starts — no skew assignment within ε can overlap them.
    std::size_t pop_i = SIZE_MAX;
    bool excluded = false;
    for (std::size_t i = 0; i < n && pop_i == SIZE_MAX; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const bool hb = hb_before(heads[i]->hi_vc,
                                  inst.trackers[i].proc_slot,
                                  heads[j]->lo_vc);
        const bool time_excl = heads[i]->hi_l + slack < heads[j]->lo_l;
        if (hb || time_excl) {
          excluded = true;
          // Only a closed head is dead for good: j's queue never moves
          // earlier. An open head's end keeps growing; wait instead.
          if (!heads[i]->open) {
            pop_i = i;
            break;
          }
        }
      }
    }
    if (excluded) {
      if (pop_i == SIZE_MAX) return;
      inst.trackers[pop_i].queue.pop_front();
      continue;
    }

    // A witness cut. Reach conjuncts certify against the settled channel
    // graph; when they do not hold yet, the (monotone) next edge re-runs
    // this check.
    if (!reaches_hold(ps)) return;

    std::vector<std::size_t> sig(n);
    for (std::size_t i = 0; i < n; ++i) sig[i] = heads[i]->lo_index;
    std::int64_t max_lo = heads[0]->lo_l, min_hi = heads[0]->hi_l;
    for (std::size_t i = 1; i < n; ++i) {
      max_lo = std::max(max_lo, heads[i]->lo_l);
      min_hi = std::min(min_hi, heads[i]->hi_l);
    }
    // definitely: the overlap survives every skew assignment within ε.
    const bool definite = max_lo + slack <= min_hi;

    const bool fresh_sig = sig != inst.last_sig;
    if (fresh_sig) {
      inst.last_sig = sig;
      inst.last_definitely = false;
      ++inst.occurrences;
      inst.last_occ = ++ps.possibly_count;
      emit_verdict(ps, inst, heads, VerdictKind::possibly);
    }
    if (definite && !inst.last_definitely) {
      inst.last_definitely = true;
      ++ps.definitely_count;
      emit_verdict(ps, inst, heads, VerdictKind::definitely);
    }

    // While any head is still open the occurrence may yet strengthen (its
    // end keeps growing), so wait — the sig dedup keeps it from
    // re-emitting. Once every head is closed, advance Garg–Waldecker
    // style: consume only the interval that ends earliest (it can overlap
    // nothing later), so its peers stay available to witness the next
    // intervals. Popping unconditionally (even on the revisit after the
    // last head closed) is what keeps the queues from wedging behind an
    // already-reported cut.
    for (std::size_t i = 0; i < n; ++i) {
      if (heads[i]->open) return;
    }
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (heads[i]->hi_l < heads[min_i]->hi_l) min_i = i;
    }
    inst.trackers[min_i].queue.pop_front();
    inst.last_sig.clear();
    inst.last_definitely = false;
  }
}

void PredicateDetector::emit_verdict(
    PredState& ps, Instantiation& inst,
    const std::vector<const Interval*>& heads, VerdictKind kind) {
  Verdict v;
  v.predicate = ps.compiled.name();
  v.kind = kind;
  v.occurrence = inst.last_occ;
  v.cut_lo_us = heads[0]->lo_l;
  v.cut_hi_us = heads[0]->hi_l;
  for (const Interval* h : heads) {
    v.cut_lo_us = std::max(v.cut_lo_us, h->lo_l);
    v.cut_hi_us = std::min(v.cut_hi_us, h->hi_l);
  }
  v.detect_lag_us = std::max<std::int64_t>(0, frontier_l_ - v.cut_lo_us);
  for (std::size_t i = 0; i < heads.size(); ++i) {
    WitnessInterval w;
    w.proc = procs_[inst.trackers[i].proc_slot].key;
    w.lo_hlc_us = heads[i]->lo_l;
    w.hi_hlc_us = heads[i]->hi_l;
    w.lo_local_us = heads[i]->lo_pt;
    w.hi_local_us = heads[i]->hi_pt;
    w.lo_index = heads[i]->lo_index;
    w.hi_index = heads[i]->hi_index;
    w.open = heads[i]->open;
    v.witness.push_back(std::move(w));
  }

  c_verdicts_->add(1);
  if (kind == VerdictKind::possibly) {
    c_possibly_->add(1);
    ps.c_occurrences->add(1);
    ps.strongest = std::max(ps.strongest, 1);
  } else {
    c_definitely_->add(1);
    ps.strongest = 2;
  }
  ps.g_state->set(ps.strongest);
  h_lag_->record(v.detect_lag_us);

  verdicts_.push_back(std::move(v));
  while (verdicts_.size() > kMaxVerdicts) {
    verdicts_.pop_front();
    if (taken_ > 0) --taken_;
  }
}

std::vector<PredicateDetector::Verdict> PredicateDetector::take_verdicts() {
  std::vector<Verdict> out(verdicts_.begin() + static_cast<long>(taken_),
                           verdicts_.end());
  taken_ = verdicts_.size();
  return out;
}

std::vector<PredicateDetector::PredicateStatus> PredicateDetector::status()
    const {
  std::vector<PredicateStatus> out;
  out.reserve(preds_.size());
  for (const PredState& ps : preds_) {
    PredicateStatus s;
    s.name = ps.compiled.name();
    s.spec = ps.compiled.spec().to_string();
    s.instantiations = ps.insts.size();
    s.possibly_count = ps.possibly_count;
    s.definitely_count = ps.definitely_count;
    s.strongest = ps.strongest;
    out.push_back(std::move(s));
  }
  return out;
}

PredicateDetector::Stats PredicateDetector::stats() const {
  Stats s;
  s.events = events_seen_;
  s.settled = settled_;
  s.unsettled = pending_.size();
  s.predicates = preds_.size();
  for (const PredState& ps : preds_) {
    s.instantiations += ps.insts.size();
    s.verdicts_possibly += ps.possibly_count;
    s.verdicts_definitely += ps.definitely_count;
    for (const Instantiation& inst : ps.insts) {
      for (const Tracker& t : inst.trackers) {
        if (t.holds) ++s.open_intervals;
      }
    }
  }
  s.cuts_examined = c_cuts_->value();
  s.capped_instantiations = capped_;
  s.send_stamps = send_stamps_.size();
  s.send_stamps_dropped = stamps_dropped_;
  return s;
}

}  // namespace dpm::analysis::pred
