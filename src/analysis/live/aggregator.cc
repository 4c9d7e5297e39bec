#include "analysis/live/aggregator.h"

#include <algorithm>

#include "util/strings.h"

namespace dpm::analysis::live {

LiveAnalysis::LiveAnalysis(LiveConfig cfg, obs::Registry* reg) : cfg_(cfg) {
  if (reg == nullptr) {
    own_reg_ = std::make_unique<obs::Registry>();
    reg = own_reg_.get();
  }
  reg_ = reg;
  c_events_ = &reg_->counter("live.events");
  c_pairs_ = &reg_->counter("live.message_pairs");
  c_cross_ = &reg_->counter("live.cross_machine_pairs");
  c_anomalies_ = &reg_->counter("live.clock_anomalies");
  c_relax_ = &reg_->counter("live.relax_steps");
  c_gaps_ = &reg_->counter("live.gaps");
  g_parked_ = &reg_->gauge("live.parked");
  g_max_lamport_ = &reg_->gauge("live.max_lamport");
  g_crit_us_ = &reg_->gauge("live.critical_path_us");
  g_procs_ = &reg_->gauge("live.processes");
  h_latency_ = &reg_->histogram("live.pair_latency_us");
  pairing_.set_park_ttl(cfg_.park_ttl);
}

std::optional<std::size_t> LiveAnalysis::matched_send_of(std::size_t i) const {
  const Node& n = nodes_[i];
  if (n.type != meter::EventType::recv || n.pair_peer == kNone)
    return std::nullopt;
  return n.pair_peer;
}

std::int64_t LiveAnalysis::edge_weight(std::uint32_t u, std::uint32_t v) const {
  // Elapsed local (program edge) or cross-clock (message edge) time, clamped
  // at zero so skewed clocks never produce negative path costs.
  return std::max<std::int64_t>(0,
                                saturating_sub(nodes_[v].t_us, nodes_[u].t_us));
}

bool LiveAnalysis::relax(std::uint32_t u, std::uint32_t v, EdgeKind kind) {
  Node& nu = nodes_[u];
  Node& nv = nodes_[v];
  bool changed = false;
  if (nu.lamport + 1 > nv.lamport) {
    nv.lamport = nu.lamport + 1;
    changed = true;
    if (nv.lamport > max_lamport_) {
      max_lamport_ = nv.lamport;
      g_max_lamport_->set(static_cast<std::int64_t>(max_lamport_));
    }
  }
  std::int64_t cost = 0;  // both terms >= 0: only an upward overflow
  if (__builtin_add_overflow(nu.cost, edge_weight(u, v), &cost)) {
    cost = INT64_MAX;
  }
  if (cost > nv.cost || nv.pred == kNone) {
    if (cost > nv.cost) changed = true;
    nv.cost = std::max(nv.cost, cost);
    nv.pred = u;
    nv.pred_kind = kind;
    if (best_cost_node_ == kNone || nv.cost >= nodes_[best_cost_node_].cost) {
      best_cost_node_ = v;
      g_crit_us_->set(nv.cost);
    }
  }
  return changed;
}

void LiveAnalysis::propagate(std::uint32_t from) {
  // Monotone relaxation: a node goes on the worklist only when its clock or
  // cost rose, and each visit relaxes its (at most two) outgoing edges. In a
  // DAG every node's Lamport clock is bounded by the event count, so a clock
  // above it proves a pair-induced cycle; relaxation then freezes for good
  // (stats().had_cycle mirrors the batch Ordering::had_cycle).
  worklist_.clear();
  worklist_.push_back(from);
  const std::uint64_t limit = nodes_.size();
  while (!worklist_.empty()) {
    const std::uint32_t u = worklist_.back();
    worklist_.pop_back();
    if (nodes_[u].lamport > limit) {
      had_cycle_ = true;
      return;
    }
    if (nodes_[u].prog_next != kNone) {
      ++relax_steps_;
      c_relax_->add(1);
      if (relax(u, nodes_[u].prog_next, EdgeKind::program))
        worklist_.push_back(nodes_[u].prog_next);
    }
    if (nodes_[u].type == meter::EventType::send &&
        nodes_[u].pair_peer != kNone) {
      ++relax_steps_;
      c_relax_->add(1);
      if (relax(u, nodes_[u].pair_peer, EdgeKind::message))
        worklist_.push_back(nodes_[u].pair_peer);
    }
  }
}

void LiveAnalysis::on_pair(const PairingCore::Pair& p) {
  const auto send = static_cast<std::uint32_t>(p.send);
  const auto recv = static_cast<std::uint32_t>(p.recv);
  Node& s = nodes_[send];
  Node& r = nodes_[recv];
  s.pair_peer = recv;
  r.pair_peer = send;

  ++message_pairs_;
  c_pairs_->add(1);
  const std::int64_t raw_latency = saturating_sub(r.t_us, s.t_us);
  if (s.proc.machine != r.proc.machine) {
    ++cross_machine_pairs_;
    c_cross_->add(1);
    if (raw_latency < 0) {
      ++clock_anomalies_;
      c_anomalies_->add(1);
      max_anomaly_us_ =
          std::max(max_anomaly_us_, saturating_sub(s.t_us, r.t_us));
    }
  }
  const std::int64_t latency = std::max<std::int64_t>(0, raw_latency);
  h_latency_->record(latency);

  auto [it, fresh] = chans_.try_emplace(std::pair{s.proc, r.proc},
                                        cfg_.window_us);
  ChanStats& cs = it->second;
  if (fresh) {
    cs.latency_hist = &reg_->histogram("live.chan_latency_us." +
                                       proc_key_text(s.proc) + "->" +
                                       proc_key_text(r.proc));
  }
  const std::uint64_t bytes = r.bytes != 0 ? r.bytes : s.bytes;
  ++cs.total_msgs;
  cs.total_bytes += bytes;
  cs.last_latency_us = raw_latency;
  cs.wnd_msgs.add(r.t_us, 1);
  cs.wnd_bytes.add(r.t_us, static_cast<std::int64_t>(bytes));
  cs.wnd_latency.add(r.t_us, latency);
  cs.latency_hist->record(latency);

  if (!had_cycle_ && relax(send, recv, EdgeKind::message)) propagate(recv);
}

void LiveAnalysis::add_event(const Event& e, const NameTable& names) {
  if (&names == names_.get()) return add(e);
  Event own = e;
  for (NameId Event::*f : {&Event::dest_name, &Event::source_name,
                           &Event::sock_name, &Event::peer_name}) {
    own.*f = names_->intern(names.text(e.*f));
  }
  add(own);
}

void LiveAnalysis::add_event(const RecordEvent& e) { add(e.interned(*names_)); }

void LiveAnalysis::add(const Event& e) {
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.proc = e.proc();
  n.type = e.type;
  n.t_us = e.cpu_time;
  n.bytes = e.msg_length;
  nodes_.push_back(n);
  if (e.cpu_time > now_us_) now_us_ = e.cpu_time;
  c_events_->add(1);
  if (best_cost_node_ == kNone) best_cost_node_ = idx;
  if (max_lamport_ == 0) {
    max_lamport_ = 1;
    g_max_lamport_->set(1);
  }

  // Per-process rolling stats.
  auto [pit, fresh] = procs_.try_emplace(n.proc, cfg_.window_us);
  ProcStats& ps = pit->second;
  if (fresh) g_procs_->set(static_cast<std::int64_t>(procs_.size()));
  ++ps.total_events;
  ps.wnd_events.add(n.t_us, 1);
  std::uint64_t bytes = 0;
  if (e.type == meter::EventType::send) {
    ++ps.total_sends;
    bytes = e.msg_length;
  } else if (e.type == meter::EventType::recv) {
    ++ps.total_recvs;
    bytes = e.msg_length;
  } else if (e.type == meter::EventType::termproc) {
    ps.terminated = true;
  }
  if (bytes != 0) {
    ps.total_bytes += bytes;
    ps.wnd_bytes.add(n.t_us, static_cast<std::int64_t>(bytes));
  } else {
    ps.wnd_bytes.advance(n.t_us);
  }

  // Program-order edge from this process's previous event.
  auto [lit, first] = last_of_.try_emplace(n.proc, idx);
  if (!first) {
    const std::uint32_t prev = lit->second;
    nodes_[prev].prog_next = idx;
    lit->second = idx;
    if (!had_cycle_) {
      ++relax_steps_;
      c_relax_->add(1);
      if (relax(prev, idx, EdgeKind::program)) propagate(idx);
    }
  }

  for (LiveObserver* o : observers_) o->on_event(idx, e, *names_);

  // Pairing: this event may complete any number of parked pairs.
  pairing_.observe(e, idx);
  for (const PairingCore::Pair& p : pairing_.take_pairs()) {
    on_pair(p);
    for (LiveObserver* o : observers_) o->on_pair(p.send, p.recv);
  }

  // Park-TTL sweep, keyed on Lamport progress: entries whose evidence is
  // presumed lost to a fault become per-channel gaps instead of growing
  // the park queues forever (batch order_events never advances progress,
  // so batch pairing stays exact).
  pairing_.advance_progress(max_lamport_);
  for (const PairingCore::Gap& g : pairing_.take_gaps()) {
    c_gaps_->add(1);
    reg_->counter("live.gap." + g.channel).add(1);
    for (LiveObserver* o : observers_) o->on_gap(g.index);
  }
  g_parked_->set(static_cast<std::int64_t>(pairing_.parked()));
}

LiveAnalysis::Stats LiveAnalysis::stats() const {
  Stats s;
  s.events = nodes_.size();
  s.message_pairs = message_pairs_;
  s.cross_machine_pairs = cross_machine_pairs_;
  s.clock_anomalies = clock_anomalies_;
  s.max_anomaly_us = max_anomaly_us_;
  s.had_cycle = had_cycle_;
  s.pairing_disorder = pairing_.disorder();
  s.parked = pairing_.parked();
  s.gaps = pairing_.gaps();
  s.max_lamport = max_lamport_;
  s.relax_steps = relax_steps_;
  s.now_us = now_us_;
  return s;
}

std::vector<LiveAnalysis::ProcRates> LiveAnalysis::process_rates() {
  std::vector<ProcRates> out;
  out.reserve(procs_.size());
  for (auto& [proc, ps] : procs_) {
    ps.wnd_events.advance(now_us_);
    ps.wnd_bytes.advance(now_us_);
    ProcRates r;
    r.proc = proc;
    r.total_events = ps.total_events;
    r.total_sends = ps.total_sends;
    r.total_recvs = ps.total_recvs;
    r.total_bytes = ps.total_bytes;
    r.events_per_s = ps.wnd_events.per_second();
    r.bytes_per_s = ps.wnd_bytes.per_second();
    r.terminated = ps.terminated;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<LiveAnalysis::ChannelRates> LiveAnalysis::channel_rates() {
  std::vector<ChannelRates> out;
  out.reserve(chans_.size());
  for (auto& [key, cs] : chans_) {
    cs.wnd_msgs.advance(now_us_);
    cs.wnd_bytes.advance(now_us_);
    cs.wnd_latency.advance(now_us_);
    ChannelRates r;
    r.from = key.first;
    r.to = key.second;
    r.total_msgs = cs.total_msgs;
    r.total_bytes = cs.total_bytes;
    r.msgs_per_s = cs.wnd_msgs.per_second();
    r.bytes_per_s = cs.wnd_bytes.per_second();
    r.avg_latency_us =
        cs.wnd_msgs.count() != 0
            ? static_cast<double>(cs.wnd_latency.sum()) /
                  static_cast<double>(cs.wnd_msgs.count())
            : 0.0;
    r.last_latency_us = cs.last_latency_us;
    out.push_back(std::move(r));
  }
  return out;
}

LiveAnalysis::CriticalPath LiveAnalysis::critical_path() const {
  CriticalPath out;
  if (nodes_.empty() || best_cost_node_ == kNone) return out;
  out.valid = true;
  out.end_event = best_cost_node_;
  out.total_us = nodes_[best_cost_node_].cost;

  std::uint32_t v = best_cost_node_;
  std::size_t guard = 0;
  while (nodes_[v].pred != kNone && guard++ <= nodes_.size()) {
    const std::uint32_t u = nodes_[v].pred;
    CritStep step;
    step.from = u;
    step.to = v;
    step.kind = nodes_[v].pred_kind;
    step.elapsed_us = edge_weight(u, v);
    step.from_proc = nodes_[u].proc;
    step.to_proc = nodes_[v].proc;
    if (step.kind == EdgeKind::message) {
      out.channel_us[{step.from_proc, step.to_proc}] += step.elapsed_us;
    } else {
      out.proc_us[step.to_proc] += step.elapsed_us;
    }
    out.steps.push_back(step);
    v = u;
  }
  std::reverse(out.steps.begin(), out.steps.end());
  return out;
}

// ---- TraceTailer ----------------------------------------------------------

void TraceTailer::feed(std::string_view chunk) {
  std::size_t start = 0;
  while (start <= chunk.size()) {
    const std::size_t nl = chunk.find('\n', start);
    if (nl == std::string_view::npos) break;
    if (partial_.empty()) {
      take_line(chunk.substr(start, nl - start));
    } else {
      partial_.append(chunk.substr(start, nl - start));
      take_line(partial_);
      partial_.clear();
    }
    start = nl + 1;
  }
  partial_.append(chunk.substr(start));
}

void TraceTailer::finish() {
  if (!partial_.empty()) {
    take_line(partial_);
    partial_.clear();
  }
}

void TraceTailer::take_line(std::string_view line) {
  line = util::trim(line);
  if (line.empty() || line.front() == '#') return;
  ++lines_;
  Event e;
  if (!parse_trace_event_line(line, e, live_->names())) {
    ++malformed_;
    return;
  }
  e.index = live_->events();
  live_->add_event(e, live_->names());
}

// ---- LiveRecordSink -------------------------------------------------------

void LiveRecordSink::on_view(const filter::RecordView& v,
                             const filter::WirePlan& plan,
                             const std::string_view* strings,
                             const filter::Descriptions&) {
  take(event_from_view(v, plan, strings, live_->names()));
}

void LiveRecordSink::on_record(const filter::Record& rec) {
  const std::optional<RecordEvent> e = event_from_record(rec);
  take(e ? std::optional<Event>(e->interned(live_->names())) : std::nullopt);
}

void LiveRecordSink::take(std::optional<Event> e) {
  if (!e) {
    ++dropped_;
    return;
  }
  e->index = live_->events();
  live_->add_event(*e, live_->names());
}

}  // namespace dpm::analysis::live
