#include "obs/provenance.h"

#include <cassert>
#include <cinttypes>

#include "util/strings.h"

namespace dpm::obs {

namespace {

constexpr std::size_t kMaxJourneys = 512;  // finished journeys kept for export

/// splitmix64 — the edge-phase mixer. Deterministic, stateless, and good
/// enough to decorrelate edge ids that differ in a few low bits.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The edge of the keys entries wait under while their fan-in batch is in
/// flight. No socket has id 0.
constexpr std::uint64_t kInTransit = 0;

}  // namespace

ProvenanceTracker::ProvenanceTracker(const Config& cfg, Registry* reg)
    : cfg_(cfg) {
  if (cfg_.sample_period == 0) cfg_.sample_period = 1;
  h_emit_to_ring_ = &reg->histogram("stage.emit_to_ring_us");
  h_ring_to_filter_ = &reg->histogram("stage.ring_to_filter_us");
  h_fanin_hop_ = &reg->histogram("stage.fanin_hop_us");
  h_settle_ = &reg->histogram("stage.settle_us");
  h_verdict_ = &reg->histogram("stage.verdict_us");
  h_freshness_ = &reg->histogram("e2e.freshness_us");
  c_sampled_ = &reg->counter("prov.sampled");
  c_completed_ = &reg->counter("prov.completed");
  c_rejected_ = &reg->counter("prov.rejected");
  c_dropped_ = &reg->counter("prov.dropped");
  c_evicted_ = &reg->counter("prov.evicted");
  g_inflight_ = &reg->gauge("prov.inflight");
}

ProvenanceTracker::EdgeState& ProvenanceTracker::edge_state(
    std::uint64_t edge) {
  auto it = edges_.find(edge);
  if (it == edges_.end()) {
    EdgeState es;
    es.phase = mix64(edge ^ cfg_.seed) % cfg_.sample_period;
    es.inflight = std::make_shared<InflightQueue>();
    it = edges_.emplace(edge, std::move(es)).first;
  }
  return it->second;
}

void ProvenanceTracker::enqueue(EdgeState& es, std::uint64_t index) {
  std::deque<std::uint64_t>& q = es.inflight->q_;
  assert(q.empty() || q.back() < index);
  q.push_back(index);
}

bool ProvenanceTracker::sampled(std::uint64_t edge, std::uint64_t index) {
  return (index + edge_state(edge).phase) % cfg_.sample_period == 0;
}

void ProvenanceTracker::open_entry(EdgeState& es, std::uint64_t edge,
                                   std::uint64_t index, std::int64_t emit_us,
                                   std::int64_t enqueue_us) {
  while (entries_.size() >= cfg_.max_inflight && !entries_.empty()) {
    entries_.erase(entries_.begin());
    c_evicted_->add(1);
  }
  Entry e;
  e.j.trace_id = next_trace_id_++;
  e.j.edge = edge;
  e.j.index = index;
  e.j.emit_us = emit_us;
  e.j.enqueue_us = enqueue_us;
  h_emit_to_ring_->record(enqueue_us - emit_us);
  c_sampled_->add(1);
  entries_[Key{edge, index}] = std::move(e);
  enqueue(es, index);
  g_inflight_->set(static_cast<std::int64_t>(entries_.size() +
                                             live_entries_.size()));
}

void ProvenanceTracker::on_batch_deliver(
    std::uint64_t edge, const std::vector<std::int64_t>& emit_us,
    std::int64_t flush_us, std::int64_t now_us) {
  (void)now_us;  // the batch only becomes *consumable* now; the enqueue
                 // stamp is the flush (when the record left the producer)
  EdgeState& es = edge_state(edge);
  const std::uint64_t base = es.next_index;
  es.next_index += emit_us.size();
  for (std::size_t i = 0; i < emit_us.size(); ++i) {
    if ((base + i + es.phase) % cfg_.sample_period != 0) continue;
    open_entry(es, edge, base + i, emit_us[i], flush_us);
  }
}

void ProvenanceTracker::on_filter(std::uint64_t edge, std::uint64_t index,
                                  bool accepted, bool final_filter,
                                  std::uint16_t machine, std::int32_t pid,
                                  std::uint32_t type, std::int64_t cpu_time,
                                  std::int64_t now_us) {
  const auto it = entries_.find(Key{edge, index});
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.j.filter_us < 0) {
    e.j.filter_us = now_us;
    h_ring_to_filter_->record(now_us - e.j.enqueue_us);
  }
  if (!accepted) {
    Entry done = std::move(e);
    entries_.erase(it);
    finish(std::move(done));
    return;
  }
  if (!final_filter) {
    // A staging filter (fan-in tier): the record now sits in the
    // program's forward batch; the dwell there counts into the hop.
    e.stage_start_us = now_us;
    return;
  }
  e.j.accepted = true;
  e.j.accept_us = now_us;
  e.j.machine = machine;
  e.j.pid = pid;
  e.j.type = type;
  e.j.cpu_time = cpu_time;
  const IdKey k{machine, pid, type, cpu_time};
  bind_[k].push_back(Key{edge, index});
  bind_order_.push_back(k);
  ++bind_size_;
  // Bound the binding queue the same way as the entry table: the oldest
  // accepted-but-never-admitted sample dies first.
  while (bind_size_ > cfg_.max_inflight && !bind_order_.empty()) {
    const IdKey victim = bind_order_.front();
    bind_order_.pop_front();
    const auto bit = bind_.find(victim);
    if (bit == bind_.end() || bit->second.empty()) continue;
    const Key dead = bit->second.front();
    bit->second.pop_front();
    if (bit->second.empty()) bind_.erase(bit);
    --bind_size_;
    kill(dead);
  }
}

void ProvenanceTracker::on_stage(std::uint64_t edge, std::uint64_t index,
                                 std::int64_t now_us) {
  const auto it = entries_.find(Key{edge, index});
  if (it == entries_.end()) return;
  it->second.stage_start_us = now_us;
}

void ProvenanceTracker::on_fanin_send(std::vector<ForwardSample>& samples) {
  for (ForwardSample& s : samples) {
    auto node = entries_.extract(Key{s.edge, s.index});
    s.edge = kInTransit;
    s.index = next_transit_++;
    if (node.empty()) continue;  // evicted or killed while staged
    node.key() = Key{s.edge, s.index};
    entries_.insert(std::move(node));
  }
}

void ProvenanceTracker::on_fanin_deliver(
    std::uint64_t out_edge, std::uint32_t records,
    const std::vector<ForwardSample>& samples, std::int64_t now_us) {
  EdgeState& es = edge_state(out_edge);
  const std::uint64_t base = es.next_index;
  es.next_index += records;
  for (const ForwardSample& s : samples) {
    auto node = entries_.extract(Key{s.edge, s.index});
    if (node.empty()) continue;
    Entry e = std::move(node.mapped());
    Hop hop;
    hop.edge = out_edge;
    hop.start_us = e.stage_start_us >= 0 ? e.stage_start_us : e.j.enqueue_us;
    hop.arrive_us = now_us;
    if (hop.start_us >= 0) h_fanin_hop_->record(now_us - hop.start_us);
    e.j.hops.push_back(hop);
    e.stage_start_us = -1;
    entries_[Key{out_edge, base + s.pos}] = std::move(e);
    enqueue(es, base + s.pos);
  }
  g_inflight_->set(static_cast<std::int64_t>(entries_.size() +
                                             live_entries_.size()));
}

void ProvenanceTracker::on_fanin_drop(
    const std::vector<ForwardSample>& samples) {
  for (const ForwardSample& s : samples) kill(Key{s.edge, s.index});
}

void ProvenanceTracker::on_live_event(std::uint64_t live_index,
                                      std::uint16_t machine, std::int32_t pid,
                                      std::uint32_t type, std::int64_t cpu_time,
                                      bool is_recv, std::int64_t now_us) {
  const IdKey k{machine, pid, type, cpu_time};
  const auto bit = bind_.find(k);
  if (bit == bind_.end()) return;
  Entry e;
  bool found = false;
  while (!bit->second.empty()) {
    const Key key = bit->second.front();
    bit->second.pop_front();
    --bind_size_;
    auto node = entries_.extract(key);
    if (node.empty()) continue;  // evicted or killed while queued
    e = std::move(node.mapped());
    found = true;
    break;
  }
  if (bit->second.empty()) bind_.erase(bit);
  if (!found) return;
  if (!is_recv) {
    // Non-receive events are causally settled the moment the live
    // analysis admits them; receives settle at pair/gap evidence.
    e.j.live_us = now_us;
    h_settle_->record(now_us - e.j.accept_us);
    if (final_stage_ == FinalStage::live) {
      finish(std::move(e));
      return;
    }
  }
  while (live_entries_.size() >= cfg_.max_inflight && !live_entries_.empty()) {
    live_entries_.erase(live_entries_.begin());
    c_evicted_->add(1);
  }
  live_entries_[live_index] = std::move(e);
  g_inflight_->set(static_cast<std::int64_t>(entries_.size() +
                                             live_entries_.size()));
}

void ProvenanceTracker::on_live_settle(std::uint64_t live_index,
                                       std::int64_t now_us) {
  const auto it = live_entries_.find(live_index);
  if (it == live_entries_.end()) return;
  Entry& e = it->second;
  if (e.j.live_us < 0) {
    e.j.live_us = now_us;
    h_settle_->record(now_us - e.j.accept_us);
  }
  if (final_stage_ == FinalStage::live) {
    Entry done = std::move(e);
    live_entries_.erase(it);
    finish(std::move(done));
  }
}

void ProvenanceTracker::on_verdict_settle(std::uint64_t live_index,
                                          std::int64_t now_us) {
  const auto it = live_entries_.find(live_index);
  if (it == live_entries_.end()) return;
  Entry done = std::move(it->second);
  live_entries_.erase(it);
  if (done.j.live_us < 0) {
    // Defensive: the detector settled ahead of the pairing callback —
    // fold the live settle into the same instant rather than lose it.
    done.j.live_us = now_us;
    h_settle_->record(now_us - done.j.accept_us);
  }
  done.j.verdict_us = now_us;
  h_verdict_->record(now_us - done.j.live_us);
  finish(std::move(done));
}

void ProvenanceTracker::on_edge_closed(std::uint64_t edge) {
  if (const auto es = edges_.find(edge); es != edges_.end()) {
    es->second.inflight->q_.clear();  // its consumer may still hold it
    edges_.erase(es);
  }
  const auto first = entries_.lower_bound(Key{edge, 0});
  auto it = first;
  std::size_t n = 0;
  while (it != entries_.end() && it->first.first == edge) {
    ++it;
    ++n;
  }
  if (n != 0) {
    entries_.erase(first, it);
    c_dropped_->add(n);
    g_inflight_->set(static_cast<std::int64_t>(entries_.size() +
                                               live_entries_.size()));
  }
}

void ProvenanceTracker::kill(const Key& k) {
  if (entries_.erase(k) != 0) {
    c_dropped_->add(1);
    g_inflight_->set(static_cast<std::int64_t>(entries_.size() +
                                               live_entries_.size()));
  }
}

void ProvenanceTracker::finish(Entry&& e) {
  if (e.j.accepted) {
    c_completed_->add(1);
    const std::int64_t last = e.j.verdict_us >= 0 ? e.j.verdict_us
                              : e.j.live_us >= 0  ? e.j.live_us
                                                  : e.j.accept_us;
    if (last >= 0 && e.j.emit_us >= 0) {
      h_freshness_->record(last - e.j.emit_us);
    }
  } else {
    c_rejected_->add(1);
  }
  while (journeys_.size() >= kMaxJourneys && !journeys_.empty()) {
    journeys_.pop_front();
  }
  journeys_.push_back(std::move(e.j));
  g_inflight_->set(static_cast<std::int64_t>(entries_.size() +
                                             live_entries_.size()));
}

const std::vector<ProvenanceStage>& provenance_stages() {
  static const std::vector<ProvenanceStage> stages = {
      {"stage.emit_to_ring_us", "emit->enqueue"},
      {"stage.ring_to_filter_us", "enqueue->filter"},
      {"stage.fanin_hop_us", "fanin hop"},
      {"stage.settle_us", "accept->live"},
      {"stage.verdict_us", "live->verdict"},
      {"e2e.freshness_us", "emit->final"},
  };
  return stages;
}

std::string journeys_chrome_events(const ProvenanceTracker& t) {
  // Stage lanes of the synthetic provenance process. Hops share one lane:
  // consecutive hop arrivals still chain correctly through the flow ids.
  constexpr int kPid = 9990;
  struct Stamp {
    int tid;
    const char* name;
    std::int64_t t;
  };
  std::string out;
  bool used_tid[8] = {};
  auto append = [&out](const std::string& s) {
    if (!out.empty()) out += ",\n";
    out += s;
  };
  for (const auto& j : t.journeys()) {
    std::vector<Stamp> stamps;
    if (j.emit_us >= 0) stamps.push_back({1, "emit", j.emit_us});
    if (j.enqueue_us >= 0) stamps.push_back({2, "enqueue", j.enqueue_us});
    if (j.filter_us >= 0) {
      stamps.push_back({3, j.accepted || !j.hops.empty() ? "filter" : "reject",
                        j.filter_us});
    }
    for (const auto& h : j.hops) {
      if (h.arrive_us >= 0) stamps.push_back({4, "hop", h.arrive_us});
    }
    if (j.accept_us >= 0) stamps.push_back({5, "accept", j.accept_us});
    if (j.live_us >= 0) stamps.push_back({6, "live", j.live_us});
    if (j.verdict_us >= 0) stamps.push_back({7, "verdict", j.verdict_us});
    if (stamps.size() < 2) continue;
    for (std::size_t i = 0; i < stamps.size(); ++i) {
      const Stamp& s = stamps[i];
      used_tid[s.tid] = true;
      append(util::strprintf(
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
          "\"ts\":%" PRId64 ",\"dur\":1,\"args\":{\"trace_id\":%" PRIu64
          ",\"edge\":%" PRIu64 "}}",
          s.name, kPid, s.tid, s.t, j.trace_id, j.edge));
      const char* ph = i == 0                  ? "s"
                       : i + 1 == stamps.size() ? "f"
                                                : "t";
      append(util::strprintf(
          "{\"name\":\"record\",\"cat\":\"prov\",\"ph\":\"%s\",\"pid\":%d,"
          "\"tid\":%d,\"ts\":%" PRId64 ",\"id\":%" PRIu64 "%s}",
          ph, kPid, s.tid, s.t, j.trace_id,
          ph[0] == 'f' ? ",\"bp\":\"e\"" : ""));
    }
  }
  if (out.empty()) return out;
  static const char* kLane[8] = {nullptr,  "emit", "enqueue", "filter",
                                 "fanin",  "accept", "live",  "verdict"};
  std::string meta = util::strprintf(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"record provenance\"}}",
      kPid);
  for (int tid = 1; tid < 8; ++tid) {
    if (!used_tid[tid]) continue;
    meta += util::strprintf(
        ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        kPid, tid, kLane[tid]);
  }
  return meta + ",\n" + out;
}

}  // namespace dpm::obs
