#include "control/replay.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <utility>

#include "apps/apps.h"
#include "util/strings.h"

namespace dpm::control::replay {
namespace {

bool parse_u64(std::string_view s, std::uint64_t* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && p == s.data() + s.size();
}

bool parse_i64(std::string_view s, std::int64_t* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && p == s.data() + s.size();
}

/// <int>us, the recording's one duration spelling (microseconds keep the
/// format bijective — no multi-unit canonicalization to drift).
bool parse_us(std::string_view s, util::Duration* out) {
  if (s.size() < 3 || s.substr(s.size() - 2) != "us") return false;
  std::int64_t v = 0;
  if (!parse_i64(s.substr(0, s.size() - 2), &v)) return false;
  *out = util::usec(v);
  return true;
}

std::string format_us(util::Duration d) {
  return std::to_string(util::count_us(d)) + "us";
}

std::string format_at(util::TimePoint t) {
  return std::to_string(util::count_us(t)) + "us";
}

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == ' ') ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

/// The serialized WorldConfig scalars, in a fixed order so to_string is
/// canonical. Cost tables and per-network configs stay at their defaults
/// in every recipe; a drift there would show up as a digest divergence,
/// not a silent wrong replay.
std::string config_to_string(const kernel::WorldConfig& c) {
  return util::strprintf(
      "meter_buffer_bytes=%zu meter_buffer_msgs=%u prov_sample_period=%u "
      "max_descriptors=%zu",
      c.meter_buffer_bytes, c.meter_buffer_msgs, c.prov_sample_period,
      c.max_descriptors);
}

bool config_parse(std::string_view text, kernel::WorldConfig* c,
                  std::string* error) {
  for (std::string_view tok : split_ws(text)) {
    auto eq = tok.find('=');
    if (eq == std::string_view::npos) {
      return fail(error, "bad config token '" + std::string(tok) + "'");
    }
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val = tok.substr(eq + 1);
    std::uint64_t v = 0;
    if (!parse_u64(val, &v)) {
      return fail(error, "bad config value '" + std::string(tok) + "'");
    }
    if (key == "meter_buffer_bytes") c->meter_buffer_bytes = v;
    else if (key == "meter_buffer_msgs") c->meter_buffer_msgs = static_cast<std::uint32_t>(v);
    else if (key == "prov_sample_period") c->prov_sample_period = static_cast<std::uint32_t>(v);
    else if (key == "max_descriptors") c->max_descriptors = v;
    else return fail(error, "unknown config key '" + std::string(key) + "'");
  }
  return true;
}

std::optional<RecordedOp::Kind> op_kind_of(std::string_view name) {
  if (name == "command") return RecordedOp::Kind::command;
  if (name == "send") return RecordedOp::Kind::send;
  if (name == "run") return RecordedOp::Kind::run;
  if (name == "run_for") return RecordedOp::Kind::run_for;
  if (name == "faults") return RecordedOp::Kind::faults;
  if (name == "mark") return RecordedOp::Kind::mark;
  return std::nullopt;
}

}  // namespace

const char* op_kind_name(RecordedOp::Kind k) {
  switch (k) {
    case RecordedOp::Kind::command: return "command";
    case RecordedOp::Kind::send: return "send";
    case RecordedOp::Kind::run: return "run";
    case RecordedOp::Kind::run_for: return "run_for";
    case RecordedOp::Kind::faults: return "faults";
    case RecordedOp::Kind::mark: return "mark";
  }
  return "?";
}

// ---- Recording -------------------------------------------------------------

std::string Recording::to_string() const {
  std::string out = "dpm-recording v1\n";
  out += "recipe " + recipe + "\n";
  out += "seed " + std::to_string(seed) + "\n";
  out += "config " + config_to_string(config) + "\n";
  out += "machines";
  for (const auto& m : machines) out += " " + m;
  out += "\n";
  out += "session host=" + (session_host.empty() ? machines.empty() ? std::string() : machines.front() : session_host) +
         " uid=" + std::to_string(session_uid) + "\n";
  for (const RecordedOp& op : ops) {
    out += "op@" + format_at(op.at) + " " + op_kind_name(op.kind);
    if (op.kind == RecordedOp::Kind::run_for) {
      out += " " + format_us(op.dur);
    } else if (!op.payload.empty()) {
      out += " " + op.payload;
    }
    out += "\n";
  }
  if (cut) {
    out += "cut-ops " + std::to_string(cut_ops) + "\n";
    out += cut->to_string();  // "checkpoint at=..." + component lines
  }
  return out;
}

std::optional<Recording> Recording::parse(std::string_view text,
                                          std::string* error) {
  Recording rec;
  rec.machines.clear();
  bool saw_magic = false;
  std::string cut_text;  // checkpoint lines accumulate, parsed at the end
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != '\n') continue;
    std::string_view line = text.substr(start, i - start);
    start = i + 1;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != "dpm-recording v1") {
        fail(error, "not a dpm-recording: '" + std::string(line) + "'");
        return std::nullopt;
      }
      saw_magic = true;
      continue;
    }
    if (!cut_text.empty() || line.rfind("checkpoint at=", 0) == 0) {
      cut_text += std::string(line) + "\n";
      continue;
    }
    auto sp = line.find(' ');
    const std::string_view key = line.substr(0, sp);
    const std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
    if (key == "recipe") {
      rec.recipe = std::string(rest);
    } else if (key == "seed") {
      if (!parse_u64(rest, &rec.seed)) {
        fail(error, "bad seed '" + std::string(rest) + "'");
        return std::nullopt;
      }
    } else if (key == "config") {
      if (!config_parse(rest, &rec.config, error)) return std::nullopt;
    } else if (key == "machines") {
      for (std::string_view m : split_ws(rest)) rec.machines.emplace_back(m);
    } else if (key == "session") {
      for (std::string_view tok : split_ws(rest)) {
        if (tok.rfind("host=", 0) == 0) {
          rec.session_host = std::string(tok.substr(5));
        } else if (tok.rfind("uid=", 0) == 0) {
          std::int64_t uid = 0;
          if (!parse_i64(tok.substr(4), &uid)) {
            fail(error, "bad session uid '" + std::string(tok) + "'");
            return std::nullopt;
          }
          rec.session_uid = static_cast<kernel::Uid>(uid);
        } else {
          fail(error, "bad session token '" + std::string(tok) + "'");
          return std::nullopt;
        }
      }
    } else if (key == "cut-ops") {
      std::uint64_t n = 0;
      if (!parse_u64(rest, &n)) {
        fail(error, "bad cut-ops '" + std::string(rest) + "'");
        return std::nullopt;
      }
      rec.cut_ops = n;
    } else if (key.rfind("op@", 0) == 0) {
      RecordedOp op;
      util::Duration at{};
      if (!parse_us(key.substr(3), &at)) {
        fail(error, "bad op time '" + std::string(key) + "'");
        return std::nullopt;
      }
      op.at = util::TimePoint{} + at;
      auto sp2 = rest.find(' ');
      const std::string_view kind_name = rest.substr(0, sp2);
      auto kind = op_kind_of(kind_name);
      if (!kind) {
        fail(error, "unknown op kind '" + std::string(kind_name) + "'");
        return std::nullopt;
      }
      op.kind = *kind;
      const std::string_view payload =
          sp2 == std::string_view::npos ? std::string_view{} : rest.substr(sp2 + 1);
      if (op.kind == RecordedOp::Kind::run_for) {
        if (!parse_us(payload, &op.dur)) {
          fail(error, "bad run_for duration '" + std::string(payload) + "'");
          return std::nullopt;
        }
      } else {
        op.payload = std::string(payload);
      }
      rec.ops.push_back(std::move(op));
    } else {
      fail(error, "unrecognized recording line '" + std::string(line) + "'");
      return std::nullopt;
    }
  }
  if (!saw_magic) {
    fail(error, "empty recording");
    return std::nullopt;
  }
  if (!cut_text.empty()) {
    auto snap = sim::replay::Snapshot::parse(cut_text, error);
    if (!snap) return std::nullopt;
    rec.cut = std::move(*snap);
  }
  if (rec.cut && rec.cut_ops > rec.ops.size()) {
    fail(error, "cut-ops exceeds op count");
    return std::nullopt;
  }
  return rec;
}

Recording Recording::with_faults(const net::FaultPlan& plan) const {
  Recording out = *this;
  out.cut.reset();
  out.cut_ops = 0;
  const std::string dsl = plan.to_string();
  bool replaced = false;
  for (auto it = out.ops.begin(); it != out.ops.end();) {
    if (it->kind != RecordedOp::Kind::faults) {
      ++it;
      continue;
    }
    if (plan.empty() || replaced) {
      it = out.ops.erase(it);
      continue;
    }
    it->payload = dsl;
    replaced = true;
    ++it;
  }
  return out;
}

std::optional<net::FaultPlan> Recording::fault_plan() const {
  for (const RecordedOp& op : ops) {
    if (op.kind == RecordedOp::Kind::faults) {
      return net::FaultPlan::parse(op.payload);
    }
  }
  return std::nullopt;
}

bool Recording::operator==(const Recording& o) const {
  // Canonical-text equality: two recordings are the same run iff they
  // serialize identically (WorldConfig has no operator== of its own).
  return to_string() == o.to_string();
}

// ---- ReplayHarness ---------------------------------------------------------

ReplayHarness::ReplayHarness(Recording rec) : rec_(std::move(rec)) {
  rec_.config.seed = rec_.seed;
  world_ = std::make_unique<kernel::World>(rec_.config);
  world_->add_exit_listener(
      [this](kernel::MachineId, kernel::Pid, int, bool killed) {
        if (killed) ++killed_;
      });
  for (const auto& name : rec_.machines) world_->add_machine(name);
  assert((rec_.recipe == "monitor+apps" || rec_.recipe == "monitor") &&
         "unknown recording recipe");
  install_monitor(*world_);
  if (rec_.recipe == "monitor+apps") apps::install_everywhere(*world_);
  spawn_meterdaemons(*world_);
  MonitorSession::Options opts;
  opts.host = rec_.session_host.empty() && !rec_.machines.empty()
                  ? rec_.machines.front()
                  : rec_.session_host;
  opts.uid = rec_.session_uid;
  session_ = std::make_unique<MonitorSession>(*world_, opts);
  world_->run();
  (void)session_->drain_output();
}

ReplayHarness::~ReplayHarness() {
  // The service (if installed) points at this harness; clear it so an
  // outliving world cannot dangle into us.
  if (world_) world_->set_service(ReplayService::kServiceName, nullptr);
}

void ReplayHarness::record_op(RecordedOp op) {
  assert(next_op_ == rec_.ops.size() &&
         "live-driving a harness mid-replay would interleave op histories");
  rec_.ops.push_back(std::move(op));
  exec_op(rec_.ops.back(), nullptr);
  next_op_ = rec_.ops.size();
}

std::string ReplayHarness::command(const std::string& line) {
  record_op({RecordedOp::Kind::command, world_->now(), line, {}});
  return last_output_;
}

void ReplayHarness::send_line(const std::string& line) {
  record_op({RecordedOp::Kind::send, world_->now(), line, {}});
}

void ReplayHarness::run() {
  record_op({RecordedOp::Kind::run, world_->now(), {}, {}});
}

void ReplayHarness::run_for(util::Duration d) {
  record_op({RecordedOp::Kind::run_for, world_->now(), {}, d});
}

void ReplayHarness::install_faults(const net::FaultPlan& plan) {
  record_op({RecordedOp::Kind::faults, world_->now(), plan.to_string(), {}});
}

void ReplayHarness::mark(const std::string& label) {
  record_op({RecordedOp::Kind::mark, world_->now(), label, {}});
}

void ReplayHarness::exec_op(const RecordedOp& op, const StopCondition* stop) {
  switch (op.kind) {
    case RecordedOp::Kind::command:
      last_output_ = session_->command(op.payload);
      break;
    case RecordedOp::Kind::send:
      session_->send_line(op.payload);
      break;
    case RecordedOp::Kind::run:
      if (stop) {
        // Slice: advance in small steps, re-checking the stop condition,
        // until the condition holds or the world quiesces (no dispatch
        // progress across a slice).
        const obs::Counter& dispatched =
            world_->obs().counter("sim.events_dispatched");
        std::uint64_t last = dispatched.value() + 1;  // force one slice
        while (!stop_met(*stop) && dispatched.value() != last) {
          last = dispatched.value();
          world_->run_for(util::msec(1));
        }
      } else {
        world_->run();
      }
      break;
    case RecordedOp::Kind::run_for:
      if (stop) {
        util::Duration left = op.dur;
        while (left.count() > 0 && !stop_met(*stop)) {
          const util::Duration slice = std::min(left, util::msec(1));
          world_->run_for(slice);
          left -= slice;
        }
      } else {
        world_->run_for(op.dur);
      }
      break;
    case RecordedOp::Kind::faults: {
      assert(!faults_installed_ &&
             "a recording carries at most one faults op (re-installing "
             "would orphan the armed injector's scheduled events)");
      faults_installed_ = true;
      auto plan = net::FaultPlan::parse(op.payload);
      assert(plan && "recorded fault plan does not parse");
      if (plan) world_->install_faults(*plan);
      break;
    }
    case RecordedOp::Kind::mark:
      break;
  }
}

bool ReplayHarness::stop_met(const StopCondition& stop) const {
  switch (stop.kind) {
    case StopCondition::Kind::none:
      return false;
    case StopCondition::Kind::lamport: {
      const auto& gauges = world_->obs().gauges();
      auto it = gauges.find("live.max_lamport");
      return it != gauges.end() &&
             it->second.value() >= static_cast<std::int64_t>(stop.n);
    }
    case StopCondition::Kind::records: {
      const auto& counters = world_->obs().counters();
      auto it = counters.find("kernel.meter_records_consumed");
      return it != counters.end() && it->second.value() >= stop.n;
    }
  }
  return false;
}

std::size_t ReplayHarness::play(std::size_t upto, bool strict) {
  const std::size_t end = std::min(upto, rec_.ops.size());
  std::size_t played = 0;
  while (next_op_ < end) {
    const RecordedOp& op = rec_.ops[next_op_];
    if (strict && world_->now() != op.at) {
      divergence_ = util::strprintf(
          "op %zu (%s) issued at %lldus, recorded at %lldus", next_op_,
          op_kind_name(op.kind),
          static_cast<long long>(util::count_us(world_->now())),
          static_cast<long long>(util::count_us(op.at - util::TimePoint{})));
      break;
    }
    exec_op(op, nullptr);
    ++next_op_;
    ++played;
  }
  return played;
}

std::size_t ReplayHarness::play_until(StopCondition stop) {
  std::size_t played = 0;
  while (next_op_ < rec_.ops.size() && !stop_met(stop)) {
    exec_op(rec_.ops[next_op_], &stop);
    ++next_op_;
    ++played;
  }
  return played;
}

sim::replay::Snapshot ReplayHarness::checkpoint() {
  rec_.cut_ops = next_op_;
  rec_.cut = world_->checkpoint();
  return *rec_.cut;
}

std::vector<std::string> ReplayHarness::verify_cut() const {
  assert(rec_.cut && "verify_cut without a recorded cut");
  if (!rec_.cut) return {"<no cut recorded>"};
  return world_->restore(*rec_.cut);
}

// ---- invariants ------------------------------------------------------------

std::optional<std::string> check_strict_invariants(
    const kernel::World& world, std::uint64_t killed_processes) {
  const kernel::MeterConservation mc = world.meter_conservation();
  const kernel::FanInConservation fc = world.fanin_conservation();
  if (!mc.balanced() || !fc.balanced()) return "conservation";
  const auto& gauges = world.obs().gauges();
  if (auto it = gauges.find("kernel.machines_down");
      it != gauges.end() && it->second.value() > 0) {
    return "no_machine_down";
  }
  if (killed_processes > 0) return "clean_exits";
  if (mc.lost + mc.dropped + mc.stranded + mc.malformed > 0 ||
      fc.lost + fc.overflow + fc.stranded + fc.malformed > 0) {
    return "no_lost_records";
  }
  return std::nullopt;
}

// ---- FaultShrinker ---------------------------------------------------------

ShrinkResult FaultShrinker::shrink(const net::FaultPlan& plan,
                                   const std::string& invariant) {
  ShrinkResult res;
  res.invariant = invariant;
  res.original_events = plan.events.size();
  auto fails = [&](const net::FaultPlan& p) {
    ++res.probes;
    auto v = probe_(p);
    return v && *v == invariant;
  };
  // Not an assert: the initial probe must run (and be counted) in every
  // build mode — it is the contract check that `plan` really violates
  // `invariant` before ddmin starts spending candidate executions.
  const bool original_fails = fails(plan);
  assert(original_fails && "shrink() needs a plan that violates `invariant`");
  if (!original_fails) {
    res.minimal = plan;
    res.minimal_events = res.original_events;
    return res;
  }

  // ddmin over the event list: try dropping complement chunks, refining
  // granularity when no chunk can go.
  net::FaultPlan cur = plan;
  std::size_t n = 2;
  while (cur.events.size() >= 2) {
    const std::size_t len = cur.events.size();
    const std::size_t chunk = (len + n - 1) / n;
    bool reduced = false;
    for (std::size_t i = 0; i * chunk < len; ++i) {
      net::FaultPlan cand;
      for (std::size_t j = 0; j < len; ++j) {
        if (j / chunk != i) cand.events.push_back(cur.events[j]);
      }
      if (cand.events.size() < len && fails(cand)) {
        cur = std::move(cand);
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= len) break;  // single-event granularity: local minimum
      n = std::min(len, n * 2);
    }
  }

  // Parameter lowering: shrink magnitudes while the failure persists.
  while (auto lowered = try_lower(cur, invariant, &res.probes)) {
    cur = std::move(*lowered);
    res.lowered = true;
  }

  res.minimal = std::move(cur);
  res.minimal_events = res.minimal.events.size();
  return res;
}

std::optional<net::FaultPlan> FaultShrinker::try_lower(
    const net::FaultPlan& plan, const std::string& invariant,
    std::size_t* probes) {
  auto fails = [&](const net::FaultPlan& p) {
    ++*probes;
    auto v = probe_(p);
    return v && *v == invariant;
  };
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const net::FaultEvent& ev = plan.events[i];
    std::vector<net::FaultEvent> variants;
    if (util::count_us(ev.duration) >= 2000) {
      net::FaultEvent v = ev;
      v.duration = util::usec(util::count_us(ev.duration) / 2);
      variants.push_back(v);
    }
    if (util::count_us(ev.extra_latency) >= 1000) {
      net::FaultEvent v = ev;
      v.extra_latency = util::usec(util::count_us(ev.extra_latency) / 2);
      variants.push_back(v);
    }
    if (ev.kind == net::FaultKind::drop_burst && ev.loss > 0.3) {
      net::FaultEvent v = ev;
      v.loss = std::max(0.25, ev.loss / 2);
      variants.push_back(v);
    }
    for (const net::FaultEvent& v : variants) {
      net::FaultPlan cand = plan;
      cand.events[i] = v;
      if (fails(cand)) return cand;
    }
  }
  return std::nullopt;
}

// ---- repro artifacts -------------------------------------------------------

std::string format_chaos_repro(std::uint64_t seed, const net::FaultPlan& plan,
                               const std::string& invariant,
                               const ShrinkResult* shrunk) {
  std::string out = "dpm-chaos-repro v1\n";
  out += "seed " + std::to_string(seed) + "\n";
  out += "invariant " + invariant + "\n";
  out += "events " + std::to_string(plan.events.size()) + "\n";
  out += "plan " + plan.to_string() + "\n";
  if (shrunk) {
    out += "shrunk-invariant " + shrunk->invariant + "\n";
    out += "shrunk-events " + std::to_string(shrunk->minimal_events) + "\n";
    out += "shrunk-plan " + shrunk->minimal.to_string() + "\n";
    out += "probes " + std::to_string(shrunk->probes) + "\n";
  }
  return out;
}

bool write_chaos_repro(const std::string& path, std::uint64_t seed,
                       const net::FaultPlan& plan,
                       const std::string& invariant,
                       const ShrinkResult* shrunk) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = format_chaos_repro(seed, plan, invariant, shrunk);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

// ---- ReplayService ---------------------------------------------------------

std::shared_ptr<ReplayService> ReplayService::install(ReplayHarness& harness) {
  auto svc = std::make_shared<ReplayService>(&harness);
  harness.world().set_service(kServiceName, svc);
  return svc;
}

std::shared_ptr<ReplayService> ReplayService::find(kernel::World& world) {
  return std::static_pointer_cast<ReplayService>(world.service(kServiceName));
}

}  // namespace dpm::control::replay
