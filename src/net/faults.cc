#include "net/faults.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <utility>

#include "util/rng.h"

namespace dpm::net {
namespace {

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool parse_i64(std::string_view s, std::int64_t* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && p == s.data() + s.size();
}

/// <int>us|ms|s, e.g. "250ms".
bool parse_dur(std::string_view s, util::Duration* out) {
  std::size_t n = s.size();
  std::int64_t scale = 0;
  if (n > 2 && s.substr(n - 2) == "us") scale = 1, n -= 2;
  else if (n > 2 && s.substr(n - 2) == "ms") scale = 1000, n -= 2;
  else if (n > 1 && s.back() == 's') scale = 1000000, n -= 1;
  std::int64_t v = 0;
  if (scale == 0 || !parse_i64(s.substr(0, n), &v) || v < 0) return false;
  *out = util::usec(v * scale);
  return true;
}

std::string format_dur(util::Duration d) {
  const std::int64_t us = util::count_us(d);
  if (us != 0 && us % 1000000 == 0) return std::to_string(us / 1000000) + "s";
  if (us != 0 && us % 1000 == 0) return std::to_string(us / 1000) + "ms";
  return std::to_string(us) + "us";
}

bool parse_double(std::string_view s, double* out) {
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && p == s.data() + s.size();
}

std::string format_loss(double p) {
  // %g is the readable form ("0.8") but only keeps 6 significant digits;
  // random plans draw loss from uniform01() and must survive
  // parse(to_string(plan)) == plan bit-exactly. Emit %g only when it
  // parses back to the same double, else fall back to %.17g (shortest
  // guaranteed-exact printf form).
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", p);
  double back = 0.0;
  if (parse_double(buf, &back) && back == p) return buf;
  std::snprintf(buf, sizeof buf, "%.17g", p);
  return buf;
}

/// Splits "key=value"; returns false if there is no '='.
bool key_value(std::string_view tok, std::string_view* key,
               std::string_view* value) {
  auto eq = tok.find('=');
  if (eq == std::string_view::npos) return false;
  *key = tok.substr(0, eq);
  *value = tok.substr(eq + 1);
  return true;
}

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

/// Parses one event statement ("kind@time args...") into *ev.
bool parse_event(std::string_view stmt, FaultEvent* ev, std::string* error) {
  auto toks = split_ws(stmt);
  if (toks.empty()) return fail(error, "empty fault event");
  auto at = toks[0].find('@');
  if (at == std::string_view::npos) {
    return fail(error, "fault event needs kind@time: '" + std::string(toks[0]) + "'");
  }
  const std::string_view kind = toks[0].substr(0, at);
  util::Duration t{};
  if (!parse_dur(toks[0].substr(at + 1), &t)) {
    return fail(error, "bad fault time in '" + std::string(toks[0]) + "'");
  }
  ev->at = util::TimePoint{} + t;

  std::vector<std::string_view> words;  // bare positional arguments
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view k, v;
    if (!key_value(toks[i], &k, &v)) {
      words.push_back(toks[i]);
      continue;
    }
    std::int64_t n = 0;
    if (k == "net" && parse_i64(v, &n)) {
      ev->net = static_cast<NetworkId>(n);
    } else if (k == "for" && parse_dur(v, &ev->duration)) {
    } else if (k == "p" && parse_double(v, &ev->loss)) {
    } else if (k == "add" && parse_dur(v, &ev->extra_latency)) {
    } else {
      return fail(error, "bad fault option '" + std::string(toks[i]) + "'");
    }
  }

  auto need_words = [&](std::size_t n) {
    return words.size() == n ||
           fail(error, std::string(kind) + " takes " + std::to_string(n) +
                           " machine name(s): '" + std::string(stmt) + "'");
  };
  if (kind == "drop") {
    ev->kind = FaultKind::drop_burst;
    if (!need_words(0)) return false;
    if (ev->duration.count() <= 0) return fail(error, "drop needs for=<dur>");
    if (ev->loss < 0 || ev->loss > 1) return fail(error, "drop needs p in [0,1]");
  } else if (kind == "spike") {
    ev->kind = FaultKind::latency_spike;
    if (!need_words(0)) return false;
    if (ev->duration.count() <= 0) return fail(error, "spike needs for=<dur>");
    if (ev->extra_latency.count() <= 0) return fail(error, "spike needs add=<dur>");
  } else if (kind == "partition") {
    ev->kind = FaultKind::partition;
    if (!need_words(2)) return false;
    ev->a = words[0], ev->b = words[1];
    if (ev->duration.count() <= 0) return fail(error, "partition needs for=<dur>");
  } else if (kind == "reset") {
    ev->kind = FaultKind::stream_reset;
    if (!need_words(2)) return false;
    ev->a = words[0], ev->b = words[1];
  } else if (kind == "crash" || kind == "restart") {
    ev->kind = kind == "crash" ? FaultKind::crash : FaultKind::restart;
    if (!need_words(1)) return false;
    ev->a = words[0];
  } else if (kind == "kill") {
    ev->kind = FaultKind::kill;
    if (words.size() != 2) return fail(error, "kill takes <machine> <pid>");
    ev->a = words[0];
    std::int64_t pid = 0;
    if (!parse_i64(words[1], &pid)) return fail(error, "kill needs a numeric pid");
    ev->pid = static_cast<std::int32_t>(pid);
  } else {
    return fail(error, "unknown fault kind '" + std::string(kind) + "'");
  }
  return true;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::drop_burst: return "drop";
    case FaultKind::latency_spike: return "spike";
    case FaultKind::partition: return "partition";
    case FaultKind::stream_reset: return "reset";
    case FaultKind::crash: return "crash";
    case FaultKind::restart: return "restart";
    case FaultKind::kill: return "kill";
  }
  return "?";
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view dsl,
                                          std::string* error) {
  FaultPlan plan;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= dsl.size(); ++i) {
    if (i < dsl.size() && dsl[i] != ';' && dsl[i] != '\n') continue;
    std::string_view stmt = dsl.substr(start, i - start);
    start = i + 1;
    if (auto hash = stmt.find('#'); hash != std::string_view::npos) {
      stmt = stmt.substr(0, hash);
    }
    if (split_ws(stmt).empty()) continue;  // blank / comment-only statement
    FaultEvent ev;
    if (!parse_event(stmt, &ev, error)) return std::nullopt;
    plan.events.push_back(std::move(ev));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& ev : events) {
    if (!out.empty()) out += "; ";
    out += fault_kind_name(ev.kind);
    out += '@';
    out += format_dur(ev.at - util::TimePoint{});
    switch (ev.kind) {
      case FaultKind::drop_burst:
        out += " net=" + std::to_string(ev.net) + " for=" + format_dur(ev.duration) +
               " p=" + format_loss(ev.loss);
        break;
      case FaultKind::latency_spike:
        out += " net=" + std::to_string(ev.net) + " for=" + format_dur(ev.duration) +
               " add=" + format_dur(ev.extra_latency);
        break;
      case FaultKind::partition:
        out += " " + ev.a + " " + ev.b + " for=" + format_dur(ev.duration);
        break;
      case FaultKind::stream_reset:
        out += " " + ev.a + " " + ev.b;
        break;
      case FaultKind::crash:
      case FaultKind::restart:
        out += " " + ev.a;
        break;
      case FaultKind::kill:
        out += " " + ev.a + " " + std::to_string(ev.pid);
        break;
    }
  }
  return out;
}

FaultPlan FaultPlan::random(std::uint64_t seed,
                            const std::vector<std::string>& machines,
                            util::Duration horizon) {
  FaultPlan plan;
  util::Rng rng = util::Rng::named(seed, "net.faults");
  if (machines.empty() || horizon.count() <= 0) return plan;
  const std::int64_t h = util::count_us(horizon);
  auto pick_at = [&] { return util::TimePoint{} + util::usec(rng.uniform(h / 10, h - 1)); };
  auto pick_machine = [&](std::size_t min_index) {
    return machines[static_cast<std::size_t>(rng.uniform(
        static_cast<std::int64_t>(min_index),
        static_cast<std::int64_t>(machines.size()) - 1))];
  };
  const std::int64_t n = rng.uniform(3, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.at = pick_at();
    switch (rng.uniform(0, 4)) {
      case 0:
        ev.kind = FaultKind::drop_burst;
        ev.duration = util::usec(rng.uniform(h / 50, h / 5));
        ev.loss = 0.25 + 0.75 * rng.uniform01();
        break;
      case 1:
        ev.kind = FaultKind::latency_spike;
        ev.duration = util::usec(rng.uniform(h / 50, h / 5));
        ev.extra_latency = util::usec(rng.uniform(500, h / 20 + 500));
        break;
      case 2: {
        ev.kind = FaultKind::partition;
        ev.a = pick_machine(0);
        do { ev.b = pick_machine(0); } while (machines.size() > 1 && ev.b == ev.a);
        ev.duration = util::usec(rng.uniform(h / 50, h / 4));
        break;
      }
      case 3: {
        ev.kind = FaultKind::stream_reset;
        ev.a = pick_machine(0);
        do { ev.b = pick_machine(0); } while (machines.size() > 1 && ev.b == ev.a);
        break;
      }
      default: {
        if (machines.size() < 2) { --i; continue; }  // never crash the hub
        ev.kind = FaultKind::crash;
        ev.a = pick_machine(1);
        FaultEvent up;
        up.kind = FaultKind::restart;
        up.a = ev.a;
        up.at = ev.at + util::usec(rng.uniform(h / 20, h / 4));
        plan.events.push_back(std::move(up));
        break;
      }
    }
    plan.events.push_back(std::move(ev));
  }
  return plan;
}

FaultInjector::FaultInjector(sim::Executive& exec, Fabric& fabric,
                             FaultPlan plan, FaultHooks hooks,
                             obs::Registry* reg)
    : exec_(exec), fabric_(fabric), plan_(std::move(plan)),
      hooks_(std::move(hooks)) {
  if (!reg) {
    own_reg_ = std::make_unique<obs::Registry>();
    reg = own_reg_.get();
  }
  reg_ = reg;
  c_injections_ = &reg_->counter("faults.injections");
  static constexpr const char* kKindKeys[kFaultKinds] = {
      "faults.drop_bursts",   "faults.latency_spikes", "faults.partitions",
      "faults.stream_resets", "faults.crashes",        "faults.restarts",
      "faults.kills"};
  for (int i = 0; i < kFaultKinds; ++i) c_kind_[i] = &reg_->counter(kKindKeys[i]);
  g_active_partitions_ = &reg_->gauge("faults.active_partitions");
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  // Plan times are absolute. An event already due fires at the install
  // time, in plan order, so no fault ever sees the clock run backwards.
  const util::TimePoint now = exec_.now();
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    exec_.schedule_at(std::max(plan_.events[i].at, now),
                      [this, i] { fire(plan_.events[i]); });
  }
}

std::optional<MachineId> FaultInjector::resolve(const std::string& name) const {
  if (hooks_.machine_id) return hooks_.machine_id(name);
  std::int64_t id = 0;
  if (!parse_i64(name, &id)) return std::nullopt;
  return static_cast<MachineId>(id);
}

void FaultInjector::fire(const FaultEvent& ev) {
  ++injected_;
  c_injections_->add(1);
  c_kind_[static_cast<int>(ev.kind)]->add(1);
  const util::TimePoint now = exec_.now();
  switch (ev.kind) {
    case FaultKind::drop_burst:
      fabric_.fault_drop_burst(ev.net, ev.loss, now + ev.duration);
      break;
    case FaultKind::latency_spike:
      fabric_.fault_latency_spike(ev.net, ev.extra_latency, now + ev.duration);
      break;
    case FaultKind::partition: {
      auto a = resolve(ev.a), b = resolve(ev.b);
      if (!a || !b || *a == *b) break;
      fabric_.fault_partition(*a, *b, now + ev.duration);
      g_active_partitions_->add(1);
      exec_.schedule_at(now + ev.duration,
                        [this] { g_active_partitions_->sub(1); });
      break;
    }
    case FaultKind::stream_reset:
      if (hooks_.reset_streams) hooks_.reset_streams(ev.a, ev.b);
      break;
    case FaultKind::crash:
      if (hooks_.crash_machine) hooks_.crash_machine(ev.a);
      break;
    case FaultKind::restart:
      if (hooks_.restart_machine) hooks_.restart_machine(ev.a);
      break;
    case FaultKind::kill:
      if (hooks_.kill_process) hooks_.kill_process(ev.a, ev.pid);
      break;
  }
}

}  // namespace dpm::net
