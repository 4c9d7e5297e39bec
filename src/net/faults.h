// Deterministic fault injection: seeded, sim-time-scheduled failure plans.
//
// The paper's setting is machines joined by networks with "non-deterministic
// communication delay" and partial failure (§2.1, §3.5) — yet a simulator
// only exercises what it can inject. A FaultPlan is a list of timed fault
// events (datagram loss bursts, latency spikes, link partitions with heal
// times, stream resets, machine crash/restart, targeted process kills)
// that a FaultInjector schedules against the Fabric and — through
// FaultHooks, so the net layer stays below the kernel — against a World.
// Plans are reproducible from a seed + plan string: the same DSL text (or
// FaultPlan::random(seed, ...)) always yields the same run.
//
// Scenario DSL: events separated by ';' or newlines, '#' comments to end
// of line, durations as <int>us|ms|s:
//
//   drop@200ms net=0 for=50ms p=0.8     # datagram loss burst
//   spike@1s net=0 for=200ms add=5ms    # per-network latency spike
//   partition@500ms red blue for=2s     # link partition, heals itself
//   reset@1s red blue                   # reset streams between two hosts
//   crash@2s green                      # machine crash (processes die)
//   restart@3s green                    # machine back up, boot programs run
//   kill@1500ms blue 104                # kill one process by pid
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.h"
#include "net/fabric.h"
#include "obs/registry.h"
#include "sim/executive.h"
#include "util/time.h"

namespace dpm::net {

enum class FaultKind : std::uint8_t {
  drop_burst,
  latency_spike,
  partition,
  stream_reset,
  crash,
  restart,
  kill,
};
inline constexpr int kFaultKinds = 7;

/// The DSL keyword ("drop", "spike", "partition", "reset", "crash",
/// "restart", "kill").
const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  util::TimePoint at{};
  FaultKind kind = FaultKind::drop_burst;
  std::string a;                   // machine (crash/restart/kill), endpoint 1
  std::string b;                   // endpoint 2 (partition/reset)
  util::Duration duration{};       // drop_burst/latency_spike/partition
  double loss = 1.0;               // drop_burst
  util::Duration extra_latency{};  // latency_spike
  NetworkId net = 0;               // drop_burst/latency_spike
  std::int32_t pid = 0;            // kill

  bool operator==(const FaultEvent&) const = default;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  bool operator==(const FaultPlan&) const = default;

  /// Parses the scenario DSL (see the header comment). Returns nullopt and
  /// fills `error` (if given) on the first malformed event.
  static std::optional<FaultPlan> parse(std::string_view dsl,
                                        std::string* error = nullptr);

  /// Canonical DSL text; round-trips through parse().
  std::string to_string() const;

  /// A reproducible random plan over `machines` within [0, horizon):
  /// loss bursts, latency spikes, self-healing partitions, stream resets,
  /// and crash/restart pairs. Never emits `kill` (pids are not knowable at
  /// plan time) and never crashes machines[0] — by convention the hub that
  /// runs the controller and filters.
  static FaultPlan random(std::uint64_t seed,
                          const std::vector<std::string>& machines,
                          util::Duration horizon);
};

/// Callbacks the kernel installs (World::install_faults) so fault events
/// can reach layers the net library cannot see. Unset hooks turn those
/// events into no-ops; unknown machine names are ignored.
struct FaultHooks {
  std::function<void(const std::string&)> crash_machine;
  std::function<void(const std::string&)> restart_machine;
  std::function<void(const std::string&, std::int32_t)> kill_process;
  std::function<void(const std::string&, const std::string&)> reset_streams;
  /// Name → MachineId for partitions. When unset, names that parse as
  /// decimal integers are used directly (standalone fabric tests).
  std::function<std::optional<MachineId>(const std::string&)> machine_id;
};

/// Schedules a FaultPlan's events against a Fabric (and, through the
/// hooks, a World). Owns the faults.* instruments: injection counters by
/// kind and the active-partitions gauge.
class FaultInjector {
 public:
  FaultInjector(sim::Executive& exec, Fabric& fabric, FaultPlan plan,
                FaultHooks hooks, obs::Registry* reg = nullptr);

  /// Schedules every event of the plan at its absolute time; call once.
  /// An event whose time has already passed fires at the install time
  /// (now), in plan order.
  void arm();

  std::size_t injected() const { return injected_; }
  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void fire(const FaultEvent& ev);
  std::optional<MachineId> resolve(const std::string& name) const;

  sim::Executive& exec_;
  Fabric& fabric_;
  FaultPlan plan_;
  FaultHooks hooks_;
  std::unique_ptr<obs::Registry> own_reg_;
  obs::Registry* reg_ = nullptr;
  obs::Counter* c_injections_ = nullptr;
  obs::Counter* c_kind_[kFaultKinds] = {};
  obs::Gauge* g_active_partitions_ = nullptr;
  std::size_t injected_ = 0;
  bool armed_ = false;
};

}  // namespace dpm::net
