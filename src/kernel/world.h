// The World: one simulated distributed system.
//
// Owns the executive (time), the network fabric, the host table, every
// machine, the global socket registry, and the exec registry. The harness
// (tests, examples, benchmarks) builds a World, registers programs, spawns
// bootstrap processes (meterdaemons, a controller), and runs the event
// loop.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernel/exec_registry.h"
#include "kernel/machine.h"
#include "kernel/socket.h"
#include "kernel/types.h"
#include "net/fabric.h"
#include "net/hosts.h"
#include "obs/provenance.h"
#include "obs/registry.h"
#include "sim/executive.h"
#include "util/result.h"
#include "util/rng.h"

namespace dpm::net {
struct FaultPlan;
class FaultInjector;
}  // namespace dpm::net

namespace dpm::kernel {

class Sys;

/// Aggregate metering counters across all processes (experiment E1).
/// `flushes`/`bytes` count batches actually delivered to a meter
/// connection; batches lost because the process has no meter socket
/// (Appendix C) are accounted separately so loss stays visible.
///
/// This struct is a *view* over the world's metrics registry (the
/// kernel.meter_* counters) — the registry is the one accounting path;
/// World::meter_stats() materializes it on demand.
struct MeterStats {
  std::uint64_t events = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped_batches = 0;
  std::uint64_t dropped_bytes = 0;
  /// Meter records destroyed cut short: a meter connection's receive
  /// buffer was torn down while its last record was still partial (the
  /// filter-side counterpart is FilterStats::truncated).
  std::uint64_t malformed_records = 0;
};

/// Record-granular conservation of meter events: every record a process
/// ever emitted is in exactly one bucket, so at any quiescent point
///   emitted == consumed + dropped + lost + stranded + malformed
///              + pending + buffered
/// holds exactly — the chaos invariant "records emitted = records logged
/// + accounted drops". World::meter_conservation() materializes it.
struct MeterConservation {
  std::uint64_t emitted = 0;    // kernel.meter_events
  std::uint64_t consumed = 0;   // read out of a meter conn by its filter
  std::uint64_t dropped = 0;    // flushed with no usable meter socket
  std::uint64_t lost = 0;       // sent, but the peer was gone at delivery
  std::uint64_t stranded = 0;   // complete frames in a torn-down rbuf
  std::uint64_t malformed = 0;  // frames cut short by teardown
  std::uint64_t pending = 0;    // buffered in live processes, unflushed
  std::uint64_t buffered = 0;   // frames waiting in live meter-conn rbufs

  std::uint64_t accounted() const {
    return consumed + dropped + lost + stranded + malformed + pending +
           buffered;
  }
  bool balanced() const { return emitted == accounted(); }
};

/// Tier-1 conservation: every record a local filter or aggregator handed
/// to meter_forward() is in exactly one bucket, so at any quiescent point
///   forwarded == consumed + lost + overflow + stranded + malformed
///                + buffered
/// holds exactly. Self-contained per hop: a record crossing k fan-in edges
/// adds k to `forwarded` and k terminal/buffered entries, so the ledger
/// balances for any tree depth. World::fanin_conservation() materializes
/// it.
struct FanInConservation {
  std::uint64_t forwarded = 0;  // fanin.forwarded_records
  std::uint64_t consumed = 0;   // read out of a tier-1 conn upstream
  std::uint64_t lost = 0;       // sender or peer dead at send/delivery
  std::uint64_t overflow = 0;   // dropped at delivery, receiver queue full
  std::uint64_t stranded = 0;   // complete frames in a torn-down rbuf
  std::uint64_t malformed = 0;  // frames cut short by teardown
  std::uint64_t buffered = 0;   // frames waiting in live tier-1 rbufs

  std::uint64_t accounted() const {
    return consumed + lost + overflow + stranded + malformed + buffered;
  }
  bool balanced() const { return forwarded == accounted(); }
};

/// Options for World::spawn / World::spawn_file.
struct SpawnOpts {
  bool suspended = false;  // park at the stop gate before the first insn
  Pid parent = 0;
  std::vector<std::string> args;
  Descriptor stdin_fd = Descriptor::null_dev();
  Descriptor stdout_fd = Descriptor::null_dev();
  Descriptor stderr_fd = Descriptor::null_dev();
};

class World {
 public:
  explicit World(WorldConfig cfg = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // ---- construction ----

  /// Adds a machine with explicit interfaces and clock model.
  MachineId add_machine(const std::string& name,
                        std::vector<net::Interface> interfaces,
                        sim::MachineClock::Config clock = {});

  /// Convenience: one interface on network 0, address auto-assigned,
  /// mild pseudo-random clock skew derived from the world seed.
  MachineId add_machine(const std::string& name);

  /// Grants `uid` an account on the machine (§3.5.5).
  void add_account(MachineId m, Uid uid);
  void add_account_everywhere(Uid uid);

  Machine& machine(MachineId id);
  const Machine& machine(MachineId id) const;
  Machine* machine_by_name(const std::string& name);
  std::vector<MachineId> machines() const;

  sim::Executive& exec() { return exec_; }
  net::Fabric& fabric() { return fabric_; }
  net::HostTable& hosts() { return hosts_; }
  ExecRegistry& programs() { return programs_; }
  const WorldConfig& config() const { return cfg_; }
  WorldConfig& mutable_config() { return cfg_; }
  util::Rng& rng() { return rng_; }

  // ---- process creation ----

  /// Spawns a process running `main` directly (harness bootstrap).
  util::SysResult<Pid> spawn(MachineId m, const std::string& proc_name,
                             Uid uid, ProcessMain main, SpawnOpts opts = {});

  /// Spawns from an executable file (the daemon's create path): the file
  /// must exist on the machine and name a registered program.
  util::SysResult<Pid> spawn_file(MachineId m, const std::string& path,
                                  Uid uid, std::vector<std::string> args,
                                  SpawnOpts opts = {});

  Process* find_process(MachineId m, Pid pid);

  // ---- process control (what the daemon's signals do) ----
  util::SysResult<void> proc_stop(MachineId m, Pid pid, Uid caller);
  util::SysResult<void> proc_continue(MachineId m, Pid pid, Uid caller);
  util::SysResult<void> proc_kill(MachineId m, Pid pid, Uid caller);

  // ---- fault injection (net/faults.h driven through the kernel) ----
  /// Builds a FaultInjector against this world's fabric, wires the
  /// crash/restart/kill/reset hooks and host-name resolution, and arms it.
  /// Call after the machines exist. No-op for an empty plan; the fault
  /// paths stay zero-cost until the first event fires.
  void install_faults(const net::FaultPlan& plan);

  /// Machine failure: marks the machine down and kills every process on
  /// it. The kill unwind runs the normal exit path, so pending meter
  /// batches are flushed — the fabric carries whatever it still can.
  /// SYNs and datagrams addressed to a down machine are silently lost.
  void crash_machine(MachineId id);
  /// Brings a crashed machine back up and respawns its boot programs.
  void restart_machine(MachineId id);
  /// Registers a program respawned whenever machine `m` restarts (the
  /// session layer registers the meterdaemon here).
  void add_boot_program(MachineId m, std::function<void(World&)> fn);
  /// Abruptly closes every stream connection spanning machines a and b
  /// (both endpoints; readers see EOF, meter conns degrade at next flush).
  /// Returns the number of connections reset.
  std::size_t reset_streams_between(MachineId a, MachineId b);

  // ---- sockets (kernel-internal; syscalls go through Sys) ----
  SocketId create_socket(MachineId m, SockDomain domain, SockType type);
  Socket* find_socket(SocketId id);
  Socket& socket(SocketId id);
  void socket_ref(SocketId id);
  void socket_unref(SocketId id);

  /// Kernel-side non-blocking stream send (meter flush path): enqueues the
  /// bytes toward the peer regardless of window, no meter hooks.
  /// `meter_msgs` is the record count of a meter batch — records that
  /// cannot be delivered (dead socket at send or at delivery time) are
  /// then booked as kernel.meter_lost_records, keeping conservation exact.
  /// `prov_emit_us` is the batch's per-record emit stamps (wire order) when
  /// record provenance is on: delivery hands them to the tracker's
  /// on_batch_deliver so sampled records get (edge, index) identities;
  /// a lost batch drops them, so dropped records never consume indices.
  void kernel_stream_send(SocketId from, util::Bytes data,
                          std::uint32_t meter_msgs = 0,
                          std::vector<std::int64_t> prov_emit_us = {});

  /// Fan-in tier send (Sys::meter_forward): ships a frame-aligned batch of
  /// `records` meter records up a tier-1 edge, bypassing the stream window.
  /// Every record is booked `fanin.forwarded_records` here and lands in
  /// exactly one terminal bucket: lost (dead endpoint at send or delivery),
  /// overflow (receiver rbuf at kFaninQueueBytes — whole batch dropped),
  /// or the receiver's rbuf (buffered, later consumed/stranded/malformed).
  /// The batch's provenance `samples` follow it into that bucket: re-keyed
  /// onto the receiving edge at delivery, killed on every drop.
  /// Returns false when the edge was already dead at send time, so the
  /// caller can try to re-establish it.
  bool kernel_fanin_forward(
      SocketId from, util::Bytes data, std::uint32_t records,
      std::vector<obs::ProvenanceTracker::ForwardSample> samples);

  /// Closes one endpoint: marks closed, tells the peer (EOF after data).
  void close_stream(Socket& s);

  // ---- simulated rcp (§3.5.3): copy a file between machines ----
  /// Kernel-level copy with access checks; charged latency is the caller's
  /// problem (Sys::rcp charges it).
  util::SysResult<std::size_t> copy_file(MachineId src_m, const std::string& src,
                                         MachineId dst_m, const std::string& dst,
                                         Uid uid);

  // ---- running ----
  void run() { exec_.run(); }
  void run_until(util::TimePoint t) { exec_.run_until(t); }
  void run_for(util::Duration d) { exec_.run_until(exec_.now() + d); }
  util::TimePoint now() const { return exec_.now(); }

  // ---- observability ----
  /// The world's unified metrics registry (timestamps in sim time; the
  /// executive's clock is installed at construction). All subsystem stats
  /// structs are views over it.
  obs::Registry& obs() { return obs_; }
  const obs::Registry& obs() const { return obs_; }

  /// One JSONL snapshot of every instrument plus the span ring (see
  /// obs/snapshot.h for the schema).
  std::string obs_snapshot() const { return obs_.snapshot_jsonl(); }

  /// Record-lifecycle provenance tracker (obs/provenance.h), or nullptr
  /// when WorldConfig::prov_sample_period is 0. Kernel transport code
  /// stamps through it; filter/analysis adapters reach it here.
  obs::ProvenanceTracker* provenance() { return prov_.get(); }
  const obs::ProvenanceTracker* provenance() const { return prov_.get(); }

  /// Appends a snapshot to `*sink` every `period` of sim time, starting
  /// one period from now. The timer keeps the event queue non-empty, so
  /// drive the world with run_until/run_for (run() would never return)
  /// and call stop_obs_snapshots() when done.
  void start_obs_snapshots(util::Duration period, std::string* sink);
  void stop_obs_snapshots() { ++obs_timer_gen_; }

  // ---- services -----------------------------------------------------------
  /// A type-erased slot for harness objects that higher layers hang on the
  /// world (the kernel cannot name their types without inverting the layer
  /// order — e.g. the filter layer's live record sink, filter_program.h).
  /// An empty pointer clears the slot. Layer-owned typed accessors wrap
  /// these; nothing in the kernel interprets the values.
  void set_service(const std::string& name, std::shared_ptr<void> service);
  std::shared_ptr<void> service(const std::string& name) const;

  // ---- checkpoint / restore (deterministic replay; sim/replay.h) ----
  /// Captures a named component-by-component digest of the full sim state
  /// at the current instant: time, scheduler + task table, armed timers,
  /// clock models, machine/process tables (pending meter batches
  /// included), sockets, the conservation ledgers, fabric in-flight/fault
  /// state, the fault injector's cursor, the world RNG stream, every obs
  /// instrument, and the filesystems. Two worlds with equal checkpoints
  /// are behaviorally indistinguishable from here on.
  sim::replay::Snapshot checkpoint() const;

  /// Completes a restore: the replay harness rebuilds a world from the
  /// recording's generative inputs, re-drives it to `expected.at`, and
  /// calls restore() to prove bit-identity. Returns the names of the
  /// diverged components — empty means this world *is* the checkpointed
  /// one as far as any future execution can tell. (Tasks are fibers on
  /// stacks of their own, so restore is re-execution plus verification
  /// rather than stack deserialization; see sim/replay.h.)
  std::vector<std::string> restore(const sim::replay::Snapshot& expected) const;

  // ---- experiment hooks ----
  MeterStats meter_stats() const;
  /// The record-conservation ledger (walks live meter sockets and process
  /// pending buffers for the in-flight terms). Tier-0 only: fan-in edges
  /// keep their own ledger (fanin_conservation()).
  MeterConservation meter_conservation() const;
  /// The fan-in tier's ledger (walks live tier-1 conns for `buffered`).
  FanInConservation fanin_conservation() const;

  /// Called by the exit path; the harness may watch process completion.
  using ExitListener = std::function<void(MachineId, Pid, int status, bool killed)>;
  void add_exit_listener(ExitListener fn) { exit_listeners_.push_back(std::move(fn)); }

  /// Live (alive, not dead) process count across all machines.
  std::size_t live_processes() const;

  /// Sound bound on how far apart any two machines' clock readings of the
  /// same instant can be, up to the current sim time: the sum of the two
  /// largest per-machine error bounds (offset + drift over the horizon +
  /// one tick each, sim::MachineClock::error_bound_us). This is the ε the
  /// online predicate detector should assume for this world.
  std::int64_t clock_skew_bound_us() const;

 private:
  friend class Sys;
  friend void meter_emit(World&, Process&, struct MeterEventDraft&&);
  friend void meter_flush(World&, Process&);

  /// The socket with this id, a destroyed one too (kept for parked
  /// waiters and in-flight accounting); null for an id never handed out.
  Socket* socket_object(SocketId id);
  /// Every machine, in id order: machines_ without its empty slot 0.
  std::span<const std::unique_ptr<Machine>> all_machines() const {
    return {machines_.begin() + 1, machines_.end()};
  }

  void finalize_exit(std::shared_ptr<Process> p, int status, bool was_killed);
  void push_child_change(Machine& m, Pid parent, ChildChange change);
  void destroy_socket(SocketId id);
  void release_descriptor(Descriptor& d);

  /// Advances a meter conn's frame cursor over `n` bytes the reader just
  /// consumed; counts kernel.meter_records_consumed at frame boundaries.
  void meter_consume(Socket& s, const std::uint8_t* data, std::size_t n);

  /// Delivery of one stream chunk into `to` (fabric callback). `accounted`
  /// marks chunks counted against the receive window by the sender.
  void deliver_stream(SocketId to, util::Bytes data, bool accounted);
  void deliver_eof(SocketId to);

  WorldConfig cfg_;
  sim::Executive exec_;
  obs::Registry obs_;  // before fabric_: the fabric resolves handles in it
  util::Rng rng_;
  net::Fabric fabric_;
  net::HostTable hosts_;
  ExecRegistry programs_;
  // Machines and sockets are indexed by id: ids start at 1 (slot 0 stays
  // empty), are never reused, and nothing is erased, so the next id is
  // the table's size and a walk in index order is a walk in id order.
  std::vector<std::unique_ptr<Machine>> machines_ =
      std::vector<std::unique_ptr<Machine>>(1);
  net::HostAddr next_addr_ = 1;
  std::vector<std::unique_ptr<Socket>> sockets_ =
      std::vector<std::unique_ptr<Socket>>(1);
  std::uint64_t next_internal_name_ = 1;
  std::vector<ExitListener> exit_listeners_;
  std::map<std::string, std::shared_ptr<void>> services_;

  /// Cached instrument handles for the meter hot path (resolved once in
  /// the constructor; the registry's references are stable).
  struct MeterObs {
    obs::Counter* events = nullptr;
    obs::Counter* flushes = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* dropped_batches = nullptr;
    obs::Counter* dropped_bytes = nullptr;
    obs::Counter* malformed_records = nullptr;
    // Record-granular conservation buckets (MeterConservation).
    obs::Counter* consumed_records = nullptr;
    obs::Counter* dropped_records = nullptr;
    obs::Counter* lost_records = nullptr;
    obs::Counter* stranded_records = nullptr;
    obs::Gauge* pending_bytes = nullptr;   // sum of per-process batches
    obs::Gauge* rbuf_bytes = nullptr;      // sum of socket receive buffers
    obs::Histogram* batch_bytes = nullptr; // per delivered flush
    obs::Histogram* batch_msgs = nullptr;
  };
  MeterObs mobs_;

  /// Fan-in tier instruments (tier-1 half of the conservation story).
  struct FanInObs {
    obs::Counter* forwarded = nullptr;       // records handed to meter_forward
    obs::Counter* consumed = nullptr;        // read out of tier-1 conns
    obs::Counter* lost = nullptr;            // dead edge at send/delivery
    obs::Counter* overflow_records = nullptr;  // dropped, receiver queue full
    obs::Counter* overflow_bytes = nullptr;
    obs::Counter* stranded = nullptr;        // complete frames at teardown
    obs::Counter* malformed = nullptr;       // cut-short frames at teardown
    obs::Gauge* queue_bytes = nullptr;  // tier-1 rbuf occupancy, high-water
  };
  FanInObs fobs_;

  std::unique_ptr<obs::ProvenanceTracker> prov_;

  obs::Gauge* machines_down_ = nullptr;
  std::vector<std::pair<MachineId, std::function<void(World&)>>> boot_programs_;
  std::unique_ptr<net::FaultInjector> injector_;
  // Set for the ~World drain: armed fault events that fire during teardown
  // must not crash/restart machines or spawn boot programs into a world
  // that is being dismantled.
  bool tearing_down_ = false;

  std::uint64_t obs_timer_gen_ = 0;  // bumping it cancels the pending tick
};

}  // namespace dpm::kernel
