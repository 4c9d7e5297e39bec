// Process-table entries.
//
// §3.2: "For the purpose of metering, three fields have been added to the
// process structures in the process table": the meter socket, the meter
// flag bit mask, and the pending meter messages. Those three fields are
// reproduced verbatim here (meter_sock / meter_flags / meter_pending),
// alongside the usual identity, descriptor-table, accounting and
// signal-ish state a 4.2BSD proc entry carries.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "kernel/descriptor.h"
#include "kernel/types.h"
#include "kernel/wait.h"
#include "meter/meterflags.h"
#include "sim/executive.h"
#include "util/bytes.h"
#include "util/time.h"

namespace dpm::kernel {

enum class ProcStatus { embryo, alive, dead };

/// What a child did; delivered to the parent like SIGCHLD + wait status.
/// `meter_lost` is the degradation signal: the child's meter connection
/// died and its events are now accounted drops (the daemon forwards it to
/// the controller as a state note).
enum class ChildEvent { stopped, continued, exited, killed, meter_lost };

struct ChildChange {
  Pid pid = 0;
  ChildEvent event = ChildEvent::exited;
  int status = 0;  // exit status for `exited`
};

const char* child_event_name(ChildEvent e);

class Process {
 public:
  Process(Pid pid, MachineId machine, Uid uid, std::string name,
          std::size_t max_descriptors)
      : pid(pid), machine(machine), uid(uid), euid(uid),
        name(std::move(name)), fds(max_descriptors) {}

  // ---- identity ----
  Pid pid;
  MachineId machine;
  Uid uid;
  /// Effective uid used for permission checks; root processes (the
  /// meterdaemon) impersonate the requesting user with it (§3.5.5).
  Uid euid = uid;
  std::string name;        // program name, for diagnostics
  Pid parent = 0;          // 0 = created by the harness (no parent)
  sim::TaskId task = sim::kNoTask;
  ProcStatus status = ProcStatus::embryo;

  DescriptorTable fds;

  // ---- the paper's three metering fields ----
  SocketId meter_sock = 0;           // hidden from the descriptor table
  meter::Flags meter_flags = 0;
  util::Bytes meter_pending;         // serialized, unsent meter messages
  std::uint32_t meter_pending_count = 0;
  /// Record provenance: one emit stamp (sim-time us) per record in
  /// meter_pending, in wire order. Moved into kernel_stream_send at flush
  /// so delivery can open sampled entries; always empty when the world
  /// traces nothing.
  std::vector<std::int64_t> prov_emit_us;
  /// Set when the meter connection died under the process (dead filter,
  /// reset socket): metered events are then counted as accounted drops
  /// instead of buffered, and the parent got a meter_lost child change.
  bool meter_degraded = false;

  // ---- accounting ----
  util::Duration cpu_used{0};        // microsecond-precise internal total

  // ---- control (stop / continue / kill) ----
  bool stop_requested = false;  // stop at the next kernel checkpoint
  bool in_stop = false;         // parked at the stop gate now
  /// True while the process sits in its *creation* suspension (§3.5.1's
  /// "suspended prior to the start of its execution"): entering and
  /// leaving that state is not a state *change*, so no SIGCHLD-style
  /// notification is sent for it.
  bool initial_suspend = false;
  WaitChannel stop_gate;
  int exit_status = 0;
  bool killed = false;

  // ---- child state-change notifications (SIGCHLD stand-in) ----
  std::deque<ChildChange> child_changes;
  WaitChannel child_wait;

  /// Call-site tag recorded as "pc" in meter messages (apps may set it).
  std::uint32_t pc = 0;
};

}  // namespace dpm::kernel
