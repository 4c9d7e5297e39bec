// Kernel metering hooks (§3.2).
//
// "On every call to a routine that might initiate a meter event, the
// kernel checks whether the call is currently metered for the process that
// is making the call. If the call is metered, the kernel creates and
// stores a message containing trace data. When a sufficient number of
// messages have been stored, the kernel sends them together to the filter
// across the meter connection."
//
// meter_emit builds the message (header filled from the machine clock and
// the process's CPU accounting), appends it to the process's pending
// buffer, and flushes when the buffer thresholds are hit or M_IMMEDIATE is
// set. meter_flush is also called from process termination.
#pragma once

#include "kernel/process.h"
#include "kernel/world.h"
#include "meter/metermsgs.h"

namespace dpm::kernel {

/// A meter event about to be recorded: the body plus the flag that guards
/// it. The header is filled in by meter_emit.
struct MeterEventDraft {
  meter::Flags guard = 0;
  meter::MeterBody body;
};

/// True if the process meters events guarded by `flag`.
inline bool metered(const Process& p, meter::Flags flag) {
  return (p.meter_flags & flag) != 0 && p.meter_sock != 0;
}

/// Records one meter event for `p` (no-op unless metered). Charges the
/// metering CPU cost to the process's machine but NOT as a visible
/// syscall — metering is transparent to the program (§2.2).
void meter_emit(World& world, Process& p, MeterEventDraft&& draft);

/// Sends any pending meter messages over the meter connection.
void meter_flush(World& world, Process& p);

}  // namespace dpm::kernel
