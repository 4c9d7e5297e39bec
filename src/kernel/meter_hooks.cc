#include "kernel/meter_hooks.h"

#include <algorithm>

#include "kernel/machine.h"

namespace dpm::kernel {

namespace {

/// Books CPU time for kernel metering work without blocking the process:
/// the machine's CPU is considered busy for `d` longer, and the time is
/// charged to the process (it pays for its own monitoring, as in the
/// paper's real kernel).
void book_cpu(World& world, Machine& m, Process& p, util::Duration d) {
  if (d.count() <= 0) return;
  const util::TimePoint now = world.exec().now();
  m.cpu_free_at = std::max(m.cpu_free_at, now) + d;
  p.cpu_used += d;
}

/// Headroom reserved beyond the flush threshold: the byte threshold is
/// checked only after a message is appended, so the pending buffer can
/// overshoot it by one message before the flush empties it.
constexpr std::size_t kPendingSlack = 256;

/// True while the meter socket can still move bytes toward a live filter.
bool meter_conn_healthy(World& world, const Socket* ms) {
  if (ms == nullptr || ms->sstate != Socket::StreamState::connected ||
      ms->peer == 0 || ms->eof) {
    return false;
  }
  return world.find_socket(ms->peer) != nullptr;
}

}  // namespace

void meter_emit(World& world, Process& p, MeterEventDraft&& draft) {
  if ((p.meter_flags & draft.guard) == 0) return;
  if (p.meter_sock == 0) {
    if (p.meter_degraded) {
      // Accounted drop mode: the meter connection died under the process
      // (dead filter, reset socket). Events are counted — emitted and
      // dropped in the same breath — instead of buffered, so conservation
      // stays exact without unbounded pending growth.
      world.mobs_.events->add(1);
      world.mobs_.dropped_records->add(1);
    }
    return;
  }

  Machine& m = world.machine(p.machine);
  const WorldConfig& cfg = world.config();

  // Aggregate-init so the body variant is move-constructed in place instead
  // of default-constructed and reassigned (this runs once per metered event).
  meter::MeterMsg msg{meter::MeterHeader{}, std::move(draft.body)};
  msg.header.machine = m.index;
  msg.header.cpu_time = m.clock.read_us(world.exec().now());
  const std::int64_t grain = kCpuGrain.count();
  const std::int64_t cpu_used = p.cpu_used.count();
  // Below one grain the quantized reading is zero; skip the division that
  // otherwise runs on every metered event.
  msg.header.proc_time = cpu_used < grain ? 0 : (cpu_used / grain) * grain;

  // Encode straight into the pending batch. The reservation covers a full
  // batch (re-established after meter_flush's swap hands the capacity
  // away), so steady-state emission appends without reallocating.
  if (p.meter_pending.capacity() < cfg.meter_buffer_bytes + kPendingSlack) {
    p.meter_pending.reserve(cfg.meter_buffer_bytes + kPendingSlack);
  }
  const std::size_t before = p.meter_pending.size();
  msg.serialize_into(p.meter_pending);
  ++p.meter_pending_count;
  if (world.provenance() != nullptr) {
    // The record's provenance index is assigned at delivery, but its emit
    // time must be captured now — the stamp rides beside the pending
    // batch, one entry per record in wire order.
    p.prov_emit_us.push_back(util::count_us(world.exec().now()));
  }
  world.mobs_.events->add(1);
  world.mobs_.pending_bytes->add(
      static_cast<std::int64_t>(p.meter_pending.size() - before));

  book_cpu(world, m, p, cfg.costs.meter_event);

  const bool immediate = (p.meter_flags & meter::M_IMMEDIATE) != 0;
  if (immediate || p.meter_pending_count >= cfg.meter_buffer_msgs ||
      p.meter_pending.size() >= cfg.meter_buffer_bytes) {
    meter_flush(world, p);
  }
}

void meter_flush(World& world, Process& p) {
  if (p.meter_pending.empty()) return;
  util::Bytes batch;
  batch.swap(p.meter_pending);
  // Emit stamps travel with their batch: delivered together or lost
  // together (the unhealthy path below drops both on the floor).
  std::vector<std::int64_t> emit_stamps;
  emit_stamps.swap(p.prov_emit_us);
  const std::uint32_t batch_msgs = p.meter_pending_count;
  p.meter_pending_count = 0;
  // The occupancy gauge drops on *every* flush outcome — the dropped-batch
  // path empties the buffer just as surely as a delivered one (leaving the
  // gauge high after a drop once overstated occupancy forever).
  world.mobs_.pending_bytes->sub(static_cast<std::int64_t>(batch.size()));

  // A meter socket that has died underneath the process (peer reset, EOF,
  // connection torn down by a fault) is as useless as no socket at all.
  Socket* ms = p.meter_sock == 0 ? nullptr : world.find_socket(p.meter_sock);
  if (!meter_conn_healthy(world, ms)) {
    // Without a usable meter socket the batch is simply lost (Appendix C):
    // no send happens, so no CPU is charged and nothing is counted as
    // delivered — the loss lands in the dropped counters instead.
    world.mobs_.dropped_batches->add(1);
    world.mobs_.dropped_bytes->add(batch.size());
    world.mobs_.dropped_records->add(batch_msgs);
    if (p.meter_sock != 0) {
      // The meter connection died underneath the process: release it,
      // flip to accounted drop mode and tell the parent (the meterdaemon
      // forwards this upstream as a state note).
      world.socket_unref(p.meter_sock);
      p.meter_sock = 0;
      p.meter_degraded = true;
      world.push_child_change(world.machine(p.machine), p.parent,
                              ChildChange{p.pid, ChildEvent::meter_lost, 0});
    }
    return;
  }

  Machine& m = world.machine(p.machine);
  const auto& costs = world.config().costs;
  book_cpu(world, m, p,
           costs.meter_flush_base +
               util::usec(costs.meter_flush_per_kb.count() *
                          static_cast<std::int64_t>(batch.size()) / 1024));

  world.mobs_.flushes->add(1);
  world.mobs_.bytes->add(batch.size());
  world.mobs_.batch_bytes->record(static_cast<std::int64_t>(batch.size()));
  world.mobs_.batch_msgs->record(batch_msgs);

  world.kernel_stream_send(p.meter_sock, std::move(batch), batch_msgs,
                           std::move(emit_stamps));
}

}  // namespace dpm::kernel
