#include "kernel/world.h"

#include <cassert>

#include "kernel/meter_hooks.h"
#include "kernel/syscalls.h"
#include "net/faults.h"
#include "util/logging.h"

namespace dpm::kernel {

// RNG-stream discipline (DESIGN.md §14): every subsystem that draws
// randomness derives its own named stream from the world seed, so that
// enabling or disabling one subsystem (say, provenance tracing) can never
// shift another's draw sequence — the property replay depends on.
World::World(WorldConfig cfg)
    : cfg_(cfg),
      rng_(util::stream_seed(cfg.seed, "kernel.world")),
      fabric_(exec_, util::stream_seed(cfg.seed, "net.fabric"), &obs_) {
  exec_.set_obs(&obs_);  // also installs the sim clock as the registry's
  fabric_.configure_network(0, cfg_.default_net);
  fabric_.configure_local(cfg_.local_net);

  mobs_.events = &obs_.counter("kernel.meter_events");
  mobs_.flushes = &obs_.counter("kernel.meter_flushes");
  mobs_.bytes = &obs_.counter("kernel.meter_bytes");
  mobs_.dropped_batches = &obs_.counter("kernel.meter_dropped_batches");
  mobs_.dropped_bytes = &obs_.counter("kernel.meter_dropped_bytes");
  mobs_.malformed_records = &obs_.counter("kernel.meter_malformed_records");
  mobs_.consumed_records = &obs_.counter("kernel.meter_records_consumed");
  mobs_.dropped_records = &obs_.counter("kernel.meter_dropped_records");
  mobs_.lost_records = &obs_.counter("kernel.meter_lost_records");
  mobs_.stranded_records = &obs_.counter("kernel.meter_stranded_records");
  mobs_.pending_bytes = &obs_.gauge("kernel.meter_pending_bytes");
  mobs_.rbuf_bytes = &obs_.gauge("kernel.rbuf_bytes");
  mobs_.batch_bytes = &obs_.histogram("kernel.meter_batch_bytes");
  mobs_.batch_msgs = &obs_.histogram("kernel.meter_batch_msgs");
  fobs_.forwarded = &obs_.counter("fanin.forwarded_records");
  fobs_.consumed = &obs_.counter("fanin.records_consumed");
  fobs_.lost = &obs_.counter("fanin.lost_records");
  fobs_.overflow_records = &obs_.counter("fanin.overflow_records");
  fobs_.overflow_bytes = &obs_.counter("fanin.overflow_bytes");
  fobs_.stranded = &obs_.counter("fanin.stranded_records");
  fobs_.malformed = &obs_.counter("fanin.malformed_records");
  fobs_.queue_bytes = &obs_.gauge("fanin.queue_bytes");
  machines_down_ = &obs_.gauge("kernel.machines_down");

  if (cfg_.prov_sample_period > 0) {
    obs::ProvenanceTracker::Config pc;
    pc.sample_period = cfg_.prov_sample_period;
    pc.seed = util::stream_seed(cfg_.seed, "obs.provenance");
    prov_ = std::make_unique<obs::ProvenanceTracker>(pc, &obs_);
  }
}

void World::set_service(const std::string& name,
                        std::shared_ptr<void> service) {
  if (!service) {
    services_.erase(name);
    return;
  }
  services_[name] = std::move(service);
}

std::shared_ptr<void> World::service(const std::string& name) const {
  auto it = services_.find(name);
  return it == services_.end() ? nullptr : it->second;
}

MeterStats World::meter_stats() const {
  return MeterStats{mobs_.events->value(),
                    mobs_.flushes->value(),
                    mobs_.bytes->value(),
                    mobs_.dropped_batches->value(),
                    mobs_.dropped_bytes->value(),
                    mobs_.malformed_records->value()};
}

void World::start_obs_snapshots(util::Duration period, std::string* sink) {
  const std::uint64_t gen = ++obs_timer_gen_;
  // Self-rescheduling event; a bumped generation (stop, or a restart)
  // orphans the pending tick.
  struct Timer {
    World* w;
    util::Duration period;
    std::string* sink;
    std::uint64_t gen;
    void operator()() const {
      if (w->obs_timer_gen_ != gen) return;
      w->obs_.snapshot_jsonl(*sink);
      w->exec_.schedule_after(period, *this);
    }
  };
  exec_.schedule_after(period, Timer{this, period, sink, gen});
}

World::~World() {
  // Armed fault events may still be queued; their hooks must not mutate a
  // world that is being dismantled (a teardown-time `restart` would boot
  // fresh daemons into it).
  tearing_down_ = true;
  // Abort every live task while the world is still intact so that process
  // finalization (meter flush, descriptor teardown) sees valid state.
  for (const auto& m : all_machines()) {
    for (auto& [pid, p] : m->procs) {
      if (p->status != ProcStatus::dead && p->task != sim::kNoTask &&
          !exec_.task_finished(p->task)) {
        exec_.abort_task(p->task);
      }
    }
  }
  exec_.run();
}

MachineId World::add_machine(const std::string& name,
                             std::vector<net::Interface> interfaces,
                             sim::MachineClock::Config clock) {
  const auto id = static_cast<MachineId>(machines_.size());
  auto m = std::make_unique<Machine>(id, static_cast<std::uint16_t>(id - 1),
                                     name, sim::MachineClock(clock), interfaces);
  const bool ok = hosts_.add_host(name, id, std::move(interfaces));
  assert(ok && "duplicate host name or address");
  (void)ok;
  machines_.push_back(std::move(m));
  return id;
}

MachineId World::add_machine(const std::string& name) {
  sim::MachineClock::Config clock;
  clock.offset = util::usec(rng_.uniform(-50000, 50000));
  clock.drift_ppm = static_cast<double>(rng_.uniform(-100, 100));
  clock.tick = util::usec(1000);
  return add_machine(name, {net::Interface{0, next_addr_++}}, clock);
}

void World::add_account(MachineId m, Uid uid) {
  machine(m).accounts.insert(uid);
}

void World::add_account_everywhere(Uid uid) {
  for (const auto& m : all_machines()) m->accounts.insert(uid);
}

Machine& World::machine(MachineId id) {
  assert(id < machines_.size() && machines_[id]);
  return *machines_[id];
}

const Machine& World::machine(MachineId id) const {
  assert(id < machines_.size() && machines_[id]);
  return *machines_[id];
}

Machine* World::machine_by_name(const std::string& name) {
  for (const auto& m : all_machines()) {
    if (m->name == name) return m.get();
  }
  return nullptr;
}

std::vector<MachineId> World::machines() const {
  std::vector<MachineId> out;
  out.reserve(machines_.size());
  for (const auto& m : all_machines()) out.push_back(m->id);
  return out;
}

util::SysResult<Pid> World::spawn(MachineId mid, const std::string& proc_name,
                                  Uid uid, ProcessMain main, SpawnOpts opts) {
  Machine& m = machine(mid);
  if (!m.up) return util::Err::eagain;  // crashed machine
  if (!m.accounts.count(uid) && uid != kSuperUser) return util::Err::eacces;

  const Pid pid = m.next_pid++;
  auto proc = std::make_shared<Process>(pid, mid, uid, proc_name,
                                        cfg_.max_descriptors);
  proc->parent = opts.parent;
  proc->stop_requested = opts.suspended;
  proc->initial_suspend = opts.suspended;

  auto install_stdio = [&](Fd fd, Descriptor d) {
    if (d.kind == Descriptor::Kind::socket) socket_ref(d.sock);
    proc->fds.install(fd, std::move(d));
  };
  install_stdio(0, opts.stdin_fd);
  install_stdio(1, opts.stdout_fd);
  install_stdio(2, opts.stderr_fd);

  m.procs[pid] = proc;

  auto args = opts.args;
  proc->task = exec_.spawn(
      proc_name, [this, proc, main = std::move(main), args]() mutable {
        Sys sys(*this, proc);
        sys.set_args(std::move(args));
        proc->status = ProcStatus::alive;
        int status = 0;
        bool was_killed = false;
        try {
          sys.stop_checkpoint();  // honors create-suspended (§3.5.1)
          main(sys);
        } catch (const ProcessExit& e) {
          status = e.status;
        } catch (const sim::TaskAborted&) {
          was_killed = true;
        }
        finalize_exit(proc, was_killed ? -1 : status, was_killed);
        if (was_killed) throw sim::TaskAborted{};  // let the task wrapper see it
      });
  return pid;
}

util::SysResult<Pid> World::spawn_file(MachineId mid, const std::string& path,
                                       Uid uid, std::vector<std::string> args,
                                       SpawnOpts opts) {
  Machine& m = machine(mid);
  auto file = m.fs.open_read(path, uid);
  if (!file) return file.error();
  if (!(*file)->program) return util::Err::eacces;  // not executable
  std::vector<std::string> argv;
  argv.push_back(path);
  for (auto& a : args) argv.push_back(a);
  auto main = programs_.instantiate(*(*file)->program, argv);
  if (!main) return util::Err::enoent;
  opts.args = std::move(argv);
  return spawn(mid, path, uid, std::move(*main), std::move(opts));
}

Process* World::find_process(MachineId mid, Pid pid) {
  if (mid >= machines_.size() || !machines_[mid]) return nullptr;
  auto& procs = machines_[mid]->procs;
  auto pit = procs.find(pid);
  if (pit == procs.end()) return nullptr;
  return pit->second.get();
}

util::SysResult<void> World::proc_stop(MachineId mid, Pid pid, Uid caller) {
  Process* p = find_process(mid, pid);
  if (!p || p->status == ProcStatus::dead) return util::Err::esrch;
  if (p->uid != caller && caller != kSuperUser) return util::Err::eperm;
  if (!p->stop_requested) {
    p->stop_requested = true;
    // Nudge the task so a blocked process reaches its stop checkpoint.
    exec_.make_runnable(p->task);
  }
  return {};
}

util::SysResult<void> World::proc_continue(MachineId mid, Pid pid, Uid caller) {
  Process* p = find_process(mid, pid);
  if (!p || p->status == ProcStatus::dead) return util::Err::esrch;
  if (p->uid != caller && caller != kSuperUser) return util::Err::eperm;
  p->stop_requested = false;
  p->stop_gate.wake_all(exec_);
  return {};
}

util::SysResult<void> World::proc_kill(MachineId mid, Pid pid, Uid caller) {
  Process* p = find_process(mid, pid);
  if (!p) return util::Err::esrch;
  if (p->uid != caller && caller != kSuperUser) return util::Err::eperm;
  if (p->status == ProcStatus::dead) return {};
  p->stop_requested = false;  // a stopped process must unwind, not sleep
  exec_.abort_task(p->task);
  return {};
}

void World::install_faults(const net::FaultPlan& plan) {
  if (plan.empty()) return;
  net::FaultHooks hooks;
  hooks.machine_id = [this](const std::string& name) {
    return hosts_.machine_of(name);
  };
  hooks.crash_machine = [this](const std::string& name) {
    if (tearing_down_) return;
    if (auto id = hosts_.machine_of(name)) crash_machine(*id);
  };
  hooks.restart_machine = [this](const std::string& name) {
    if (tearing_down_) return;
    if (auto id = hosts_.machine_of(name)) restart_machine(*id);
  };
  hooks.kill_process = [this](const std::string& name, std::int32_t pid) {
    if (tearing_down_) return;
    if (auto id = hosts_.machine_of(name)) (void)proc_kill(*id, pid, kSuperUser);
  };
  hooks.reset_streams = [this](const std::string& a, const std::string& b) {
    if (tearing_down_) return;
    auto ma = hosts_.machine_of(a), mb = hosts_.machine_of(b);
    if (ma && mb) (void)reset_streams_between(*ma, *mb);
  };
  injector_ = std::make_unique<net::FaultInjector>(exec_, fabric_, plan,
                                                   std::move(hooks), &obs_);
  injector_->arm();
}

void World::crash_machine(MachineId id) {
  Machine& m = machine(id);
  if (!m.up) return;
  m.up = false;
  machines_down_->add(1);
  // Kill every live process. The abort unwinds through finalize_exit, so
  // each one flushes its pending meter batch on the way out — the fabric
  // carries whatever it still can. Descriptor teardown releases every
  // socket (and with them the machine's port bindings).
  for (auto& [pid, p] : m.procs) {
    if (p->status != ProcStatus::dead && p->task != sim::kNoTask &&
        !exec_.task_finished(p->task)) {
      p->stop_requested = false;
      exec_.abort_task(p->task);
    }
  }
}

void World::restart_machine(MachineId id) {
  Machine& m = machine(id);
  if (m.up) return;
  m.up = true;
  machines_down_->sub(1);
  for (auto& [mid, fn] : boot_programs_) {
    if (mid == id) fn(*this);
  }
}

void World::add_boot_program(MachineId m, std::function<void(World&)> fn) {
  boot_programs_.emplace_back(m, std::move(fn));
}

std::size_t World::reset_streams_between(MachineId a, MachineId b) {
  // Collected in id order, so the EOF events are scheduled
  // deterministically.
  std::vector<std::pair<SocketId, SocketId>> conns;
  for (auto& sp : sockets_) {
    if (!sp) continue;
    Socket& s = *sp;
    if (s.sstate != Socket::StreamState::connected || s.peer == 0) continue;
    if (s.id > s.peer) continue;  // handle each connection once
    Socket* peer = find_socket(s.peer);
    if (!peer) continue;
    const bool spans = (s.machine == a && peer->machine == b) ||
                       (s.machine == b && peer->machine == a);
    if (spans) conns.emplace_back(s.id, s.peer);
  }
  for (auto [x, y] : conns) {
    // Close both endpoints: each side sees EOF after any data already in
    // flight; meter connections degrade at their next flush.
    if (Socket* sy = find_socket(y)) close_stream(*sy);
    if (Socket* sx = find_socket(x)) close_stream(*sx);
  }
  return conns.size();
}

void World::finalize_exit(std::shared_ptr<Process> p, int status,
                          bool was_killed) {
  if (p->status == ProcStatus::dead) return;

  // §3.2: "As part of process termination, any unsent messages are
  // forwarded to the filter." The termproc event itself is recorded first.
  meter_emit(*this, *p,
             MeterEventDraft{meter::M_TERMPROC,
                             meter::MeterTermProc{p->pid, p->pc,
                                                  was_killed ? -1 : status}});
  meter_flush(*this, *p);
  if (p->meter_sock != 0) {
    socket_unref(p->meter_sock);
    p->meter_sock = 0;
  }

  // Close every descriptor (socket refs drop; peers see EOF).
  for (auto& [fd, d] : p->fds.entries()) {
    auto released = p->fds.release(fd);
    if (released) release_descriptor(*released);
  }

  p->status = ProcStatus::dead;
  p->exit_status = status;
  p->killed = was_killed;

  Machine& m = machine(p->machine);
  if (p->parent != 0) {
    push_child_change(m, p->parent,
                      ChildChange{p->pid,
                                  was_killed ? ChildEvent::killed
                                             : ChildEvent::exited,
                                  status});
  }
  for (auto& fn : exit_listeners_) fn(p->machine, p->pid, status, was_killed);
}

void World::push_child_change(Machine& m, Pid parent, ChildChange change) {
  auto it = m.procs.find(parent);
  if (it == m.procs.end() || it->second->status == ProcStatus::dead) return;
  it->second->child_changes.push_back(change);
  it->second->child_wait.wake_all(exec_);
}

void World::release_descriptor(Descriptor& d) {
  if (d.kind == Descriptor::Kind::socket) {
    socket_unref(d.sock);
  }
  // Files and pipes are shared_ptr-managed; dropping the descriptor is
  // enough.
  d = Descriptor::null_dev();
}

std::size_t World::live_processes() const {
  std::size_t n = 0;
  for (const auto& m : all_machines()) {
    for (const auto& [pid, p] : m->procs) {
      if (p->status == ProcStatus::alive) ++n;
    }
  }
  return n;
}

std::int64_t World::clock_skew_bound_us() const {
  const std::int64_t horizon = util::count_us(exec_.now());
  std::int64_t worst = 0, second = 0;
  for (const auto& m : all_machines()) {
    const std::int64_t err = m->clock.error_bound_us(horizon);
    if (err >= worst) {
      second = worst;
      worst = err;
    } else if (err > second) {
      second = err;
    }
  }
  return worst + second;
}

namespace {

using sim::replay::Digest;

void mix_bytes(Digest& d, const std::uint8_t* data, std::size_t n) {
  d.mix(std::string_view(reinterpret_cast<const char*>(data), n));
}

void mix_bytes(Digest& d, const util::Bytes& b) {
  mix_bytes(d, b.data(), b.size());
}

void mix_addr(Digest& d, const net::SockAddr& a) {
  d.mix(static_cast<std::uint64_t>(a.family));
  d.mix(static_cast<std::uint64_t>(a.network));
  d.mix(static_cast<std::uint64_t>(a.host));
  d.mix(static_cast<std::uint64_t>(a.port));
  d.mix(a.path);
}

void mix_wait(Digest& d, const WaitChannel& w) {
  d.mix(static_cast<std::uint64_t>(w.waiters.size()));
  for (sim::TaskId id : w.waiters) d.mix(id);
}

void mix_clock(Digest& d, const sim::MachineClock& c) {
  // Config only: the read memo is a cache of a pure function of true time
  // and must not make two behaviorally identical clocks digest apart.
  d.mix_signed(util::count_us(c.config().offset));
  d.mix_double(c.config().drift_ppm);
  d.mix_signed(util::count_us(c.config().tick));
}

void mix_process(Digest& d, const Process& p) {
  d.mix(static_cast<std::uint64_t>(p.pid));
  d.mix(static_cast<std::uint64_t>(p.uid));
  d.mix(static_cast<std::uint64_t>(p.euid));
  d.mix(p.name);
  d.mix(static_cast<std::uint64_t>(p.parent));
  d.mix(p.task);
  d.mix(static_cast<std::uint64_t>(p.status));
  d.mix(static_cast<std::uint64_t>(p.fds.in_use()));
  for (const auto& [fd, desc] : p.fds.entries()) {
    d.mix(static_cast<std::uint64_t>(fd));
    d.mix(static_cast<std::uint64_t>(desc.kind));
    d.mix(desc.sock);
    if (desc.file) {
      d.mix(desc.file->path);
      d.mix(static_cast<std::uint64_t>(desc.file->offset));
    }
    if (desc.pipe) {
      d.mix(static_cast<std::uint64_t>(desc.pipe->buf.size()));
      d.mix(static_cast<std::uint64_t>(desc.pipe->closed ? 1 : 0));
    }
  }
  d.mix(p.meter_sock);
  d.mix(static_cast<std::uint64_t>(p.meter_flags));
  mix_bytes(d, p.meter_pending);
  d.mix(static_cast<std::uint64_t>(p.meter_pending_count));
  d.mix(static_cast<std::uint64_t>(p.prov_emit_us.size()));
  for (std::int64_t t : p.prov_emit_us) d.mix_signed(t);
  d.mix(static_cast<std::uint64_t>(
      (p.meter_degraded ? 1u : 0u) | (p.stop_requested ? 2u : 0u) |
      (p.in_stop ? 4u : 0u) | (p.initial_suspend ? 8u : 0u) |
      (p.killed ? 16u : 0u)));
  d.mix_signed(util::count_us(p.cpu_used));
  mix_wait(d, p.stop_gate);
  d.mix(static_cast<std::uint64_t>(p.exit_status));
  d.mix(static_cast<std::uint64_t>(p.child_changes.size()));
  for (const ChildChange& c : p.child_changes) {
    d.mix(static_cast<std::uint64_t>(c.pid));
    d.mix(static_cast<std::uint64_t>(c.event));
    d.mix(static_cast<std::uint64_t>(c.status));
  }
  mix_wait(d, p.child_wait);
  d.mix(static_cast<std::uint64_t>(p.pc));
}

void mix_socket(Digest& d, const Socket& s) {
  d.mix(s.id);
  d.mix(static_cast<std::uint64_t>(s.machine));
  d.mix(static_cast<std::uint64_t>(s.domain));
  d.mix(static_cast<std::uint64_t>(s.type));
  d.mix(static_cast<std::uint64_t>(s.refs));
  mix_addr(d, s.name);
  d.mix(static_cast<std::uint64_t>(s.bound ? 1 : 0));
  d.mix(static_cast<std::uint64_t>(s.sstate));
  d.mix(s.peer);
  mix_addr(d, s.peer_name);
  d.mix(static_cast<std::uint64_t>(s.rbuf.size()));
  for (std::uint8_t b : s.rbuf) d.mix(static_cast<std::uint64_t>(b));
  d.mix(static_cast<std::uint64_t>(s.in_flight));
  d.mix(static_cast<std::uint64_t>((s.eof ? 1u : 0u) |
                                   (s.is_meter_conn ? 2u : 0u)));
  d.mix(static_cast<std::uint64_t>(s.backlog));
  d.mix(static_cast<std::uint64_t>(s.accept_queue.size()));
  for (SocketId q : s.accept_queue) d.mix(q);
  d.mix(static_cast<std::uint64_t>(
      s.connect_result ? 1 + static_cast<int>(*s.connect_result) : 0));
  d.mix(s.tx_channel);
  d.mix(static_cast<std::uint64_t>(s.net_hint));
  d.mix(static_cast<std::uint64_t>(s.dgrams.size()));
  for (const Datagram& g : s.dgrams) {
    mix_addr(d, g.source);
    mix_bytes(d, g.data);
  }
  mix_addr(d, s.default_dest);
  mix_wait(d, s.readers);
  mix_wait(d, s.writers);
  mix_wait(d, s.connectors);
  d.mix(static_cast<std::uint64_t>(s.meter_tier));
  d.mix(static_cast<std::uint64_t>(s.frame_need));
  mix_bytes(d, s.frame_hdr, s.frame_hdr_have);
}

}  // namespace

sim::replay::Snapshot World::checkpoint() const {
  sim::replay::Snapshot snap;
  snap.at = exec_.now();
  auto add = [&snap](std::string name, const Digest& d) {
    snap.components.push_back({std::move(name), d.value()});
  };

  {
    Digest d;
    d.mix_time(exec_.now());
    add("sim.time", d);
  }
  {
    Digest d;
    exec_.digest_tasks(d);
    add("sim.executive", d);
  }
  {
    Digest d;
    exec_.digest_events(d);
    add("sim.events", d);
  }
  {
    Digest d;
    for (const auto& m : all_machines()) {
      d.mix(static_cast<std::uint64_t>(m->id));
      mix_clock(d, m->clock);
    }
    add("sim.clocks", d);
  }
  {
    Digest d;
    for (const auto& m : all_machines()) {
      d.mix(static_cast<std::uint64_t>(m->id));
      d.mix(static_cast<std::uint64_t>(m->index));
      d.mix(m->name);
      d.mix(static_cast<std::uint64_t>(m->up ? 1 : 0));
      d.mix(static_cast<std::uint64_t>(m->interfaces.size()));
      for (const auto& itf : m->interfaces) {
        d.mix(static_cast<std::uint64_t>(itf.network));
        d.mix(static_cast<std::uint64_t>(itf.addr));
      }
      d.mix(static_cast<std::uint64_t>(m->inet_bound.size()));
      for (const auto& [port, sid] : m->inet_bound) {
        d.mix(static_cast<std::uint64_t>(port));
        d.mix(sid);
      }
      d.mix(static_cast<std::uint64_t>(m->unix_bound.size()));
      for (const auto& [path, sid] : m->unix_bound) {
        d.mix(path);
        d.mix(sid);
      }
      d.mix(static_cast<std::uint64_t>(m->next_port));
      d.mix(static_cast<std::uint64_t>(m->next_pid));
      d.mix_time(m->cpu_free_at);
      d.mix(static_cast<std::uint64_t>(m->accounts.size()));
      for (Uid u : m->accounts) d.mix(static_cast<std::uint64_t>(u));
      d.mix(static_cast<std::uint64_t>(m->procs.size()));
      for (const auto& [pid, p] : m->procs) mix_process(d, *p);
    }
    add("kernel.machines", d);
  }
  {
    Digest d;
    d.mix(static_cast<std::uint64_t>(sockets_.size()));  // the next socket id
    d.mix(next_internal_name_);
    for (const auto& s : sockets_) {
      if (s) mix_socket(d, *s);
    }
    add("kernel.sockets", d);
  }
  {
    Digest d;
    const MeterConservation mc = meter_conservation();
    d.mix(mc.emitted);
    d.mix(mc.consumed);
    d.mix(mc.dropped);
    d.mix(mc.lost);
    d.mix(mc.stranded);
    d.mix(mc.malformed);
    d.mix(mc.pending);
    d.mix(mc.buffered);
    add("kernel.meter", d);
  }
  {
    Digest d;
    const FanInConservation fc = fanin_conservation();
    d.mix(fc.forwarded);
    d.mix(fc.consumed);
    d.mix(fc.lost);
    d.mix(fc.overflow);
    d.mix(fc.stranded);
    d.mix(fc.malformed);
    d.mix(fc.buffered);
    add("kernel.fanin", d);
  }
  {
    Digest d;
    fabric_.digest_into(d);
    add("net.fabric", d);
  }
  {
    Digest d;
    if (injector_) {
      d.mix(std::uint64_t{1});
      d.mix(static_cast<std::uint64_t>(injector_->injected()));
      d.mix(static_cast<std::uint64_t>(injector_->armed() ? 1 : 0));
      d.mix(injector_->plan().to_string());
    } else {
      d.mix(std::uint64_t{0});
    }
    add("net.faults", d);
  }
  {
    Digest d;
    d.mix(rng_.state_hash());
    add("kernel.rng", d);
  }
  {
    Digest d;
    for (const auto& m : all_machines()) {
      d.mix(static_cast<std::uint64_t>(m->id));
      for (const auto& [path, f] : m->fs.files()) {
        d.mix(path);
        // The same hash as mixing the whole file as one string: its bytes
        // in order, then its length.
        f.content.for_each_block([&d](std::string_view b) { d.mix_piece(b); });
        d.mix(static_cast<std::uint64_t>(f.content.size()));
        d.mix(static_cast<std::uint64_t>(f.owner));
        d.mix(static_cast<std::uint64_t>(f.world_readable ? 1 : 0));
        d.mix(static_cast<std::uint64_t>(f.program ? 1 : 0));
        if (f.program) d.mix(*f.program);
      }
    }
    add("files", d);
  }
  // obs.* components last, and separated: the instrument set depends on
  // which observers are enabled (provenance tracing adds stage.* and
  // prov.* instruments), so replay equivalence checks that must tolerate
  // observer toggles compare only the structural components above.
  {
    Digest d;
    for (const auto& [key, c] : obs_.counters()) {
      d.mix(key);
      d.mix(c.value());
    }
    add("obs.counters", d);
  }
  {
    Digest d;
    for (const auto& [key, g] : obs_.gauges()) {
      d.mix(key);
      d.mix_signed(g.value());
      d.mix_signed(g.high_water());
    }
    add("obs.gauges", d);
  }
  {
    Digest d;
    for (const auto& [key, h] : obs_.histograms()) {
      d.mix(key);
      d.mix(h.count());
      d.mix_signed(h.sum());
      d.mix_signed(h.min());
      d.mix_signed(h.max());
      for (int i = 0; i < obs::Histogram::kBuckets; ++i) d.mix(h.buckets()[i]);
    }
    add("obs.histograms", d);
  }
  return snap;
}

std::vector<std::string> World::restore(
    const sim::replay::Snapshot& expected) const {
  return sim::replay::Snapshot::diff(expected, checkpoint());
}

util::SysResult<std::size_t> World::copy_file(MachineId src_m,
                                              const std::string& src,
                                              MachineId dst_m,
                                              const std::string& dst, Uid uid) {
  Machine& sm = machine(src_m);
  auto file = sm.fs.open_read(src, uid);
  if (!file) return file.error();
  const FileData& f = **file;
  Machine& dm = machine(dst_m);
  if (!dm.accounts.count(uid) && uid != kSuperUser) return util::Err::eacces;
  auto out = dm.fs.open_write(dst, uid, /*truncate=*/true);
  if (!out) return out.error();
  (*out)->content = f.content;  // shares the blocks until either side writes
  (*out)->program = f.program;  // executables stay executable when copied
  return f.content.size();
}

}  // namespace dpm::kernel
