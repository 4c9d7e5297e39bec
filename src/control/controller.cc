#include "control/controller.h"

#include <algorithm>

#include "analysis/predicates/service.h"
#include "control/replay.h"
#include "daemon/protocol.h"
#include "daemon/rpc_pipeline.h"
#include "filter/trace.h"
#include "obs/provenance.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/strings.h"

namespace dpm::control {

namespace {

using daemon::AcquireRequest;
using daemon::BatchCreateReply;
using daemon::BatchCreateRequest;
using daemon::BatchProcReply;
using daemon::BatchProcRequest;
using daemon::CreateReply;
using daemon::CreateRequest;
using daemon::DaemonMsg;
using daemon::FilterReply;
using daemon::FilterRequest;
using daemon::IoNote;
using daemon::MsgType;
using daemon::ProcRequest;
using daemon::SetFlagsRequest;
using daemon::SimpleReply;
using daemon::StateNote;
using kernel::Fd;
using kernel::Sys;
using util::Err;

std::string basename_of(const std::string& path) {
  auto pos = path.rfind('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

/// Extracts the status of a daemon reply regardless of its exact type.
std::int32_t reply_status(const DaemonMsg& m) {
  if (const auto* s = std::get_if<SimpleReply>(&m)) return s->status;
  if (const auto* c = std::get_if<CreateReply>(&m)) return c->status;
  if (const auto* f = std::get_if<FilterReply>(&m)) return f->status;
  return static_cast<std::int32_t>(Err::einval);
}

std::string err_text(std::int32_t status) {
  return std::string(util::err_message(static_cast<Err>(status)));
}

}  // namespace

Controller::Controller(Sys& sys) : sys_(sys) {}

std::uint64_t Controller::next_nonce() {
  return (static_cast<std::uint64_t>(sys_.getpid()) << 32) | ++nonce_seq_;
}

void Controller::note_rpc_failure(const std::string& machine, Err e) {
  if (e == Err::etimedout || e == Err::econnrefused || e == Err::econnreset ||
      e == Err::epipe) {
    MachineHealth& h = machine_health_[machine];
    if (!h.down) {
      h.down = true;
      h.reason = std::string(util::err_name(e));
      emit(util::strprintf("machine '%s' marked down: %s\n", machine.c_str(),
                           h.reason.c_str()));
    }
  }
}

std::vector<util::SysResult<DaemonMsg>> Controller::multi_rpc(
    std::vector<MultiCall>& calls) {
  std::vector<util::SysResult<DaemonMsg>> out(
      calls.size(), util::SysResult<DaemonMsg>{Err::etimedout});
  // Everything not already marked down goes in flight at once: no point
  // burning a full deadline+retry budget against a machine known down
  // (`reconcile` re-probes it).
  std::vector<daemon::PipelinedCall> pipe;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    auto hit = machine_health_.find(calls[i].machine);
    if (hit != machine_health_.end() && hit->second.down) continue;
    daemon::PipelinedCall c;
    c.to = calls[i].addr;
    c.request = std::move(calls[i].req);
    c.opts = calls[i].opts;
    pipe.push_back(std::move(c));
    index.push_back(i);
  }
  daemon::run_pipeline(sys_, pipe);
  for (std::size_t j = 0; j < pipe.size(); ++j) {
    if (!pipe[j].reply) {
      note_rpc_failure(calls[index[j]].machine, pipe[j].reply.error());
    }
    out[index[j]] = std::move(pipe[j].reply);
  }
  return out;
}

util::SysResult<DaemonMsg> Controller::daemon_rpc(const std::string& machine,
                                                  const net::SockAddr& addr,
                                                  const DaemonMsg& req) {
  std::vector<MultiCall> one(1);
  one[0].machine = machine;
  one[0].addr = addr;
  one[0].req = req;
  return std::move(multi_rpc(one)[0]);
}

std::pair<std::string, net::Port> Controller::meter_target(
    const FilterRec& filt, const std::string& machine) {
  auto it = filt.locals.find(machine);
  if (it != filt.locals.end()) return {machine, it->second.meter_port};
  return {filt.machine, filt.meter_port};
}

std::vector<std::int32_t> Controller::batch_proc_op(
    const std::vector<ProcOp>& ops) {
  std::vector<std::int32_t> statuses(
      ops.size(), static_cast<std::int32_t>(Err::etimedout));
  std::map<std::pair<std::string, MsgType>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    groups[{ops[i].proc->machine, ops[i].what}].push_back(i);
  }
  std::vector<MultiCall> calls;
  std::vector<std::vector<std::size_t>> order;
  for (auto& [key, idx] : groups) {
    const auto& [m, what] = key;
    auto addr = daemon_addr(m);
    if (!addr) continue;
    BatchProcRequest req;
    req.what = what;
    req.uid = sys_.getuid();
    req.nonce = next_nonce();
    for (std::size_t i : idx) req.pids.push_back(ops[i].proc->pid);
    MultiCall c;
    c.machine = m;
    c.addr = *addr;
    c.req = std::move(req);
    c.opts.deadline = util::msec(250 + 2 * static_cast<long long>(idx.size()));
    calls.push_back(std::move(c));
    order.push_back(idx);
  }
  auto replies = multi_rpc(calls);
  for (std::size_t j = 0; j < replies.size(); ++j) {
    const auto* br =
        replies[j] ? std::get_if<BatchProcReply>(&*replies[j]) : nullptr;
    for (std::size_t k = 0; k < order[j].size(); ++k) {
      if (br && k < br->statuses.size()) {
        statuses[order[j][k]] = br->statuses[k];
      } else if (!replies[j]) {
        statuses[order[j][k]] = static_cast<std::int32_t>(replies[j].error());
      }
    }
  }
  return statuses;
}

std::vector<std::optional<std::int32_t>> Controller::job_op(Job& job,
                                                            MsgType what,
                                                            ProcState to) {
  std::vector<ProcOp> ops;
  std::vector<std::size_t> at;  // job.procs index of each op
  for (std::size_t i = 0; i < job.procs.size(); ++i) {
    if (!can_transition(job.procs[i].state, to)) continue;
    ops.push_back(ProcOp{&job.procs[i], what});
    at.push_back(i);
  }
  const auto statuses = batch_proc_op(ops);
  std::vector<std::optional<std::int32_t>> out(job.procs.size());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    out[at[k]] = statuses[k];
    if (statuses[k] == 0) ops[k].proc->state = to;
  }
  return out;
}

void Controller::take_down(const std::vector<ProcEntry*>& procs) {
  std::vector<ProcOp> ops;
  bool kills = false;
  for (ProcEntry* p : procs) {
    if (p->state == ProcState::stopped) {
      ops.push_back(ProcOp{p, MsgType::kill_request});
      kills = true;
    } else if (p->state == ProcState::acquired) {
      // "the control program insures that the filter connection of that
      // process is taken down ... but the process continues to execute."
      ops.push_back(ProcOp{p, MsgType::release_request});
    }
  }
  if (ops.empty()) return;
  obs::Registry& reg = sys_.world().obs();
  std::optional<obs::ObsSpan> span;
  if (kills) {
    span.emplace(reg, "control.kill", &reg.histogram("control.kill_rtt_us"));
  }
  (void)batch_proc_op(ops);
  for (const ProcOp& op : ops) {
    if (op.what == MsgType::kill_request) op.proc->state = ProcState::killed;
  }
}

void Controller::emit(const std::string& text) {
  if (text.empty()) return;
  if (sink_fd_ >= 0) {
    (void)sys_.write(sink_fd_, text);
  } else {
    (void)sys_.print(text);
  }
}

void Controller::prompt() { emit("<Control> "); }

std::optional<net::SockAddr> Controller::daemon_addr(
    const std::string& machine) {
  return sys_.resolve(machine, daemon::kDaemonPort);
}

bool Controller::stage_file(const std::string& machine,
                            const std::string& path) {
  if (machine == sys_.hostname()) return true;
  // §3.5.3: no remote file system in 4.2BSD — copy the file with rcp. If
  // the file is not present locally we proceed: it may already exist on
  // the remote machine (the daemon reports an error if not).
  auto probe = sys_.open(path, Sys::OpenMode::read);
  if (!probe) return true;
  (void)sys_.close(*probe);
  auto r = sys_.rcp(sys_.hostname(), path, machine, path);
  if (!r && r.error() != Err::eacces) {
    // eacces means a copy of the file is already installed there under
    // another account (the standard files are); anything else is a real
    // staging failure worth reporting — but the daemon still gets to try.
    emit(util::strprintf("warning: cannot copy '%s' to '%s': %s\n",
                         path.c_str(), machine.c_str(),
                         err_text(static_cast<std::int32_t>(r.error())).c_str()));
  }
  return true;
}

void Controller::run() {
  // The notification socket: daemons connect here to report state changes
  // (§3.5.1's inverted exchange).
  auto ns = sys_.socket(kernel::SockDomain::internet, kernel::SockType::stream);
  if (!ns || !sys_.bind_port(*ns, 0) || !sys_.listen(*ns, 64)) {
    (void)sys_.print("controller: cannot create notification socket\n");
    sys_.exit(1);
  }
  notif_sock_ = *ns;
  auto bound = sys_.getsockname(*ns);
  control_port_ = bound ? bound->port : 0;

  for (;;) {
    prompt_pending_ = true;
    auto line = next_command_line();
    if (!line) {
      // stdin EOF behaves like an unconditional die (^D, §4.3).
      remove_filters();
      break;
    }
    if (!execute(*line)) break;
  }
  sys_.exit(0);
}

std::optional<std::string> Controller::next_command_line() {
  for (;;) {
    // Script input (source) takes precedence; notifications are polled
    // between script commands.
    if (!source_stack_.empty()) {
      poll_notifications(/*block_until_input=*/false);
      auto& top = source_stack_.back();
      if (top.empty()) {
        source_stack_.pop_back();
        continue;
      }
      std::string line = std::move(top.front());
      top.pop_front();
      if (prompt_pending_) {
        prompt();
        prompt_pending_ = false;
      }
      emit(line + "\n");  // echo script commands into the transcript
      return line;
    }

    if (prompt_pending_) {
      prompt();
      prompt_pending_ = false;
    }
    poll_notifications(/*block_until_input=*/true);
    auto line = sys_.read_line();
    if (!line) return std::nullopt;  // error: treat as EOF
    if (!line->has_value()) return std::nullopt;
    return **line;
  }
}

void Controller::poll_notifications(bool block_until_input) {
  for (;;) {
    std::optional<util::Duration> timeout;
    if (!block_until_input) timeout = util::Duration{0};
    auto sel = sys_.select({0, notif_sock_}, /*child_events=*/false, timeout);
    if (!sel) return;
    bool input_ready = false;
    bool note_ready = false;
    for (Fd fd : sel->readable) {
      if (fd == 0) input_ready = true;
      if (fd == notif_sock_) note_ready = true;
    }
    if (note_ready) {
      auto conn = sys_.accept(notif_sock_);
      if (conn) {
        handle_notification(*conn);
        (void)sys_.close(*conn);
      }
    }
    if (input_ready) return;
    if (!block_until_input && !note_ready) return;
  }
}

void Controller::handle_notification(Fd conn) {
  // Bounded read: a daemon that died after connecting (crash mid-note)
  // must not park the controller's command loop forever.
  auto msg = daemon::recv_msg(sys_, conn, util::msec(500));
  if (!msg) return;

  if (const auto* note = std::get_if<StateNote>(&*msg)) {
    const auto event = static_cast<kernel::ChildEvent>(note->event);
    // Is it a process of some job?
    for (auto& [jname, job] : jobs_) {
      ProcEntry* p = job.find_pid(note->machine, note->pid);
      if (!p) continue;
      switch (event) {
        case kernel::ChildEvent::exited:
        case kernel::ChildEvent::killed:
          if (p->state != ProcState::killed) {
            p->state = ProcState::killed;
            emit(util::strprintf(
                "DONE: process %s in job '%s' terminated: reason: %s\n",
                p->name.c_str(), jname.c_str(),
                event == kernel::ChildEvent::exited ? "normal" : "killed"));
          }
          break;
        case kernel::ChildEvent::stopped:
          if (p->state == ProcState::running) p->state = ProcState::stopped;
          break;
        case kernel::ChildEvent::continued:
          if (p->state == ProcState::stopped) p->state = ProcState::running;
          break;
        case kernel::ChildEvent::meter_lost:
          // The process runs on, unmetered: its meter connection died and
          // the kernel flipped it to accounted drop mode.
          if (p->note.empty()) {
            p->note = "[meter lost]";
            emit(util::strprintf(
                "WARNING: process %s in job '%s' lost its meter connection; "
                "its events are being dropped (counted)\n",
                p->name.c_str(), jname.c_str()));
          }
          break;
      }
      return;
    }
    // A filter?
    for (auto it = filters_.begin(); it != filters_.end(); ++it) {
      if (it->second.machine == note->machine && it->second.pid == note->pid) {
        if (event == kernel::ChildEvent::exited ||
            event == kernel::ChildEvent::killed) {
          // (meter_lost never applies: filters consume meter conns,
          // they do not own one.)
          emit(util::strprintf("filter '%s' terminated\n",
                               it->first.c_str()));
          if (default_filter_ == it->first) default_filter_.clear();
          filters_.erase(it);
        }
        return;
      }
    }
    return;
  }

  if (const auto* io = std::get_if<IoNote>(&*msg)) {
    for (auto& [jname, job] : jobs_) {
      ProcEntry* p = job.find_pid(io->machine, io->pid);
      if (p) {
        emit(util::strprintf("[%s] %s", p->name.c_str(), io->data.c_str()));
        if (!io->data.empty() && io->data.back() != '\n') emit("\n");
        return;
      }
    }
  }
}

bool Controller::execute(const std::string& raw_line) {
  const std::string line{util::trim(raw_line)};
  if (line.empty() || line[0] == '#') return true;
  auto tokens = util::split(line, " \t");
  const std::string cmd = util::to_lower(tokens[0]);
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());

  // `predicate` takes a raw spec tail whose characters (@ = * < > ! , &)
  // the word validator rejects, so it dispatches before validation.
  if (cmd == "predicate") {
    warned_die_ = false;
    sys_.world().obs().counter("control.commands").add(1);
    cmd_predicate(std::string(util::trim(line.substr(tokens[0].size()))));
    return true;
  }
  // `replay whatif` takes a fault-plan DSL tail (@ = chars), so it too
  // dispatches before validation.
  if (cmd == "replay") {
    warned_die_ = false;
    sys_.world().obs().counter("control.commands").add(1);
    cmd_replay(std::string(util::trim(line.substr(tokens[0].size()))));
    return true;
  }

  for (const auto& a : args) {
    if (!util::is_word(a)) {
      emit(util::strprintf("bad parameter '%s'\n", a.c_str()));
      return true;
    }
  }

  if (cmd != "die" && cmd != "exit" && cmd != "bye") warned_die_ = false;

  sys_.world().obs().counter("control.commands").add(1);

  if (cmd == "help") {
    cmd_help();
  } else if (cmd == "filter") {
    cmd_filter(args);
  } else if (cmd == "fanin") {
    cmd_fanin(args);
  } else if (cmd == "newjob") {
    cmd_newjob(args);
  } else if (cmd == "addprocess" || cmd == "add") {
    cmd_addprocess(args);
  } else if (cmd == "addgroup") {
    cmd_addgroup(args);
  } else if (cmd == "acquire") {
    cmd_acquire(args);
  } else if (cmd == "setflags") {
    cmd_setflags(args);
  } else if (cmd == "startjob") {
    cmd_startjob(args);
  } else if (cmd == "stopjob") {
    cmd_stopjob(args);
  } else if (cmd == "removejob" || cmd == "rmjob") {
    cmd_removejob(args);
  } else if (cmd == "removeprocess" || cmd == "rmprocess") {
    cmd_removeprocess(args);
  } else if (cmd == "jobs") {
    cmd_jobs(args);
  } else if (cmd == "reconcile") {
    cmd_reconcile(args);
  } else if (cmd == "lag") {
    cmd_lag(args);
  } else if (cmd == "getlog") {
    cmd_getlog(args);
  } else if (cmd == "source") {
    cmd_source(args);
  } else if (cmd == "sink") {
    cmd_sink(args);
  } else if (cmd == "die" || cmd == "exit" || cmd == "bye") {
    return cmd_die();
  } else {
    emit(util::strprintf("unknown command '%s' (try help)\n", cmd.c_str()));
  }
  return true;
}

void Controller::cmd_help() {
  emit(
      "commands:\n"
      "  help\n"
      "  filter [<filtername> [<machine> [<filterfile> [<descriptions> [<templates>]]]]]\n"
      "  fanin <filtername> <arity> <machineprefix> <first> <last>\n"
      "  newjob <jobname> [<filtername>]\n"
      "  addprocess <jobname> <machine> <processfile> [<parm1 parm2 ...>]\n"
      "  addgroup <jobname> <machineprefix> <first> <last> <permachine> <processfile> [<parms>]\n"
      "  acquire <jobname> <machine> <process identifier>\n"
      "  setflags <jobname> <flag1 flag2 ...>\n"
      "  startjob <jobname>\n"
      "  stopjob <jobname>\n"
      "  removejob <jobname>\n"
      "  removeprocess <jobname> <processname>\n"
      "  jobs [<jobname1 jobname2 ...>]\n"
      "  reconcile\n"
      "  lag [<bound_us>]   (per-stage record latency; flags p99 > bound)\n"
      "  predicate add <name>: <spec>   (online possibly/definitely detection)\n"
      "  predicate list | verdicts [<name>] | stats\n"
      "  replay status                  (this run's recording, checkpoint cut)\n"
      "  replay check                   (rebuild to the cut; verify bit-identity)\n"
      "  replay until lamport|records <n>   (re-drive a copy to a stop point)\n"
      "  replay whatif <faultplan-dsl | none>   (same run, edited faults)\n"
      "  getlog <filtername> <destination filename>\n"
      "  source <filename>\n"
      "  sink [<filename>]\n"
      "  die (aliases: exit, bye, ^D)\n"
      "metering flags: fork termproc send receivecall receive socket dup\n"
      "  destsocket accept connect all immediate (prefix '-' resets)\n");
}

void Controller::cmd_predicate(const std::string& rest) {
  auto svc = analysis::pred::predicate_service(sys_.world());
  if (!svc) {
    emit("no predicate service installed on this world\n");
    return;
  }
  auto& det = svc->detector;

  std::string sub{rest};
  std::string tail;
  if (const auto sp = rest.find_first_of(" \t"); sp != std::string::npos) {
    sub = rest.substr(0, sp);
    tail = std::string{util::trim(rest.substr(sp))};
  }
  sub = util::to_lower(sub);

  if (sub == "add") {
    if (tail.empty()) {
      emit("usage: predicate add <name>: <spec>\n");
      return;
    }
    std::string err;
    if (!det.add_predicate(tail, &err)) {
      emit(util::strprintf("predicate error: %s\n", err.c_str()));
      return;
    }
    emit(util::strprintf("predicate added (epsilon=%lldus)\n",
                         static_cast<long long>(det.config().epsilon_us)));
  } else if (sub == "list" || sub.empty()) {
    const auto st = det.status();
    if (st.empty()) {
      emit("no predicates\n");
      return;
    }
    static const char* kStrength[] = {"never", "possibly", "definitely"};
    for (const auto& p : st) {
      emit(util::strprintf(
          "%s: insts=%zu possibly=%llu definitely=%llu strongest=%s\n  %s\n",
          p.name.c_str(), p.instantiations,
          static_cast<unsigned long long>(p.possibly_count),
          static_cast<unsigned long long>(p.definitely_count),
          kStrength[p.strongest], p.spec.c_str()));
    }
  } else if (sub == "verdicts") {
    std::size_t shown = 0;
    for (const auto& v : det.verdicts()) {
      if (!tail.empty() && v.predicate != tail) continue;
      emit(util::strprintf(
          "%s %s #%llu cut=[%lld,%lld]us lag=%lldus procs=%zu\n",
          v.kind == analysis::pred::PredicateDetector::VerdictKind::definitely
              ? "definitely"
              : "possibly",
          v.predicate.c_str(), static_cast<unsigned long long>(v.occurrence),
          static_cast<long long>(v.cut_lo_us),
          static_cast<long long>(v.cut_hi_us),
          static_cast<long long>(v.detect_lag_us), v.witness.size()));
      ++shown;
    }
    if (shown == 0) emit("no verdicts\n");
  } else if (sub == "stats") {
    const auto s = det.stats();
    emit(util::strprintf(
        "events=%zu settled=%zu unsettled=%zu predicates=%zu insts=%zu "
        "open=%zu cuts=%llu possibly=%llu definitely=%llu capped=%zu "
        "stamps=%zu stamps_dropped=%zu\n",
        s.events, s.settled, s.unsettled, s.predicates, s.instantiations,
        s.open_intervals, static_cast<unsigned long long>(s.cuts_examined),
        static_cast<unsigned long long>(s.verdicts_possibly),
        static_cast<unsigned long long>(s.verdicts_definitely),
        s.capped_instantiations, s.send_stamps, s.send_stamps_dropped));
  } else {
    emit(
        "usage: predicate add <name>: <spec>\n"
        "       predicate list | verdicts [<name>] | stats\n");
  }
}

void Controller::cmd_replay(const std::string& rest) {
  auto svc = replay::ReplayService::find(sys_.world());
  if (!svc || !svc->harness()) {
    emit("no replay service installed on this world\n");
    return;
  }
  replay::ReplayHarness& live = *svc->harness();
  // The `replay ...` command op itself is already in the recording (ops
  // are recorded before they execute), so every nested re-drive bounds
  // itself at next_op(): the ops that have *completed*. Replaying the
  // in-flight op would recurse.
  const std::size_t completed = live.next_op();

  std::string sub{rest};
  std::string tail;
  if (const auto sp = rest.find_first_of(" \t"); sp != std::string::npos) {
    sub = rest.substr(0, sp);
    tail = std::string{util::trim(rest.substr(sp))};
  }
  sub = util::to_lower(sub);

  const replay::Recording& rec = live.recording();

  if (sub == "status" || sub.empty()) {
    emit(util::strprintf("recipe %s seed %llu machines %zu ops %zu\n",
                         rec.recipe.c_str(),
                         static_cast<unsigned long long>(rec.seed),
                         rec.machines.size(), completed));
    if (rec.cut) {
      emit(util::strprintf("checkpoint: cut after op %zu at %lldus (%zu components)\n",
                           rec.cut_ops,
                           static_cast<long long>(util::count_us(rec.cut->at)),
                           rec.cut->components.size()));
    } else {
      emit("checkpoint: none (harness never called checkpoint())\n");
    }
    if (auto plan = rec.fault_plan()) {
      emit(util::strprintf("faults: %zu events\n", plan->events.size()));
    } else {
      emit("faults: none\n");
    }
  } else if (sub == "check") {
    if (!rec.cut) {
      emit("no checkpoint cut to check (harness never called checkpoint())\n");
      return;
    }
    replay::Recording prefix = rec;
    prefix.ops.resize(prefix.cut_ops);
    replay::ReplayHarness fresh(prefix);
    fresh.play();
    if (!fresh.divergence().empty()) {
      emit(util::strprintf("replay diverged: %s\n",
                           fresh.divergence().c_str()));
      return;
    }
    const auto diverged = fresh.verify_cut();
    if (diverged.empty()) {
      emit(util::strprintf(
          "restored bit-identical: %zu components match at %lldus\n",
          rec.cut->components.size(),
          static_cast<long long>(util::count_us(rec.cut->at))));
    } else {
      std::string names;
      for (const auto& n : diverged) {
        if (!names.empty()) names += ' ';
        names += n;
      }
      emit(util::strprintf("DIVERGED: %zu component(s): %s\n", diverged.size(),
                           names.c_str()));
    }
  } else if (sub == "until") {
    auto words = util::split(tail, " \t");
    replay::StopCondition stop;
    if (words.size() == 2) {
      if (auto n = util::parse_int(words[1]); n && *n >= 0) {
        if (words[0] == "lamport") {
          stop = {replay::StopCondition::Kind::lamport,
                  static_cast<std::uint64_t>(*n)};
        } else if (words[0] == "records") {
          stop = {replay::StopCondition::Kind::records,
                  static_cast<std::uint64_t>(*n)};
        }
      }
    }
    if (stop.kind == replay::StopCondition::Kind::none) {
      emit("usage: replay until lamport|records <n>\n");
      return;
    }
    replay::Recording prefix = rec;
    prefix.ops.resize(completed);
    prefix.cut.reset();
    prefix.cut_ops = 0;
    replay::ReplayHarness fresh(prefix);
    const std::size_t played = fresh.play_until(stop);
    const auto& obs = fresh.world().obs();
    std::uint64_t lamport = 0, records = 0;
    if (auto it = obs.gauges().find("live.max_lamport");
        it != obs.gauges().end()) {
      lamport = static_cast<std::uint64_t>(it->second.value());
    }
    if (auto it = obs.counters().find("kernel.meter_records_consumed");
        it != obs.counters().end()) {
      records = it->second.value();
    }
    emit(util::strprintf(
        "stopped at %lldus after %zu op(s): lamport=%llu records=%llu\n",
        static_cast<long long>(util::count_us(fresh.world().now())), played,
        static_cast<unsigned long long>(lamport),
        static_cast<unsigned long long>(records)));
  } else if (sub == "whatif") {
    if (tail.empty()) {
      emit("usage: replay whatif <faultplan-dsl | none>\n");
      return;
    }
    net::FaultPlan plan;
    if (util::to_lower(tail) != "none") {
      std::string err;
      auto parsed = net::FaultPlan::parse(tail, &err);
      if (!parsed) {
        emit(util::strprintf("bad fault plan: %s\n", err.c_str()));
        return;
      }
      plan = *parsed;
    }
    replay::Recording base = rec;
    base.ops.resize(completed);
    if (!base.fault_plan() && !plan.empty()) {
      emit("recording has no faults op to edit (nothing to replace)\n");
      return;
    }
    replay::Recording edited = base.with_faults(plan);
    replay::ReplayHarness fresh(edited);
    // Non-strict: the edited plan legitimately shifts op timing — the
    // what-if asks "same inputs, different faults", not bit-replay.
    fresh.play(static_cast<std::size_t>(-1), /*strict=*/false);
    fresh.world().run();
    const auto violated =
        replay::check_strict_invariants(fresh.world(),
                                        fresh.killed_processes());
    if (violated) {
      emit(util::strprintf("still fails: invariant %s violated\n",
                           violated->c_str()));
    } else {
      emit("passes: all strict invariants hold under the edited plan\n");
    }
  } else {
    emit(
        "usage: replay status | check | until lamport|records <n>\n"
        "       replay whatif <faultplan-dsl | none>\n");
  }
}

void Controller::cmd_filter(const std::vector<std::string>& args) {
  if (args.empty()) {
    if (filters_.empty()) {
      emit("no filters\n");
      return;
    }
    for (const auto& [name, f] : filters_) {
      emit(util::strprintf("%d %s %s\n", f.pid, name.c_str(),
                           f.machine.c_str()));
    }
    return;
  }

  const std::string& name = args[0];
  if (filters_.count(name)) {
    emit(util::strprintf("filter '%s' already exists\n", name.c_str()));
    return;
  }
  const std::string machine = args.size() > 1 ? args[1] : sys_.hostname();
  const std::string filterfile = args.size() > 2 ? args[2] : "filter";
  const std::string descriptions = args.size() > 3 ? args[3] : "descriptions";
  const std::string templates = args.size() > 4 ? args[4] : "templates";

  auto addr = daemon_addr(machine);
  if (!addr) {
    emit(util::strprintf("unknown machine '%s'\n", machine.c_str()));
    return;
  }
  if (!stage_file(machine, filterfile) || !stage_file(machine, descriptions) ||
      !stage_file(machine, templates)) {
    return;
  }

  FilterRequest req;
  req.uid = sys_.getuid();
  req.filterfile = filterfile;
  req.logfile = filter::log_path_for(name);
  req.descriptions = descriptions;
  req.templates = templates;
  req.control_port = control_port_;
  req.control_host = sys_.hostname();
  req.nonce = next_nonce();
  auto reply = daemon_rpc(machine, *addr, req);
  if (!reply) {
    emit(util::strprintf("filter '%s' not created: %s\n", name.c_str(),
                         std::string(util::err_message(reply.error())).c_str()));
    return;
  }
  const auto* fr = std::get_if<FilterReply>(&*reply);
  if (!fr || fr->status != 0) {
    emit(util::strprintf("filter '%s' not created: %s\n", name.c_str(),
                         err_text(reply_status(*reply)).c_str()));
    return;
  }
  FilterRec rec;
  rec.name = name;
  rec.machine = machine;
  rec.pid = fr->pid;
  rec.meter_port = fr->meter_port;
  rec.logfile = req.logfile;
  rec.descriptions = descriptions;
  rec.templates = templates;
  filters_[name] = rec;
  if (default_filter_.empty()) default_filter_ = name;
  emit(util::strprintf("filter '%s' ... created: identifier = %d\n",
                       name.c_str(), fr->pid));
}

void Controller::cmd_fanin(const std::vector<std::string>& args) {
  if (args.size() < 5) {
    emit("usage: fanin <filtername> <arity> <machineprefix> <first> <last>\n");
    return;
  }
  auto fit = filters_.find(args[0]);
  if (fit == filters_.end()) {
    emit(util::strprintf("no such filter '%s'\n", args[0].c_str()));
    return;
  }
  FilterRec& filt = fit->second;
  if (!filt.locals.empty() || !filt.aggregators.empty()) {
    emit(util::strprintf("filter '%s' already has a fan-in tree\n",
                         args[0].c_str()));
    return;
  }
  auto arity = util::parse_int(args[1]);
  auto first = util::parse_int(args[3]);
  auto last = util::parse_int(args[4]);
  if (!arity || *arity < 2) {
    emit("fanin: arity must be at least 2\n");
    return;
  }
  if (!first || !last || *last < *first) {
    emit("fanin: bad machine range\n");
    return;
  }
  const std::size_t A = static_cast<std::size_t>(*arity);
  std::vector<std::string> leaves;
  for (long long i = *first; i <= *last; ++i) {
    std::string m = args[2] + std::to_string(i);
    if (!daemon_addr(m)) {
      emit(util::strprintf("unknown machine '%s'\n", m.c_str()));
      return;
    }
    leaves.push_back(std::move(m));
  }
  // The session's default descriptions/templates are pre-installed on
  // every machine; only custom files need rcp staging.
  const bool custom =
      filt.descriptions != "descriptions" || filt.templates != "templates";

  // Tree shape, bottom-up: each machine gets a local filter; groups of
  // `arity` report to an aggregator hosted on the group's first machine,
  // and so on until at most `arity` nodes remain, which report to the
  // session (root) filter directly.
  std::vector<std::vector<std::string>> agg_levels;  // hosts, leafmost first
  {
    std::vector<std::string> cur = leaves;
    while (cur.size() > A) {
      std::vector<std::string> next;
      for (std::size_t g = 0; g < cur.size(); g += A) next.push_back(cur[g]);
      agg_levels.push_back(next);
      cur = std::move(next);
    }
  }

  struct Endpoint {
    std::string host;
    net::Port port = 0;
  };
  const Endpoint root_ep{filt.machine, filt.meter_port};
  std::vector<std::vector<Endpoint>> eps(agg_levels.size());
  for (std::size_t k = 0; k < agg_levels.size(); ++k) {
    eps[k].resize(agg_levels[k].size());
  }
  // A child whose aggregator failed to start falls up to the nearest live
  // ancestor, so a partial tree still delivers every record.
  auto parent_for = [&](std::size_t parent_level,
                        std::size_t child_idx) -> Endpoint {
    std::size_t idx = child_idx;
    for (std::size_t lvl = parent_level; lvl < eps.size(); ++lvl) {
      idx /= A;
      if (eps[lvl][idx].port != 0) return eps[lvl][idx];
    }
    return root_ep;
  };

  // Create top-down so every parent is listening before its children
  // connect upward; each level is one multi_rpc round.
  std::size_t aggs_ok = 0, aggs_failed = 0;
  for (std::size_t k = agg_levels.size(); k-- > 0;) {
    std::vector<MultiCall> calls;
    for (std::size_t j = 0; j < agg_levels[k].size(); ++j) {
      const std::string& m = agg_levels[k][j];
      Endpoint parent = parent_for(k + 1, j);
      FilterRequest req;
      req.uid = sys_.getuid();
      req.filterfile = "aggregator";
      req.control_port = control_port_;
      req.control_host = sys_.hostname();
      req.nonce = next_nonce();
      req.mode = 2;
      req.parent_host = parent.host;
      req.parent_port = parent.port;
      MultiCall c;
      c.machine = m;
      c.addr = *daemon_addr(m);
      c.req = std::move(req);
      calls.push_back(std::move(c));
    }
    auto replies = multi_rpc(calls);
    for (std::size_t j = 0; j < replies.size(); ++j) {
      const auto* fr =
          replies[j] ? std::get_if<FilterReply>(&*replies[j]) : nullptr;
      if (!fr || fr->status != 0) {
        ++aggs_failed;
        emit(util::strprintf("aggregator on '%s' not created\n",
                             agg_levels[k][j].c_str()));
        continue;
      }
      eps[k][j] = Endpoint{agg_levels[k][j], fr->meter_port};
      filt.aggregators.push_back(
          AggregatorRec{agg_levels[k][j], fr->pid, fr->meter_port});
      ++aggs_ok;
    }
  }

  // Leaf tier: one local filter per machine, running the session's
  // programs in place.
  std::vector<MultiCall> calls;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const std::string& m = leaves[i];
    if (custom) {
      (void)stage_file(m, filt.descriptions);
      (void)stage_file(m, filt.templates);
    }
    Endpoint parent = parent_for(0, i);
    FilterRequest req;
    req.uid = sys_.getuid();
    req.filterfile = "localfilter";
    req.descriptions = filt.descriptions;
    req.templates = filt.templates;
    req.control_port = control_port_;
    req.control_host = sys_.hostname();
    req.nonce = next_nonce();
    req.mode = 1;
    req.parent_host = parent.host;
    req.parent_port = parent.port;
    MultiCall c;
    c.machine = m;
    c.addr = *daemon_addr(m);
    c.req = std::move(req);
    calls.push_back(std::move(c));
  }
  std::size_t locals_ok = 0, locals_failed = 0;
  auto replies = multi_rpc(calls);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto* fr =
        replies[i] ? std::get_if<FilterReply>(&*replies[i]) : nullptr;
    if (!fr || fr->status != 0) {
      // The machine's processes fall back to metering straight into the
      // root filter (meter_target finds no local entry).
      ++locals_failed;
      continue;
    }
    filt.locals[leaves[i]] = LocalFilterRec{fr->pid, fr->meter_port};
    ++locals_ok;
  }
  emit(util::strprintf(
      "fanin '%s': %zu local filters (%zu failed), %zu aggregators "
      "(%zu failed), depth %zu\n",
      filt.name.c_str(), locals_ok, locals_failed, aggs_ok, aggs_failed,
      agg_levels.size() + 2));
}

void Controller::cmd_newjob(const std::vector<std::string>& args) {
  if (args.empty()) {
    emit("usage: newjob <jobname> [<filtername>]\n");
    return;
  }
  const std::string& name = args[0];
  if (jobs_.count(name)) {
    emit(util::strprintf("job '%s' already exists\n", name.c_str()));
    return;
  }
  std::string filter_name = args.size() > 1 ? args[1] : default_filter_;
  if (filter_name.empty() || !filters_.count(filter_name)) {
    // §4.3: "A job cannot be created if a filter has not been created."
    emit("no filter: create a filter first\n");
    return;
  }
  Job job;
  job.name = name;
  job.filter_name = filter_name;
  jobs_[name] = std::move(job);
}

void Controller::cmd_addprocess(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    emit("usage: addprocess <jobname> <machine> <processfile> [<parms>]\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  const std::string& machine = args[1];
  const std::string& processfile = args[2];
  auto addr = daemon_addr(machine);
  if (!addr) {
    emit(util::strprintf("unknown machine '%s'\n", machine.c_str()));
    return;
  }
  if (!stage_file(machine, processfile)) return;

  const FilterRec& filt = filters_.at(job.filter_name);
  const auto [fhost, fport] = meter_target(filt, machine);
  CreateRequest req;
  req.uid = sys_.getuid();
  req.filename = processfile;
  req.params.assign(args.begin() + 3, args.end());
  req.filter_port = fport;
  req.filter_host = fhost;
  req.meter_flags = job.flags;
  req.control_port = control_port_;
  req.control_host = sys_.hostname();
  req.nonce = next_nonce();
  auto reply = daemon_rpc(machine, *addr, req);
  const std::string display = basename_of(processfile);
  if (!reply) {
    emit(util::strprintf("process '%s' not created: %s\n", display.c_str(),
                         std::string(util::err_message(reply.error())).c_str()));
    return;
  }
  const auto* cr = std::get_if<CreateReply>(&*reply);
  if (!cr || cr->status != 0) {
    emit(util::strprintf("process '%s' not created: %s\n", display.c_str(),
                         err_text(reply_status(*reply)).c_str()));
    return;
  }
  ProcEntry p;
  p.name = display;
  p.machine = machine;
  p.pid = cr->pid;
  p.state = ProcState::fresh;
  p.flags = job.flags;
  job.procs.push_back(std::move(p));
  emit(util::strprintf("process '%s' ... created: identifier = %d\n",
                       display.c_str(), cr->pid));
}

void Controller::cmd_addgroup(const std::vector<std::string>& args) {
  if (args.size() < 6) {
    emit(
        "usage: addgroup <jobname> <machineprefix> <first> <last> "
        "<permachine> <processfile> [<parms>]\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  auto first = util::parse_int(args[2]);
  auto last = util::parse_int(args[3]);
  auto per = util::parse_int(args[4]);
  if (!first || !last || *last < *first) {
    emit("addgroup: bad machine range\n");
    return;
  }
  if (!per || *per < 1) {
    emit("addgroup: permachine must be at least 1\n");
    return;
  }
  const std::string& processfile = args[5];
  const std::vector<std::string> params(args.begin() + 6, args.end());
  const std::string base = basename_of(processfile);
  const FilterRec& filt = filters_.at(job.filter_name);

  std::vector<std::string> machines;
  for (long long i = *first; i <= *last; ++i) {
    std::string m = args[1] + std::to_string(i);
    if (!daemon_addr(m)) {
      emit(util::strprintf("unknown machine '%s'\n", m.c_str()));
      return;
    }
    (void)stage_file(m, processfile);
    machines.push_back(std::move(m));
  }

  const std::size_t n_per = static_cast<std::size_t>(*per);
  // One multi-create per machine, in one round. The deadline scales with
  // the item count: each spawn costs real (simulated) time, so a 100-item
  // batch legitimately takes longer than one create.
  std::vector<MultiCall> calls;
  for (const auto& m : machines) {
    const auto [fhost, fport] = meter_target(filt, m);
    BatchCreateRequest req;
    req.uid = sys_.getuid();
    for (std::size_t k = 0; k < n_per; ++k) {
      req.items.push_back(BatchCreateRequest::Item{processfile, params});
    }
    req.filter_port = fport;
    req.filter_host = fhost;
    req.meter_flags = job.flags;
    req.control_port = control_port_;
    req.control_host = sys_.hostname();
    req.nonce = next_nonce();
    MultiCall c;
    c.machine = m;
    c.addr = *daemon_addr(m);
    c.req = std::move(req);
    c.opts.deadline = util::msec(250 + 10 * static_cast<long long>(n_per));
    calls.push_back(std::move(c));
  }
  std::size_t created = 0, failed = 0;
  auto replies = multi_rpc(calls);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto* br =
        replies[i] ? std::get_if<BatchCreateReply>(&*replies[i]) : nullptr;
    if (!br || br->pids.size() != n_per) {
      failed += n_per;
      continue;
    }
    for (std::size_t k = 0; k < n_per; ++k) {
      if (br->statuses[k] != 0 || br->pids[k] < 0) {
        ++failed;
        continue;
      }
      ProcEntry p;
      p.name = util::strprintf("%s.%s.%zu", base.c_str(), machines[i].c_str(),
                               k);
      p.machine = machines[i];
      p.pid = br->pids[k];
      p.state = ProcState::fresh;
      p.flags = job.flags;
      job.procs.push_back(std::move(p));
      ++created;
    }
  }
  emit(util::strprintf(
      "job '%s': %zu of %zu processes created across %zu machines\n",
      job.name.c_str(), created, created + failed, machines.size()));
}

void Controller::cmd_acquire(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    emit("usage: acquire <jobname> <machine> <process identifier>\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  const std::string& machine = args[1];
  auto pid = util::parse_int(args[2]);
  if (!pid) {
    emit("bad process identifier\n");
    return;
  }
  auto addr = daemon_addr(machine);
  if (!addr) {
    emit(util::strprintf("unknown machine '%s'\n", machine.c_str()));
    return;
  }
  const FilterRec& filt = filters_.at(job.filter_name);
  const auto [fhost, fport] = meter_target(filt, machine);
  AcquireRequest req;
  req.uid = sys_.getuid();
  req.pid = static_cast<std::int32_t>(*pid);
  req.filter_port = fport;
  req.filter_host = fhost;
  req.meter_flags = job.flags;
  // The full acquire round trip (connect → request → reply), in sim time.
  obs::Registry& reg = sys_.world().obs();
  auto reply = [&] {
    obs::ObsSpan span(reg, "control.acquire",
                      &reg.histogram("control.acquire_rtt_us"));
    return daemon_rpc(machine, *addr, req);
  }();
  const std::int32_t status = reply ? reply_status(*reply)
                                    : static_cast<std::int32_t>(reply.error());
  if (status != 0) {
    emit(util::strprintf("process %lld not acquired: %s\n",
                         static_cast<long long>(*pid),
                         err_text(status).c_str()));
    return;
  }
  ProcEntry p;
  p.name = util::strprintf("pid%lld", static_cast<long long>(*pid));
  p.machine = machine;
  p.pid = static_cast<kernel::Pid>(*pid);
  p.state = ProcState::acquired;
  p.flags = job.flags;
  job.procs.push_back(std::move(p));
  emit(util::strprintf("process %lld ... acquired\n",
                       static_cast<long long>(*pid)));
}

void Controller::cmd_setflags(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    emit("usage: setflags <jobname> <flag1 flag2 ...>\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  std::string bad;
  auto mask = apply_flag_tokens(job.flags,
                                std::vector<std::string>(args.begin() + 1,
                                                         args.end()),
                                &bad);
  if (!mask) {
    emit(util::strprintf("unknown flag '%s'\n", bad.c_str()));
    return;
  }
  job.flags = *mask;
  emit("new job flags = " + meter::flags_to_string(job.flags) + "\n");

  // SetFlagsRequest names one pid, so this round carries one call per
  // live process.
  std::vector<ProcEntry*> targets;
  std::vector<MultiCall> calls;
  for (auto& p : job.procs) {
    if (p.state == ProcState::killed) continue;
    auto addr = daemon_addr(p.machine);
    if (!addr) continue;
    SetFlagsRequest req;
    req.uid = sys_.getuid();
    req.pid = p.pid;
    req.flags = job.flags;
    MultiCall c;
    c.machine = p.machine;
    c.addr = *addr;
    c.req = req;
    calls.push_back(std::move(c));
    targets.push_back(&p);
  }
  const auto replies = multi_rpc(calls);
  std::string text;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ProcEntry& p = *targets[i];
    const std::int32_t status = replies[i]
                                    ? reply_status(*replies[i])
                                    : static_cast<std::int32_t>(
                                          replies[i].error());
    if (status == 0) {
      p.flags = job.flags;
      text += util::strprintf("Process '%s' : Flags set\n", p.name.c_str());
    } else {
      text += util::strprintf("Process '%s' : %s\n", p.name.c_str(),
                              err_text(status).c_str());
    }
  }
  emit(text);
}

void Controller::cmd_startjob(const std::vector<std::string>& args) {
  if (args.empty()) {
    emit("usage: startjob <jobname>\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  obs::Registry& reg = sys_.world().obs();
  const auto statuses = [&] {
    obs::ObsSpan span(reg, "control.start",
                      &reg.histogram("control.start_rtt_us"));
    return job_op(job, MsgType::start_request, ProcState::running);
  }();
  // The paper's per-process transcript, written once for the whole job.
  std::string text;
  for (std::size_t i = 0; i < job.procs.size(); ++i) {
    const ProcEntry& p = job.procs[i];
    if (!statuses[i]) {
      text += util::strprintf("'%s' cannot be started (%s).\n",
                              p.name.c_str(), proc_state_name(p.state));
    } else if (*statuses[i] == 0) {
      text += util::strprintf("'%s' started.\n", p.name.c_str());
    } else {
      text += util::strprintf("'%s' not started: %s\n", p.name.c_str(),
                              err_text(*statuses[i]).c_str());
    }
  }
  emit(text);
}

void Controller::cmd_stopjob(const std::vector<std::string>& args) {
  if (args.empty()) {
    emit("usage: stopjob <jobname>\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  const auto statuses = job_op(job, MsgType::stop_request, ProcState::stopped);
  // Killed and acquired processes are ignored (§4.3).
  std::string text;
  for (std::size_t i = 0; i < job.procs.size(); ++i) {
    if (!statuses[i]) continue;
    const ProcEntry& p = job.procs[i];
    if (*statuses[i] == 0) {
      text += util::strprintf("'%s' stopped.\n", p.name.c_str());
    } else {
      text += util::strprintf("'%s' not stopped: %s\n", p.name.c_str(),
                              err_text(*statuses[i]).c_str());
    }
  }
  emit(text);
}

void Controller::cmd_removejob(const std::vector<std::string>& args) {
  if (args.empty()) {
    emit("usage: removejob <jobname>\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  if (!job.removable()) {
    emit(util::strprintf(
        "job '%s' has running or new processes; not removed\n",
        job.name.c_str()));
    return;
  }
  std::vector<ProcEntry*> procs;
  std::string text;
  for (auto& p : job.procs) {
    procs.push_back(&p);
    text += util::strprintf("'%s' removed\n", p.name.c_str());
  }
  take_down(procs);
  emit(text);
  jobs_.erase(jit);
}

void Controller::cmd_removeprocess(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    emit("usage: removeprocess <jobname> <processname>\n");
    return;
  }
  auto jit = jobs_.find(args[0]);
  if (jit == jobs_.end()) {
    emit(util::strprintf("no such job '%s'\n", args[0].c_str()));
    return;
  }
  Job& job = jit->second;
  ProcEntry* p = job.find(args[1]);
  if (!p) {
    emit(util::strprintf("no process '%s' in job '%s'\n", args[1].c_str(),
                         job.name.c_str()));
    return;
  }
  if (p->state != ProcState::killed && p->state != ProcState::stopped &&
      p->state != ProcState::acquired) {
    emit(util::strprintf("'%s' is %s; not removed\n", p->name.c_str(),
                         proc_state_name(p->state)));
    return;
  }
  take_down({p});
  emit(util::strprintf("'%s' removed\n", p->name.c_str()));
  job.procs.erase(job.procs.begin() + (p - job.procs.data()));
}

void Controller::cmd_jobs(const std::vector<std::string>& args) {
  for (const auto& [machine, h] : machine_health_) {
    if (h.down) {
      emit(util::strprintf("machine '%s' DOWN (%s) -- try reconcile\n",
                           machine.c_str(), h.reason.c_str()));
    }
  }
  if (args.empty()) {
    if (jobs_.empty()) {
      emit("no jobs\n");
      return;
    }
    int i = 1;
    for (const auto& [name, job] : jobs_) {
      emit(util::strprintf("%d. %s filter: %s\n", i++, name.c_str(),
                           job.filter_name.c_str()));
    }
    return;
  }
  for (const auto& name : args) {
    auto jit = jobs_.find(name);
    if (jit == jobs_.end()) {
      emit(util::strprintf("no such job '%s'\n", name.c_str()));
      continue;
    }
    emit(util::strprintf("job '%s' (filter %s):\n", name.c_str(),
                         jit->second.filter_name.c_str()));
    for (const auto& p : jit->second.procs) {
      emit(util::strprintf("  %d %s %s %s flags: %s%s%s\n", p.pid,
                           proc_state_name(p.state), p.name.c_str(),
                           p.machine.c_str(),
                           meter::flags_to_string(p.flags).c_str(),
                           p.note.empty() ? "" : " ", p.note.c_str()));
    }
  }
}

void Controller::cmd_reconcile(const std::vector<std::string>& args) {
  (void)args;
  bool any_down = false;
  for (auto& [machine, h] : machine_health_) {
    if (!h.down) continue;
    any_down = true;
    auto addr = daemon_addr(machine);
    if (!addr) continue;
    // Liveness ping, deliberately NOT via daemon_rpc (which fails fast on
    // down machines — probing them is the whole point here).
    ProcRequest ping;
    ping.what = MsgType::status_request;
    ping.uid = sys_.getuid();
    ping.pid = 0;
    daemon::RpcOptions probe;
    probe.max_attempts = 2;
    auto reply = daemon::rpc_call(sys_, *addr, ping, probe);
    if (!reply || reply_status(*reply) != 0) {
      emit(util::strprintf("machine '%s' still down\n", machine.c_str()));
      continue;
    }
    h.down = false;
    h.reason.clear();
    emit(util::strprintf("machine '%s' reconciled\n", machine.c_str()));

    // The daemon is back, but what happened while we could not talk to
    // it? Re-probe every process we believe is alive there.
    for (auto& [jname, job] : jobs_) {
      for (auto& p : job.procs) {
        if (p.machine != machine || p.state == ProcState::killed) continue;
        ProcRequest probe_proc;
        probe_proc.what = MsgType::status_request;
        probe_proc.uid = sys_.getuid();
        probe_proc.pid = p.pid;
        auto st = daemon::rpc_call(sys_, *addr, probe_proc, probe);
        const std::int32_t status =
            st ? reply_status(*st) : static_cast<std::int32_t>(st.error());
        if (status != 0) {
          p.state = ProcState::killed;
          if (p.note.empty()) p.note = "[presumed dead]";
          emit(util::strprintf(
              "DONE: process %s in job '%s' presumed dead after outage\n",
              p.name.c_str(), jname.c_str()));
        }
      }
    }
  }
  if (!any_down) emit("no machines marked down\n");
}

void Controller::cmd_lag(const std::vector<std::string>& args) {
  std::int64_t bound_us = 0;
  if (!args.empty()) {
    const auto v = util::parse_int(args[0]);
    if (args.size() > 1 || !v || *v <= 0) {
      emit("usage: lag [<bound_us>]\n");
      return;
    }
    bound_us = *v;
  }
  if (sys_.world().provenance() == nullptr) {
    emit("record provenance is disabled (prov_sample_period = 0)\n");
    return;
  }
  const auto& hists = sys_.world().obs().histograms();
  emit("stage latency (sampled record provenance, us):\n");
  bool lagging = false;
  for (const obs::ProvenanceStage& s : obs::provenance_stages()) {
    const auto it = hists.find(s.key);
    if (it == hists.end() || it->second.count() == 0) {
      emit(util::strprintf("  %-22s %-16s (no samples)\n", s.key, s.label));
      continue;
    }
    const obs::Histogram& h = it->second;
    const obs::Percentiles p =
        obs::log2_percentiles(h.buckets(), obs::Histogram::kBuckets, h.max());
    const bool lag = bound_us > 0 && p.p99 > bound_us;
    lagging = lagging || lag;
    emit(util::strprintf(
        "  %-22s %-16s n=%-6llu p50=%-8lld p95=%-8lld p99=%-8lld%s\n", s.key,
        s.label, static_cast<unsigned long long>(h.count()),
        static_cast<long long>(p.p50), static_cast<long long>(p.p95),
        static_cast<long long>(p.p99), lag ? " LAGGING" : ""));
  }
  if (bound_us > 0) {
    emit(lagging
             ? util::strprintf("LAG: stage p99 over %lld us bound\n",
                               static_cast<long long>(bound_us))
             : util::strprintf("all stages within %lld us p99 bound\n",
                               static_cast<long long>(bound_us)));
  }
}

void Controller::cmd_getlog(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    emit("usage: getlog <filtername> <destination filename>\n");
    return;
  }
  auto fit = filters_.find(args[0]);
  if (fit == filters_.end()) {
    emit(util::strprintf("no such filter '%s'\n", args[0].c_str()));
    return;
  }
  auto r = sys_.rcp(fit->second.machine, fit->second.logfile, sys_.hostname(),
                    args[1]);
  if (!r) {
    emit(util::strprintf("getlog failed: %s\n",
                         std::string(util::err_message(r.error())).c_str()));
  }
}

void Controller::cmd_source(const std::vector<std::string>& args) {
  if (args.empty()) {
    emit("usage: source <filename>\n");
    return;
  }
  if (source_stack_.size() >= kMaxSourceDepth) {
    emit("source: nesting too deep\n");
    return;
  }
  auto fd = sys_.open(args[0], Sys::OpenMode::read);
  if (!fd) {
    emit(util::strprintf("cannot read '%s'\n", args[0].c_str()));
    return;
  }
  std::string text;
  for (;;) {
    auto chunk = sys_.read(*fd, 4096);
    if (!chunk || chunk->empty()) break;
    text += util::to_string(*chunk);
  }
  (void)sys_.close(*fd);
  std::deque<std::string> lines;
  for (auto& line : util::split_keep_empty(text, '\n')) {
    if (!util::trim(line).empty()) lines.push_back(line);
  }
  source_stack_.push_back(std::move(lines));
}

void Controller::cmd_sink(const std::vector<std::string>& args) {
  if (sink_fd_ >= 0) {
    (void)sys_.close(sink_fd_);
    sink_fd_ = -1;
  }
  if (args.empty()) return;  // output back to the terminal
  auto fd = sys_.open(args[0], Sys::OpenMode::write_trunc);
  if (!fd) {
    emit(util::strprintf("cannot write '%s'\n", args[0].c_str()));
    return;
  }
  sink_fd_ = *fd;
}

void Controller::remove_filters() {
  // Fan-in tiers first (children before the root they feed), one batch
  // kill per machine so a large tree tears down in a few RPC rounds.
  std::map<std::string, std::vector<std::int32_t>> tree_pids;
  for (const auto& [name, f] : filters_) {
    for (const auto& [m, lf] : f.locals) tree_pids[m].push_back(lf.pid);
    for (const auto& a : f.aggregators) tree_pids[a.machine].push_back(a.pid);
  }
  if (!tree_pids.empty()) {
    std::vector<MultiCall> calls;
    for (auto& [m, pids] : tree_pids) {
      auto addr = daemon_addr(m);
      if (!addr) continue;
      BatchProcRequest req;
      req.what = MsgType::kill_request;
      req.uid = sys_.getuid();
      req.nonce = next_nonce();
      req.pids = pids;
      MultiCall c;
      c.machine = m;
      c.addr = *addr;
      c.req = std::move(req);
      calls.push_back(std::move(c));
    }
    (void)multi_rpc(calls);
  }
  // Then the root filters, in a second round.
  std::vector<MultiCall> calls;
  for (const auto& [name, f] : filters_) {
    auto addr = daemon_addr(f.machine);
    if (!addr) continue;
    ProcRequest req;
    req.what = MsgType::kill_request;
    req.uid = sys_.getuid();
    req.pid = f.pid;
    MultiCall c;
    c.machine = f.machine;
    c.addr = *addr;
    c.req = req;
    calls.push_back(std::move(c));
  }
  (void)multi_rpc(calls);
  filters_.clear();
}

bool Controller::cmd_die() {
  bool active = false;
  for (const auto& [name, job] : jobs_) {
    if (job.has_active()) active = true;
  }
  if (active && !warned_die_) {
    emit("there are still active processes; repeat to exit anyway\n");
    warned_die_ = true;
    return true;
  }
  // "Upon exit, all executing filter processes are removed."
  remove_filters();
  return false;
}

kernel::ProcessMain make_controller_main(const std::vector<std::string>&) {
  return [](Sys& sys) {
    Controller controller(sys);
    controller.run();
  };
}

void register_controller_program(kernel::ExecRegistry& registry) {
  registry.register_program(kControllerProgram, make_controller_main);
}

}  // namespace dpm::control
