// The controller (§3.5, §4.3) — "a command interpreter. It provides the
// user with a concise menu of commands to use in the measurement and
// control of one or more distributed computations."
//
// Commands: help, filter, newjob, addprocess, acquire, setflags, startjob,
// stopjob, removejob, removeprocess, jobs, getlog, source, sink, predicate,
// die (aliases exit, bye). The controller runs as a simulated process: it
// reads commands from standard input, performs daemon RPCs over temporary
// connections, and listens on a notification socket for daemon-initiated
// state-change reports (§3.5.1). Every command reaches the daemons in
// rounds of pipelined calls (daemon/rpc_pipeline.h): a job op sends one
// request per machine, and the transcript still reports each process.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/job.h"
#include "daemon/protocol.h"
#include "daemon/rpc_pipeline.h"
#include "kernel/exec_registry.h"
#include "kernel/syscalls.h"
#include "net/address.h"

namespace dpm::control {

/// A per-machine local filter in a fan-in tree: runs the session's
/// programs against that machine's meter streams in place and forwards
/// only accepted records up the tree.
struct LocalFilterRec {
  kernel::Pid pid = 0;
  net::Port meter_port = 0;
};

/// An intermediate fan-in node: concatenates its children's forwarded
/// batches and relays them toward the session filter.
struct AggregatorRec {
  std::string machine;
  kernel::Pid pid = 0;
  net::Port meter_port = 0;
};

/// A filter process the controller created, plus its fan-in tree (if one
/// was built with the `fanin` command).
struct FilterRec {
  std::string name;
  std::string machine;
  kernel::Pid pid = 0;
  net::Port meter_port = 0;
  std::string logfile;
  std::string descriptions;
  std::string templates;
  std::map<std::string, LocalFilterRec> locals;  // keyed by machine
  std::vector<AggregatorRec> aggregators;
};

/// Per-machine RPC health as the controller sees it. A machine is marked
/// down when an RPC to its daemon exhausts its deadline/retry budget; the
/// `reconcile` command probes down machines and clears the mark when the
/// daemon answers again.
struct MachineHealth {
  bool down = false;
  std::string reason;  // err_name of the failure that marked it down
};

class Controller {
 public:
  explicit Controller(kernel::Sys& sys);

  /// The command loop; returns when the user exits.
  void run();

  /// Executes one command line (used by run() and by tests driving the
  /// controller directly). Returns false when the command ends the
  /// session.
  bool execute(const std::string& line);

  // Introspection for tests.
  const std::map<std::string, FilterRec>& filters() const { return filters_; }
  const std::map<std::string, Job>& jobs() const { return jobs_; }
  net::Port control_port() const { return control_port_; }
  const std::map<std::string, MachineHealth>& machine_health() const {
    return machine_health_;
  }

 private:
  // ---- command handlers (§4.3) ----
  void cmd_help();
  /// `predicate add|list|verdicts|stats` — drives the online predicate
  /// detector when one is installed (analysis/predicates/service.h).
  /// Takes the raw command tail: specs contain non-word characters.
  void cmd_predicate(const std::string& rest);
  void cmd_replay(const std::string& rest);
  void cmd_filter(const std::vector<std::string>& args);
  void cmd_fanin(const std::vector<std::string>& args);
  void cmd_newjob(const std::vector<std::string>& args);
  void cmd_addprocess(const std::vector<std::string>& args);
  void cmd_addgroup(const std::vector<std::string>& args);
  void cmd_acquire(const std::vector<std::string>& args);
  void cmd_setflags(const std::vector<std::string>& args);
  void cmd_startjob(const std::vector<std::string>& args);
  void cmd_stopjob(const std::vector<std::string>& args);
  void cmd_removejob(const std::vector<std::string>& args);
  void cmd_removeprocess(const std::vector<std::string>& args);
  void cmd_jobs(const std::vector<std::string>& args);
  void cmd_reconcile(const std::vector<std::string>& args);
  void cmd_lag(const std::vector<std::string>& args);
  void cmd_getlog(const std::vector<std::string>& args);
  void cmd_source(const std::vector<std::string>& args);
  void cmd_sink(const std::vector<std::string>& args);
  bool cmd_die();

  // ---- plumbing ----
  void emit(const std::string& text);  // honors sink redirection
  void prompt();
  std::optional<std::string> next_command_line();
  void poll_notifications(bool block_until_input);
  void handle_notification(kernel::Fd conn);
  /// Ensures `path` exists on `machine`, copying it with rcp from the
  /// controller's machine if needed (§3.5.3). Returns false on failure.
  bool stage_file(const std::string& machine, const std::string& path);
  std::optional<net::SockAddr> daemon_addr(const std::string& machine);
  /// Kills every filter process (on die).
  void remove_filters();

  /// One element of an RPC round.
  struct MultiCall {
    std::string machine;
    net::SockAddr addr;
    daemon::DaemonMsg req;
    daemon::RpcOptions opts;
  };
  /// Every daemon RPC goes through here: one round of independent calls,
  /// pipelined by daemon::run_pipeline. Calls to a machine marked down
  /// fail fast with etimedout; a terminal transport failure marks its
  /// machine down. Replies are parallel to `calls`.
  std::vector<util::SysResult<daemon::DaemonMsg>> multi_rpc(
      std::vector<MultiCall>& calls);
  /// A round of one.
  util::SysResult<daemon::DaemonMsg> daemon_rpc(const std::string& machine,
                                                const net::SockAddr& addr,
                                                const daemon::DaemonMsg& req);
  /// Marks `machine` down on a terminal transport failure.
  void note_rpc_failure(const std::string& machine, util::Err e);
  /// One process op (start/stop/kill/release) on one process.
  struct ProcOp {
    ProcEntry* proc;
    daemon::MsgType what;
  };
  /// Issues `ops` as one multi_rpc round with one BatchProcRequest per
  /// (machine, op). Returns per-op statuses parallel to `ops` (0 ok, else
  /// util::Err).
  std::vector<std::int32_t> batch_proc_op(const std::vector<ProcOp>& ops);
  /// Applies `what` to every process of `job` that Fig 4.2 lets move to
  /// `to`, in one batch_proc_op round, and moves the ones that succeeded.
  /// Returns statuses parallel to job.procs, nullopt where the process
  /// could not make the transition.
  std::vector<std::optional<std::int32_t>> job_op(Job& job,
                                                  daemon::MsgType what,
                                                  ProcState to);
  /// removejob/removeprocess (§4.3): kills the stopped processes among
  /// `procs` and releases the acquired ones, in one round.
  void take_down(const std::vector<ProcEntry*>& procs);
  /// Where a process on `machine` should send meter records: the
  /// machine's local filter when the tree has one, else the root filter.
  std::pair<std::string, net::Port> meter_target(const FilterRec& filt,
                                                 const std::string& machine);
  /// Fresh at-most-once request identity (pid in the high half keeps
  /// nonces distinct across controller instances).
  std::uint64_t next_nonce();

  kernel::Sys& sys_;
  net::Port control_port_ = 0;
  kernel::Fd notif_sock_ = -1;

  std::map<std::string, FilterRec> filters_;
  std::string default_filter_;
  std::map<std::string, Job> jobs_;
  std::map<std::string, MachineHealth> machine_health_;
  std::uint64_t nonce_seq_ = 0;

  // source/sink state (§4.3)
  std::vector<std::deque<std::string>> source_stack_;
  kernel::Fd sink_fd_ = -1;
  bool warned_die_ = false;
  bool prompt_pending_ = false;
};

/// The controller program ("controller" in the exec registry).
kernel::ProcessMain make_controller_main(const std::vector<std::string>& argv);
void register_controller_program(kernel::ExecRegistry& registry);

inline constexpr const char* kControllerProgram = "controller";
inline constexpr std::size_t kMaxSourceDepth = 16;  // §4.3 source nesting

}  // namespace dpm::control
