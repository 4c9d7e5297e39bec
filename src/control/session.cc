#include "control/session.h"

#include <cassert>

#include "control/controller.h"
#include "daemon/meterdaemon.h"
#include "filter/descriptions.h"
#include "filter/count_filter.h"
#include "filter/fanin.h"
#include "filter/filter_program.h"
#include "filter/templates.h"

namespace dpm::control {

void install_monitor(kernel::World& world) {
  filter::register_filter_program(world.programs());
  filter::register_count_filter_program(world.programs());
  filter::register_fanin_programs(world.programs());
  daemon::register_meterdaemon_program(world.programs());
  register_controller_program(world.programs());

  for (kernel::MachineId m : world.machines()) {
    auto& fs = world.machine(m).fs;
    fs.put_executable("filter", filter::kStdFilterProgram);
    fs.put_executable("countfilter", filter::kCountFilterProgram);
    fs.put_executable("localfilter", filter::kLocalFilterProgram);
    fs.put_executable("aggregator", filter::kAggregatorProgram);
    fs.put_executable("meterdaemon", daemon::kMeterdaemonProgram);
    fs.put_executable("controller", kControllerProgram);
    fs.put_text("descriptions", filter::default_descriptions_text());
    fs.put_text("templates", filter::default_templates_text());
  }
}

void spawn_meterdaemons(kernel::World& world) {
  for (kernel::MachineId m : world.machines()) {
    auto r = world.spawn(m, "meterdaemon", kernel::kSuperUser,
                         daemon::make_meterdaemon_main({}));
    assert(r.ok() && "meterdaemon spawn failed");
    (void)r;
    // Boot program: a crashed-then-restarted machine comes back with a
    // fresh meterdaemon (its old state is gone, as after a real reboot).
    world.add_boot_program(m, [m](kernel::World& w) {
      (void)w.spawn(m, "meterdaemon", kernel::kSuperUser,
                    daemon::make_meterdaemon_main({}));
    });
  }
}

void install_app(kernel::World& world, kernel::MachineId m,
                 const std::string& path, const std::string& program) {
  world.machine(m).fs.put_executable(path, program);
}

MonitorSession::MonitorSession(kernel::World& world, Options opts)
    : world_(world) {
  kernel::Machine* host = world.machine_by_name(opts.host);
  assert(host && "unknown session host");
  host_ = host->id;

  world.add_account_everywhere(opts.uid);

  stdin_pipe_ = std::make_shared<kernel::HostPipe>();
  stdout_pipe_ = std::make_shared<kernel::HostPipe>();

  kernel::SpawnOpts so;
  so.stdin_fd = kernel::Descriptor::for_pipe(stdin_pipe_);
  so.stdout_fd = kernel::Descriptor::for_pipe(stdout_pipe_);
  so.stderr_fd = kernel::Descriptor::for_pipe(stdout_pipe_);
  auto r = world.spawn(host_, "controller", opts.uid,
                       make_controller_main({}), std::move(so));
  assert(r.ok() && "controller spawn failed");
  pid_ = *r;
}

void MonitorSession::send_line(const std::string& line) {
  stdin_pipe_->host_write(line + "\n");
  stdin_pipe_->readers.wake_all(world_.exec());
}

std::string MonitorSession::drain_output() {
  return stdout_pipe_->host_drain();
}

std::string MonitorSession::command(const std::string& line) {
  send_line(line);
  world_.run();
  return drain_output();
}

void MonitorSession::close_input() {
  stdin_pipe_->closed = true;
  stdin_pipe_->readers.wake_all(world_.exec());
}

bool MonitorSession::controller_alive() const {
  kernel::Process* p =
      const_cast<kernel::World&>(world_).find_process(host_, pid_);
  return p && p->status != kernel::ProcStatus::dead;
}

}  // namespace dpm::control
