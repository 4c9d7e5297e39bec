// Harness-side session management.
//
// install_monitor() puts the measurement system into a World the way a
// site would install it on its machines: the standard programs (filter,
// meterdaemon, controller) are registered and their executable files and
// support files written to every machine. MonitorSession then plays the
// programmer's terminal: it spawns a controller wired to host-visible
// pipes, feeds command lines in, and drains the transcript out.
#pragma once

#include <memory>
#include <string>

#include "kernel/world.h"

namespace dpm::control {

/// Registers the monitor's programs and installs, on every machine:
///   filter        (executable -> "stdfilter")
///   meterdaemon   (executable -> "meterdaemon")
///   controller    (executable -> "controller")
///   descriptions  (standard event record descriptions, Fig 3.2)
///   templates     (default selection rules: keep everything)
void install_monitor(kernel::World& world);

/// Spawns a root meterdaemon on every machine (call once, after
/// install_monitor).
void spawn_meterdaemons(kernel::World& world);

/// Registers an application program under `program` and installs an
/// executable file `path` for it on machine `m`.
void install_app(kernel::World& world, kernel::MachineId m,
                 const std::string& path, const std::string& program);

class MonitorSession {
 public:
  struct Options {
    std::string host;          // machine the user works from (Fig 3.5)
    kernel::Uid uid = 100;     // the programmer's account, added on every
                               // machine
  };

  MonitorSession(kernel::World& world, Options opts);

  /// Writes a command line to the controller's stdin (appends '\n').
  void send_line(const std::string& line);

  /// Everything the controller printed since the last drain.
  std::string drain_output();

  /// send_line + run the world to quiescence + drain_output.
  std::string command(const std::string& line);

  /// Signals EOF on the controller's stdin (^D).
  void close_input();

  kernel::Pid controller_pid() const { return pid_; }
  bool controller_alive() const;
  kernel::MachineId host() const { return host_; }

 private:
  kernel::World& world_;
  kernel::MachineId host_;
  kernel::Pid pid_ = 0;
  std::shared_ptr<kernel::HostPipe> stdin_pipe_;
  std::shared_ptr<kernel::HostPipe> stdout_pipe_;
};

}  // namespace dpm::control
