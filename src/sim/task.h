// Cooperative tasks: simulated processes as suspendable activities.
//
// Each task runs its body as a fiber: on a stack of its own, but on the
// thread that calls resume(). Control is handed over explicitly through
// resume()/park(), so exactly one body (or the executive) runs at a time.
// This gives natural blocking syscalls inside process bodies while keeping
// the simulation single-threaded — and therefore deterministic.
#pragma once

#include <functional>
#include <memory>
#include <string>

namespace dpm::sim {

/// Thrown inside a task body when the task is aborted (process killed while
/// blocked, or simulation teardown). Process bodies must let it propagate;
/// the task wrapper catches it.
struct TaskAborted {};

class Task {
 public:
  using Body = std::function<void()>;

  explicit Task(std::string name);
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Maps the body's stack; the body stays suspended until the first
  /// resume().
  void start(Body body);

  /// Executive side: runs the task until it parks or finishes. When the
  /// body finishes its stack is unmapped before resume() returns.
  /// Precondition: started, not finished, not currently running.
  void resume();

  /// Task side: yields control back to the executive; returns when resumed.
  /// Throws TaskAborted if an abort was requested.
  void park();

  /// Marks the task for abortion; the next park()/resume boundary throws
  /// TaskAborted inside the body. Safe to call multiple times.
  void request_abort();

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  bool abort_requested() const { return abort_; }
  const std::string& name() const { return name_; }

 private:
  struct Fiber;  // stack mapping and saved stack pointers; see task.cc

  // The first frame of every task's stack: runs the body, then switches
  // back for the last time. Called from task.cc's start trampoline.
  static void entry(Task* task) noexcept;

  std::string name_;
  Body body_;
  std::unique_ptr<Fiber> fiber_;  // null before start() and once finished
  bool started_ = false;
  bool finished_ = false;
  bool abort_ = false;
};

}  // namespace dpm::sim
