// The simulation executive: owns simulated time, the event queue, and all
// tasks. One instance per simulated world.
//
// Scheduling discipline: the run loop drains the runnable task queue (FIFO,
// all at the current instant), then advances time to the next event. Events
// and tasks may schedule further events and wake further tasks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/event_queue.h"
#include "sim/replay.h"
#include "sim/task.h"
#include "util/time.h"

namespace dpm::sim {

using TaskId = std::uint64_t;
constexpr TaskId kNoTask = 0;

class Executive {
 public:
  Executive();
  ~Executive();

  Executive(const Executive&) = delete;
  Executive& operator=(const Executive&) = delete;

  util::TimePoint now() const { return now_; }

  /// Schedules an event on the executive (runs outside any task).
  EventId schedule_at(util::TimePoint t, std::function<void()> fn);
  EventId schedule_after(util::Duration d, std::function<void()> fn);
  /// Cancels a pending scheduled event, named by its id and the time it
  /// was scheduled for: it neither runs nor holds the queue open (see
  /// EventQueue::cancel). Only valid while the event is still pending.
  void cancel_event(EventId id, util::TimePoint at);

  /// Creates a task; it becomes runnable immediately.
  TaskId spawn(std::string name, Task::Body body);

  /// Wakes a parked task (idempotent; a pending wake is remembered if the
  /// task is currently running or already runnable). No-op for finished ids.
  void make_runnable(TaskId id);

  /// Called from inside a task: suspends until made runnable.
  void park_current();

  /// Called from inside a task: suspends until the given simulated time.
  void sleep_until(util::TimePoint t);
  void sleep_for(util::Duration d);

  /// Called from inside a task about to block until `t` > now() on a
  /// wake-up of its own. When that wake-up would be the very next thing
  /// the executive does, it advances the clock to `t` in place and
  /// returns true: nothing is scheduled, parked or switched, but the
  /// wake-up's sequence number and its dispatch are counted as the
  /// queued path would have. Otherwise it changes nothing and returns
  /// false, and the caller queues its wake-up and parks. See DESIGN §15.
  bool advance_in_place(util::TimePoint t);

  /// Aborts a task: the next time it would run it unwinds via TaskAborted.
  /// If it is parked it is woken so the unwind happens promptly.
  void abort_task(TaskId id);

  /// Id of the currently running task (kNoTask when in an event handler).
  TaskId current_task() const { return current_; }

  /// Runs until the event queue is empty and no task is runnable.
  void run();

  /// Runs until simulated time would exceed `t` (events at exactly `t` run).
  void run_until(util::TimePoint t);

  /// Number of task switches done (resumes of a task by the executive).
  std::uint64_t switches() const { return switches_; }

  /// Sequence number the next scheduled event will get (EventQueue).
  std::uint64_t next_seq() const { return events_.next_seq(); }

  bool task_finished(TaskId id) const;
  std::size_t live_tasks() const;

  /// Folds the scheduler's replay-relevant state into `d`: switch count,
  /// next task id, the runnable queue in dispatch order, and the task
  /// table in id order (name + started/finished flags).
  void digest_tasks(replay::Digest& d) const;

  /// Folds the event queue's frontier into `d`: every live (time, seq)
  /// pending pair plus the next sequence number. Two worlds equal here
  /// will fire the same timers in the same order.
  void digest_events(replay::Digest& d) const;

  /// Points the executive at a metrics registry; also installs this
  /// executive's clock as the registry's time source. The executive then
  /// tracks runnable-queue depth (sim.runnable), dispatched events,
  /// task switches, and events handled per simulated instant.
  void set_obs(obs::Registry* reg);

 private:
  struct TaskState {
    std::unique_ptr<Task> task;
    bool runnable = false;       // in runnable_ queue
    bool wake_pending = false;   // wake arrived while running
  };

  void run_one_step(bool& progressed);
  void resume_task(TaskId id);
  TaskState* find(TaskId id);
  /// Moves the clock to `t` for one event dispatch, closing the last
  /// instant's sim.events_per_tick sample when time moves.
  void enter_dispatch(util::TimePoint t);
  void count_dispatch();

  util::TimePoint now_{};
  EventQueue events_;
  std::deque<TaskId> runnable_;
  // Indexed by id. Ids start at 1 (slot 0 stays empty) and are never
  // reused. A spawn may grow the vector, so no TaskState pointer is held
  // across a resume() or park().
  std::vector<TaskState> tasks_ = std::vector<TaskState>(1);
  TaskId current_ = kNoTask;
  // The latest time the running loop may reach: run_until's bound, or
  // the end of time under run().
  util::TimePoint horizon_ = util::TimePoint::max();
  std::uint64_t switches_ = 0;

  // Observability handles (null until set_obs; see obs/registry.h).
  obs::Registry* obs_ = nullptr;
  obs::Gauge* runnable_gauge_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;
  obs::Histogram* events_per_tick_ = nullptr;
  std::uint64_t events_this_tick_ = 0;
};

}  // namespace dpm::sim
