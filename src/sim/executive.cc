#include "sim/executive.h"

#include <cassert>

#include "util/logging.h"

namespace dpm::sim {

Executive::Executive() = default;

Executive::~Executive() {
  // Abort every live task, in id order, and drain it so each body unwinds
  // on its own stack before the stack is unmapped. A Task outlives any
  // growth of tasks_, so it is held by reference, not its slot.
  for (TaskId id = 1; id < tasks_.size(); ++id) {
    if (!tasks_[id].task) continue;
    Task& task = *tasks_[id].task;
    if (task.started() && !task.finished()) {
      task.request_abort();
      while (!task.finished()) task.resume();
    }
  }
}

EventId Executive::schedule_at(util::TimePoint t, std::function<void()> fn) {
  assert(t >= now_);
  return events_.schedule(t, std::move(fn));
}

EventId Executive::schedule_after(util::Duration d, std::function<void()> fn) {
  return schedule_at(now_ + d, std::move(fn));
}

void Executive::cancel_event(EventId id, util::TimePoint at) {
  events_.cancel(id, at);
}

void Executive::set_obs(obs::Registry* reg) {
  obs_ = reg;
  if (!reg) {
    runnable_gauge_ = nullptr;
    events_counter_ = nullptr;
    switches_counter_ = nullptr;
    events_per_tick_ = nullptr;
    return;
  }
  reg->set_clock([this] { return now_; });
  runnable_gauge_ = &reg->gauge("sim.runnable");
  events_counter_ = &reg->counter("sim.events_dispatched");
  switches_counter_ = &reg->counter("sim.task_switches");
  events_per_tick_ = &reg->histogram("sim.events_per_tick");
  runnable_gauge_->set(static_cast<std::int64_t>(runnable_.size()));
}

TaskId Executive::spawn(std::string name, Task::Body body) {
  const TaskId id = tasks_.size();
  TaskState& st = tasks_.emplace_back();
  st.task = std::make_unique<Task>(std::move(name));
  st.task->start(std::move(body));
  st.runnable = true;
  runnable_.push_back(id);
  if (runnable_gauge_) runnable_gauge_->add(1);
  return id;
}

Executive::TaskState* Executive::find(TaskId id) {
  if (id >= tasks_.size() || !tasks_[id].task) return nullptr;
  return &tasks_[id];
}

void Executive::make_runnable(TaskId id) {
  TaskState* st = find(id);
  if (!st || st->task->finished()) return;
  if (id == current_) {
    st->wake_pending = true;
    return;
  }
  if (st->runnable) return;
  st->runnable = true;
  runnable_.push_back(id);
  if (runnable_gauge_) runnable_gauge_->add(1);
}

void Executive::park_current() {
  assert(current_ != kNoTask && "park_current() outside a task");
  TaskState* st = find(current_);
  assert(st);
  if (st->wake_pending) {
    st->wake_pending = false;
    return;
  }
  st->task->park();
  // After park() returns the executive has resumed us; a wake consumed the
  // runnable slot already.
}

void Executive::sleep_until(util::TimePoint t) {
  const TaskId id = current_;
  assert(id != kNoTask);
  if (t <= now_) return;
  if (advance_in_place(t)) return;
  schedule_at(t, [this, id] { make_runnable(id); });
  // A pending wake ends the first park at once; the sleep still ends no
  // earlier than t, on its own wake-up, so none is left queued.
  while (now_ < t) park_current();
}

bool Executive::advance_in_place(util::TimePoint t) {
  assert(t > now_);
  // The queued path would schedule a wake-up at t, park, pop that wake-up
  // and resume the caller. It is the very next thing the executive does
  // when the caller runs with no pending wake (its first park would
  // consume it) and no abort (a park would unwind), no task is runnable,
  // the earliest live event is later than t (one due at exactly t has a
  // lower sequence number and runs first), and t is within the running
  // loop's bound.
  if (current_ == kNoTask) return false;
  const TaskState& st = tasks_[current_];
  if (st.wake_pending || st.task->abort_requested()) return false;
  if (!runnable_.empty() || t > horizon_) return false;
  if (!events_.empty() && events_.next_time() <= t) return false;
  events_.skip_seq();
  enter_dispatch(t);
  count_dispatch();
  return true;
}

void Executive::sleep_for(util::Duration d) { sleep_until(now_ + d); }

void Executive::abort_task(TaskId id) {
  TaskState* st = find(id);
  if (!st || st->task->finished()) return;
  st->task->request_abort();
  assert(id != current_ && "a task cannot abort itself; call exit instead");
  make_runnable(id);
}

void Executive::resume_task(TaskId id) {
  TaskState* st = find(id);
  if (!st || st->task->finished()) return;
  st->runnable = false;
  current_ = id;
  ++switches_;
  if (switches_counter_) switches_counter_->add(1);
  st->task->resume();
  current_ = kNoTask;
  // If a wake arrived while the task was running and it then parked, the
  // park consumed it synchronously (see park_current). If the task parked
  // without a pending wake it stays off the runnable queue until woken.
}

void Executive::enter_dispatch(util::TimePoint t) {
  if (events_per_tick_ && t > now_ && events_this_tick_ > 0) {
    events_per_tick_->record(static_cast<std::int64_t>(events_this_tick_));
    events_this_tick_ = 0;
  }
  now_ = t;
}

void Executive::count_dispatch() {
  if (events_counter_) events_counter_->add(1);
  ++events_this_tick_;
}

void Executive::run_one_step(bool& progressed) {
  progressed = false;
  if (!runnable_.empty()) {
    const TaskId id = runnable_.front();
    runnable_.pop_front();
    if (runnable_gauge_) runnable_gauge_->sub(1);
    resume_task(id);
    progressed = true;
    return;
  }
  if (!events_.empty()) {
    enter_dispatch(events_.next_time());
    auto fn = events_.pop();
    fn();
    count_dispatch();
    progressed = true;
  }
}

void Executive::run() {
  horizon_ = util::TimePoint::max();
  bool progressed = true;
  while (progressed && (!runnable_.empty() || !events_.empty())) {
    run_one_step(progressed);
  }
}

void Executive::run_until(util::TimePoint t) {
  horizon_ = t;
  for (;;) {
    if (!runnable_.empty()) {
      bool progressed;
      run_one_step(progressed);
      continue;
    }
    if (events_.empty() || events_.next_time() > t) break;
    bool progressed;
    run_one_step(progressed);
  }
  if (now_ < t) now_ = t;
}

void Executive::digest_tasks(replay::Digest& d) const {
  d.mix(switches_);
  d.mix(static_cast<std::uint64_t>(tasks_.size()));  // the next task id
  d.mix(static_cast<std::uint64_t>(runnable_.size()));
  for (TaskId id : runnable_) d.mix(id);
  for (TaskId id = 1; id < tasks_.size(); ++id) {
    const TaskState& st = tasks_[id];
    if (!st.task) continue;
    d.mix(id);
    d.mix(st.task->name());
    d.mix(static_cast<std::uint64_t>((st.task->started() ? 1u : 0u) |
                                     (st.task->finished() ? 2u : 0u) |
                                     (st.runnable ? 4u : 0u) |
                                     (st.wake_pending ? 8u : 0u)));
  }
}

void Executive::digest_events(replay::Digest& d) const {
  d.mix(events_.next_seq());
  const auto pending = events_.pending();
  d.mix(static_cast<std::uint64_t>(pending.size()));
  for (const auto& [at, seq] : pending) {
    d.mix_time(at);
    d.mix(seq);
  }
}

bool Executive::task_finished(TaskId id) const {
  return id >= tasks_.size() || !tasks_[id].task ||
         tasks_[id].task->finished();
}

std::size_t Executive::live_tasks() const {
  std::size_t n = 0;
  for (const TaskState& st : tasks_) {
    if (st.task && st.task->started() && !st.task->finished()) ++n;
  }
  return n;
}

}  // namespace dpm::sim
