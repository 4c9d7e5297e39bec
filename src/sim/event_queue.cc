#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dpm::sim {

EventId EventQueue::schedule(util::TimePoint at, Fn fn) {
  const EventId id = next_seq_++;
  heap_.push_back(Event{at, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

void EventQueue::cancel(EventId id) { cancelled_.insert(id); }

void EventQueue::drop_cancelled() const {
  // Most calls find nothing cancelled: skip the hash lookup of the top.
  if (cancelled_.empty()) return;
  while (!heap_.empty() && cancelled_.erase(heap_.front().seq) > 0) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

util::TimePoint EventQueue::next_time() const {
  drop_cancelled();
  assert(!heap_.empty());
  return heap_.front().at;
}

EventQueue::Fn EventQueue::pop() {
  drop_cancelled();
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Fn fn = std::move(heap_.back().fn);
  heap_.pop_back();
  return fn;
}

std::vector<std::pair<util::TimePoint, EventId>> EventQueue::pending() const {
  std::vector<std::pair<util::TimePoint, EventId>> out;
  out.reserve(heap_.size());
  for (const Event& e : heap_) {
    if (cancelled_.count(e.seq)) continue;
    out.emplace_back(e.at, e.seq);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dpm::sim
