#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace dpm::sim {

EventId EventQueue::schedule(util::TimePoint at, Fn fn) {
  const EventId id = next_seq_++;
  heap_.push_back(Event{at, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

void EventQueue::cancel(EventId id, util::TimePoint at) {
  cancelled_.emplace_back(at, id);
  std::push_heap(cancelled_.begin(), cancelled_.end(), std::greater<Key>{});
}

void EventQueue::drop_cancelled() const {
  while (!cancelled_.empty()) {
    const Key& tomb = cancelled_.front();
    const bool stale =
        heap_.empty() || tomb < Key{heap_.front().at, heap_.front().seq};
    // A tombstone below the top names an event that has already fired.
    assert(!stale && "event cancelled after it fired");
    if (!stale) {
      if (tomb != Key{heap_.front().at, heap_.front().seq}) return;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    std::pop_heap(cancelled_.begin(), cancelled_.end(), std::greater<Key>{});
    cancelled_.pop_back();
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
  std::vector<Key> all;
  all.reserve(heap_.size());
  for (const Event& e : heap_) all.emplace_back(e.at, e.seq);
  std::sort(all.begin(), all.end());
  std::vector<Key> dead(cancelled_);
  std::sort(dead.begin(), dead.end());
  std::vector<Key> out;
  out.reserve(all.size() - dead.size());
  std::set_difference(all.begin(), all.end(), dead.begin(), dead.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace dpm::sim
