// Discrete-event queue: the single source of time in the simulation.
//
// Events at equal times fire in insertion order (a monotone sequence number
// breaks ties), which keeps runs deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/time.h"

namespace dpm::sim {

/// Handle for cancelling a scheduled event (the event's sequence number).
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Fn = std::function<void()>;

  /// Schedules `fn` at absolute simulated time `at`.
  EventId schedule(util::TimePoint at, Fn fn);

  /// Cancels a pending event, named by its id and the time it was
  /// scheduled for: it will neither run nor advance simulated time. A
  /// queue holding only cancelled events is empty — crucial for
  /// quiescence: a satisfied select must not drag the world out to its
  /// timeout. Cancelling an event that already fired is a bug (callers
  /// guard with now < deadline); the next look at the queue asserts.
  void cancel(EventId id, util::TimePoint at);

  bool empty() const {
    drop_cancelled();
    return heap_.empty();
  }
  /// Live (not cancelled) pending events.
  std::size_t size() const {
    drop_cancelled();
    return heap_.size() - cancelled_.size();
  }

  /// Time of the earliest pending event; queue must not be empty.
  util::TimePoint next_time() const;

  /// Removes and returns the earliest event's action.
  Fn pop();

  /// (time, seq) of every live (non-cancelled) pending event, sorted by
  /// firing order. Checkpoints digest this: two worlds whose queues agree
  /// here will pop the same events in the same order.
  std::vector<std::pair<util::TimePoint, EventId>> pending() const;

  /// Sequence number the next schedule() will hand out. Part of the
  /// replay digest: equal pending() but unequal next_seq() means the
  /// worlds took different paths to the same frontier and will diverge
  /// on their next tie-break.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Consumes the next sequence number without scheduling anything: the
  /// executive's in-place advance stands for an event that would have
  /// been scheduled and popped at once, and must leave next_seq() where
  /// that event would have.
  void skip_seq() { ++next_seq_; }

 private:
  using Key = std::pair<util::TimePoint, EventId>;
  struct Event {
    util::TimePoint at;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// Pops cancelled events off the top (lazy deletion; each takes its
  /// tombstone with it). Mutable + const so empty()/next_time() see
  /// through them.
  void drop_cancelled() const;

  // An explicit binary heap (std::push_heap/pop_heap over a vector) with
  // exactly priority_queue's ordering; explicit so pending() can walk the
  // live events without popping them.
  mutable std::vector<Event> heap_;
  // Tombstones, a min-heap in the heap's own (at, seq) order. Each names
  // an event still in heap_, so the top event is cancelled exactly when
  // it equals the smallest tombstone.
  mutable std::vector<Key> cancelled_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dpm::sim
