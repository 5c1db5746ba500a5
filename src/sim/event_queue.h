// Priority queue of timestamped events with stable ordering and O(log n)
// lazy cancellation. Ties at the same timestamp fire in scheduling order
// (ascending EventId), which makes simulations deterministic for a fixed
// seed. DESIGN.md section 12 records why the binary heap is the only
// implementation.
//
// The queue is internally synchronized (DESIGN.md section 10): every public
// method acquires its own mutex, and the lock is never held while an event
// callback runs (Pop() hands the callback to the caller). The event queue is
// the innermost lock of the repo-wide hierarchy, so any component may call
// into it while holding its own lock.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/mutex.h"

namespace ursa {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Binary heap of (when, id) entries. Cancellation is lazy (tombstones
// dropped when they surface at the heap top) but bounded: whenever
// tombstones outnumber live events the whole heap is compacted in one pass,
// so cancel-heavy workloads (speculation + chaos) keep
// StoredCount() < 2 * PendingCount() + 1.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Fired {
    double when;
    EventId id;
    Callback cb;
  };

  // Enqueues `cb` to fire at absolute time `when`. Returns a handle usable
  // with Cancel(). Ids increase monotonically from 1 across the queue's
  // lifetime; equal-time events fire in ascending-id (FIFO) order.
  EventId Push(double when, Callback cb) EXCLUDES(mu_);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a no-op; returns whether the event was actually pending.
  bool Cancel(EventId id) EXCLUDES(mu_);

  bool Empty() const EXCLUDES(mu_);
  double NextTime() const EXCLUDES(mu_);

  // Removes and returns the earliest event. Must not be called when Empty().
  Fired Pop() EXCLUDES(mu_);

  // Live (non-cancelled) events still pending.
  size_t PendingCount() const EXCLUDES(mu_);

  // Entries physically stored, including cancelled tombstones not yet
  // compacted. Tests use this to pin down tombstone-growth bounds.
  size_t StoredCount() const EXCLUDES(mu_);

 private:
  struct Entry {
    double when;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.id > b.id;  // FIFO among same-time events.
    }
  };

  // Lazily drops cancelled entries from the heap head; `mutable` members let
  // the const observers (Empty, NextTime) share it without const_cast.
  void DropCancelledHead() const REQUIRES(mu_);
  // Rewrites the heap without tombstones once they outnumber live entries.
  void CompactIfWorthwhile() REQUIRES(mu_);
  // heap_.size() == callbacks_.size() + cancelled_.size() always; CHECKed so
  // PendingCount can never underflow.
  void CheckInvariant() const REQUIRES(mu_);

  mutable Mutex mu_;
  mutable std::vector<Entry> heap_ GUARDED_BY(mu_);  // std::*_heap under Later.
  mutable std::unordered_set<EventId> cancelled_ GUARDED_BY(mu_);
  // Callbacks stored out-of-heap so Entry stays trivially copyable.
  std::unordered_map<EventId, Callback> callbacks_ GUARDED_BY(mu_);
  EventId next_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace ursa

#endif  // SRC_SIM_EVENT_QUEUE_H_
