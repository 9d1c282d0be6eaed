// Priority queue of timestamped events for the discrete-event simulator.
//
// Ties are broken by insertion order so simulations are fully deterministic.
//
// Layout: the heap itself orders trivially-copyable 24-byte HeapEntry
// records (time, sequence, slot pointer); the callables live in a pool of
// small-buffer-optimized InlineEvent slots recycled through a freelist.
// Sift operations therefore move plain integers — never callables — and a
// steady-state push/run cycle performs zero heap allocations.
//
// Each event is built in its pool slot by push() and invoked there by
// run_next(), so a callable is never moved after it is scheduled. The pool
// is a std::deque that only grows at the back, so its slots never move: a
// running callback may schedule any number of events (growing the pool)
// while its own slot stays put, and that slot returns to the freelist only
// after it returns.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/types.hpp"

namespace pod {

/// Simulator event callable. The largest scheduler today is the engine
/// write-path continuation (~80 bytes of captures); 88 covers it with a
/// little headroom while keeping a pooled slot close to two cache lines.
using InlineEvent = InlineFn<void(), 88>;

class EventQueue {
 public:
  /// Schedules `fn` at `at`, building it in its pool slot.
  template <typename F>
  void push(SimTime at, F&& fn) {
    InlineEvent* slot = acquire_slot();
    slot->emplace(std::forward<F>(fn));
    push_entry(at, slot);
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  SimTime next_time() const;

  /// Total push() calls since construction/clear() (events scheduled).
  std::uint64_t pushes() const { return pushes_; }
  /// High-water mark of size() — the scheduled-event backlog a replay
  /// actually needed (streaming admission keeps this at O(in-flight)).
  std::size_t peak_size() const { return peak_size_; }

  /// Removes the earliest event, invokes it in its slot and returns its
  /// time. Requires !empty().
  SimTime run_next();

  void clear();

 private:
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    InlineEvent* slot;
  };

  /// True when `a` fires strictly before `b` (earlier time, FIFO on ties).
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  InlineEvent* acquire_slot();
  void push_entry(SimTime at, InlineEvent* slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<HeapEntry> heap_;
  std::deque<InlineEvent> pool_;
  std::vector<InlineEvent*> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pushes_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace pod
