#include "sim/event_queue.hpp"

#include "common/check.hpp"

namespace pod {

InlineEvent* EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    InlineEvent* slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  return &pool_.emplace_back();
}

void EventQueue::push_entry(SimTime at, InlineEvent* slot) {
  heap_.push_back(HeapEntry{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++pushes_;
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
}

SimTime EventQueue::next_time() const {
  POD_CHECK(!heap_.empty());
  return heap_.front().at;
}

SimTime EventQueue::run_next() {
  POD_CHECK(!heap_.empty());
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  // The heap is consistent before the callback runs, so it may push freely;
  // its own slot is not on the freelist until it has returned.
  (*top.slot)();
  top.slot->reset();
  free_slots_.push_back(top.slot);
  return top.at;
}

void EventQueue::clear() {
  heap_.clear();
  pool_.clear();
  free_slots_.clear();
  next_seq_ = 0;
  pushes_ = 0;
  peak_size_ = 0;
}

void EventQueue::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapEntry e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

}  // namespace pod
