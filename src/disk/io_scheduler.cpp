#include "disk/io_scheduler.hpp"

#include "common/check.hpp"

namespace pod {

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kSstf: return "sstf";
    case SchedulerKind::kScan: return "scan";
  }
  return "?";
}

std::uint32_t DiskQueue::push() {
  std::uint32_t s;
  if (free_ != kNone) {
    s = free_;
    free_ = slots_[s].next;
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].next = kNone;
  if (tail_ == kNone)
    head_ = s;
  else
    slots_[tail_].next = s;
  tail_ = s;
  ++waiting_;
  return s;
}

std::uint64_t DiskQueue::rank(std::uint64_t c, std::uint64_t head) const {
  switch (kind_) {
    case SchedulerKind::kFcfs:
      return 0;
    case SchedulerKind::kSstf:
      return c > head ? c - head : head - c;
    case SchedulerKind::kScan:
      if (upward_) return c >= head ? c - head : ~std::uint64_t{0};
      return c <= head ? head - c : ~std::uint64_t{0};
  }
  return 0;
}

std::uint32_t DiskQueue::pick(std::uint64_t head, std::uint32_t& prev) const {
  std::uint32_t best = kNone;
  std::uint64_t best_rank = ~std::uint64_t{0};
  for (std::uint32_t p = kNone, s = head_; s != kNone; p = s, s = slots_[s].next) {
    const std::uint64_t r = rank(slots_[s].op.cylinder, head);
    if (r < best_rank) {
      best = s;
      best_rank = r;
      prev = p;
      if (r == 0) break;  // nothing later can rank lower
    }
  }
  return best;
}

std::uint32_t DiskQueue::pop(std::uint64_t head_cylinder) {
  POD_CHECK(!empty());
  std::uint32_t prev = kNone;
  std::uint32_t s = pick(head_cylinder, prev);
  if (s == kNone) {
    upward_ = !upward_;
    s = pick(head_cylinder, prev);
  }
  POD_CHECK(s != kNone);
  const std::uint32_t next = slots_[s].next;
  if (prev == kNone)
    head_ = next;
  else
    slots_[prev].next = next;
  if (tail_ == s) tail_ = prev;
  --waiting_;
  return s;
}

void DiskQueue::release(std::uint32_t slot) {
  POD_DCHECK(!slots_[slot].op.done);
  slots_[slot].next = free_;
  free_ = slot;
}

}  // namespace pod
