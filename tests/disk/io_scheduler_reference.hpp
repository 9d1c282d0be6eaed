// Reference per-disk schedulers: the test oracle DiskQueue's pick rule
// (src/disk/io_scheduler.hpp) is checked against.
//
// These are the three container-per-policy schedulers the disk used before
// its queue became one arrival-ordered slot list: FCFS over a std::deque,
// SSTF and SCAN over a std::list, each mapping blocks to cylinders through
// a std::function. They share no code with the queue they check.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "disk/io_scheduler.hpp"

namespace pod::reference {

/// Queue policy. pop() may consult the current head cylinder.
class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void push(DiskOp op) = 0;
  virtual DiskOp pop(std::uint64_t head_cylinder) = 0;
  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
};

class FcfsScheduler final : public IoScheduler {
 public:
  void push(DiskOp op) override { queue_.push_back(std::move(op)); }

  DiskOp pop(std::uint64_t) override {
    POD_CHECK(!queue_.empty());
    DiskOp op = std::move(queue_.front());
    queue_.pop_front();
    return op;
  }

  bool empty() const override { return queue_.empty(); }
  std::size_t size() const override { return queue_.size(); }

 private:
  std::deque<DiskOp> queue_;
};

class SstfScheduler final : public IoScheduler {
 public:
  explicit SstfScheduler(std::function<std::uint64_t(std::uint64_t)> cyl_of)
      : cyl_of_(std::move(cyl_of)) {}

  void push(DiskOp op) override { queue_.push_back(std::move(op)); }

  DiskOp pop(std::uint64_t head_cylinder) override {
    POD_CHECK(!queue_.empty());
    auto best = queue_.begin();
    std::uint64_t best_dist = distance(head_cylinder, best->block);
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      const std::uint64_t d = distance(head_cylinder, it->block);
      if (d < best_dist) {
        best = it;
        best_dist = d;
      }
    }
    DiskOp op = std::move(*best);
    queue_.erase(best);
    return op;
  }

  bool empty() const override { return queue_.empty(); }
  std::size_t size() const override { return queue_.size(); }

 private:
  std::uint64_t distance(std::uint64_t head_cyl, std::uint64_t block) const {
    const std::uint64_t c = cyl_of_(block);
    return c > head_cyl ? c - head_cyl : head_cyl - c;
  }

  std::function<std::uint64_t(std::uint64_t)> cyl_of_;
  std::list<DiskOp> queue_;
};

/// SCAN / elevator: services ops in the current sweep direction, reversing
/// at the extremes.
class ScanScheduler final : public IoScheduler {
 public:
  explicit ScanScheduler(std::function<std::uint64_t(std::uint64_t)> cyl_of)
      : cyl_of_(std::move(cyl_of)) {}

  void push(DiskOp op) override { queue_.push_back(std::move(op)); }

  DiskOp pop(std::uint64_t head_cylinder) override {
    POD_CHECK(!queue_.empty());
    auto pick = [&](bool upward) {
      auto best = queue_.end();
      std::uint64_t best_dist = ~std::uint64_t{0};
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const std::uint64_t c = cyl_of_(it->block);
        const bool eligible = upward ? c >= head_cylinder : c <= head_cylinder;
        if (!eligible) continue;
        const std::uint64_t d = upward ? c - head_cylinder : head_cylinder - c;
        if (d < best_dist) {
          best = it;
          best_dist = d;
        }
      }
      return best;
    };
    auto best = pick(upward_);
    if (best == queue_.end()) {
      upward_ = !upward_;
      best = pick(upward_);
    }
    POD_CHECK(best != queue_.end());
    DiskOp op = std::move(*best);
    queue_.erase(best);
    return op;
  }

  bool empty() const override { return queue_.empty(); }
  std::size_t size() const override { return queue_.size(); }

 private:
  std::function<std::uint64_t(std::uint64_t)> cyl_of_;
  std::list<DiskOp> queue_;
  bool upward_ = true;
};

inline std::unique_ptr<IoScheduler> make_scheduler(
    SchedulerKind kind,
    std::function<std::uint64_t(std::uint64_t block)> cylinder_of) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kSstf:
      return std::make_unique<SstfScheduler>(std::move(cylinder_of));
    case SchedulerKind::kScan:
      return std::make_unique<ScanScheduler>(std::move(cylinder_of));
  }
  POD_CHECK(false);
}

}  // namespace pod::reference
