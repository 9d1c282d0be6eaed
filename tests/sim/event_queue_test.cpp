#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pod {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(42, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(100, [] {});
  q.push(50, [] {});
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.push(77, [] {});
  const SimTime at = q.run_next();
  EXPECT_EQ(at, 77);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  // Tie-break sequence restarts after clear.
  std::vector<int> order;
  q.push(5, [&] { order.push_back(1); });
  q.push(5, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(10); });
  q.push(30, [&] { order.push_back(30); });
  q.run_next();
  q.push(20, [&] { order.push_back(20); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

// Regression: same-timestamp events pushed across pop boundaries must
// still drain in global insertion order — the tie-break sequence may not
// reset or reorder when the heap shrinks and regrows (slot recycling).
TEST(EventQueue, TiesStableAcrossInterleavedPushPop) {
  EventQueue q;
  std::vector<int> order;
  q.push(5, [&] { order.push_back(0); });
  q.push(5, [&] { order.push_back(1); });
  q.run_next();  // runs 0; its slot is recycled
  q.push(5, [&] { order.push_back(2); });
  q.push(5, [&] { order.push_back(3); });
  q.run_next();  // runs 1
  q.push(5, [&] { order.push_back(4); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Regression: randomized-shape churn with equal timestamps — every batch
// must drain strictly FIFO no matter how pushes and pops interleave.
TEST(EventQueue, FifoUnderChurn) {
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  // Deterministic interleavings: push k events, pop k-1, repeat.
  for (int k = 1; k <= 32; ++k) {
    for (int i = 0; i < k; ++i) {
      q.push(7, [&order, v = next] { order.push_back(v); });
      ++next;
    }
    for (int i = 0; i + 1 < k; ++i) q.run_next();
  }
  while (!q.empty()) q.run_next();
  std::vector<int> expected(static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

// Callables bigger than the inline buffer take the heap path; both paths
// must move correctly through slot recycling.
TEST(EventQueue, LargeCallablesSurviveRecycling) {
  EventQueue q;
  std::vector<std::uint64_t> seen;
  struct Big {
    std::uint64_t payload[24];  // 192 bytes — exceeds the inline buffer
    std::vector<std::uint64_t>* out;
    void operator()() const { out->push_back(payload[23]); }
  };
  for (std::uint64_t i = 0; i < 100; ++i) {
    Big big{};
    big.payload[23] = i;
    big.out = &seen;
    q.push(static_cast<SimTime>(i % 3), big);
    if (i % 2 == 1) q.run_next();
  }
  while (!q.empty()) q.run_next();
  EXPECT_EQ(seen.size(), 100u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : seen) sum += v;
  EXPECT_EQ(sum, 99u * 100u / 2);
}

// Events run in their pool slot: a callback that schedules enough events to
// grow the pool by many chunks must still find its own captures intact
// afterwards, and the new events must keep (time, seq) order. (ASan and
// UBSan see any slot that moves or is recycled under a running callback.)
TEST(EventQueue, CallbackGrowsPoolWhileRunningInPlace) {
  EventQueue q;
  std::vector<int> order;
  std::uint64_t checked = 0;
  struct Grower {
    EventQueue* q;
    std::vector<int>* order;
    std::uint64_t* checked;
    std::uint64_t payload[8];  // 64 bytes of captures, still inline
    void operator()() const {
      for (int i = 0; i < 5000; ++i)
        q->push(100 - (i % 7), [o = order, i] { o->push_back(i); });
      for (std::uint64_t k = 0; k < 8; ++k)
        if (payload[k] == 0xC0FFEE00u + k) ++*checked;
    }
  };
  Grower g{&q, &order, &checked, {}};
  for (std::uint64_t k = 0; k < 8; ++k) g.payload[k] = 0xC0FFEE00u + k;
  q.push(0, g);
  EXPECT_EQ(q.run_next(), 0);
  EXPECT_EQ(checked, 8u);
  EXPECT_EQ(q.size(), 5000u);
  EXPECT_EQ(q.peak_size(), 5000u);
  SimTime last = 0;
  while (!q.empty()) {
    const SimTime at = q.run_next();
    EXPECT_GE(at, last);
    last = at;
  }
  // Within each timestamp, insertion order.
  ASSERT_EQ(order.size(), 5000u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const int a = order[i - 1], b = order[i];
    if (a % 7 == b % 7) EXPECT_LT(a, b);
    else EXPECT_GT(a % 7, b % 7);  // larger i % 7 fires earlier
  }
}

}  // namespace
}  // namespace pod
