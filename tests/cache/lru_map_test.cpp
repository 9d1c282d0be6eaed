#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lru_map.hpp"

namespace pod {
namespace {

TEST(LruMap, PutGet) {
  LruMap<int, std::string> m(4);
  m.put(1, "one");
  ASSERT_NE(m.get(1), nullptr);
  EXPECT_EQ(*m.get(1), "one");
  EXPECT_EQ(m.get(2), nullptr);
}

TEST(LruMap, OverwriteKeepsSize) {
  LruMap<int, int> m(4);
  m.put(1, 10);
  m.put(1, 20);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.get(1), 20);
}

TEST(LruMap, EvictsLeastRecentlyUsed) {
  LruMap<int, int> m(2);
  std::vector<int> evicted;
  auto on_evict = [&](const int& k, int&&) { evicted.push_back(k); };
  m.put(1, 1, on_evict);
  m.put(2, 2, on_evict);
  m.put(3, 3, on_evict);
  EXPECT_EQ(evicted, (std::vector<int>{1}));
  EXPECT_EQ(m.get(1), nullptr);
  EXPECT_NE(m.get(2), nullptr);
}

TEST(LruMap, GetPromotesToMru) {
  LruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  (void)m.get(1);  // 1 becomes MRU; 2 is now LRU
  m.put(3, 3);
  EXPECT_NE(m.get(1), nullptr);
  EXPECT_EQ(m.get(2), nullptr);
}

TEST(LruMap, PeekDoesNotPromote) {
  LruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  (void)m.peek(1);  // no promotion: 1 stays LRU
  m.put(3, 3);
  EXPECT_EQ(m.get(1), nullptr);
  EXPECT_NE(m.get(2), nullptr);
}

TEST(LruMap, EraseRemoves) {
  LruMap<int, int> m(4);
  m.put(1, 1);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(LruMap, PopLruReturnsOldest) {
  LruMap<int, int> m(4);
  m.put(1, 10);
  m.put(2, 20);
  auto [k, v] = m.pop_lru();
  EXPECT_EQ(k, 1);
  EXPECT_EQ(v, 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(LruMap, LruKeyReflectsOrder) {
  LruMap<int, int> m(4);
  m.put(1, 1);
  m.put(2, 2);
  EXPECT_EQ(m.lru_key(), 1);
  (void)m.get(1);
  EXPECT_EQ(m.lru_key(), 2);
}

TEST(LruMap, ShrinkEvictsExcess) {
  LruMap<int, int> m(4);
  std::vector<int> evicted;
  for (int i = 0; i < 4; ++i) m.put(i, i);
  m.set_capacity(2, [&](const int& k, int&&) { evicted.push_back(k); });
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(evicted, (std::vector<int>{0, 1}));
  EXPECT_NE(m.get(3), nullptr);
}

TEST(LruMap, GrowKeepsContents) {
  LruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  m.set_capacity(10);
  EXPECT_EQ(m.size(), 2u);
  m.put(3, 3);
  EXPECT_NE(m.get(1), nullptr);
}

TEST(LruMap, ZeroCapacityDropsInserts) {
  LruMap<int, int> m(0);
  int evicted = 0;
  m.put(1, 1, [&](const int&, int&&) { ++evicted; });
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(m.get(1), nullptr);
}

TEST(LruMap, ForEachIsMruToLru) {
  LruMap<int, int> m(4);
  m.put(1, 1);
  m.put(2, 2);
  m.put(3, 3);
  (void)m.get(1);
  std::vector<int> order;
  m.for_each([&](const int& k, const int&) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(LruMap, ContainsWithoutPromotion) {
  LruMap<int, int> m(2);
  m.put(1, 1);
  m.put(2, 2);
  EXPECT_TRUE(m.contains(1));
  m.put(3, 3);
  EXPECT_FALSE(m.contains(1));  // contains() must not have promoted
}

TEST(LruMap, ClearEmpties) {
  LruMap<int, int> m(4);
  m.put(1, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.get(1), nullptr);
}

TEST(LruMap, StressManyInsertions) {
  LruMap<std::uint64_t, std::uint64_t> m(1000);
  for (std::uint64_t i = 0; i < 100000; ++i) m.put(i, i * 2);
  EXPECT_EQ(m.size(), 1000u);
  // The newest 1000 keys survive.
  EXPECT_NE(m.get(99999), nullptr);
  EXPECT_EQ(m.get(98999), nullptr);
}

}  // namespace
}  // namespace pod
