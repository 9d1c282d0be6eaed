#include "common/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pod {
namespace {

TEST(SpscRing, EmptyClosedRingEndsTheStream) {
  SpscRing<int> ring(4, 2);
  ring.close();
  EXPECT_EQ(ring.front(), nullptr);
}

TEST(SpscRing, SingleThreadKeepsOrderAndPublishesPartialBatchOnClose) {
  SpscRing<int> ring(4, 3);
  for (int i = 0; i < 2; ++i) {
    ring.claim() = i;
    ring.push();
  }
  ring.close();  // two slots, less than one batch
  for (int i = 0; i < 2; ++i) {
    int* v = ring.front();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
    ring.pop();
  }
  EXPECT_EQ(ring.front(), nullptr);
}

TEST(SpscRing, DeliversEveryItemInOrderAcrossThreads) {
  // Rings far smaller than the stream, batches that do and do not divide
  // the capacity: both sides block and wake many times.
  constexpr std::uint64_t kItems = 20000;
  for (const auto& [cap, batch] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {2, 1}, {3, 2}, {8, 8},
        {64, 5}}) {
    SCOPED_TRACE(std::to_string(cap) + "/" + std::to_string(batch));
    SpscRing<std::vector<std::uint64_t>> ring(cap, batch);
    std::uint64_t received = 0;
    bool ordered = true;
    std::thread consumer([&] {
      while (std::vector<std::uint64_t>* v = ring.front()) {
        ordered = ordered && v->size() == 2 && (*v)[0] == received &&
                  (*v)[1] == 3 * received;
        ++received;
        ring.pop();
      }
    });
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std::vector<std::uint64_t>& slot = ring.claim();
      slot.assign({i, 3 * i});  // reuses the slot's capacity lap to lap
      ring.push();
    }
    ring.close();
    consumer.join();
    EXPECT_EQ(received, kItems);
    EXPECT_TRUE(ordered);
  }
}

}  // namespace
}  // namespace pod
