#include "icache/access_monitor.hpp"

#include <gtest/gtest.h>

namespace pod {
namespace {

Fingerprint fp(std::uint64_t id) { return Fingerprint::of_content_id(id); }

struct Caches {
  Caches() {
    index.enable_ghost(32);
    read.enable_ghost(32);
  }
  IndexCache index{8 * IndexCache::kEntryBytes};
  ReadCache read{8 * kBlockSize};
};

TEST(AccessMonitor, InitialEpochEmpty) {
  Caches c;
  AccessMonitor m(c.index, c.read);
  const EpochActivity a = m.current();
  EXPECT_EQ(a.read_lookups(), 0u);
  EXPECT_EQ(a.index_lookups(), 0u);
}

TEST(AccessMonitor, CountsHitsAndMisses) {
  Caches c;
  AccessMonitor m(c.index, c.read);
  c.read.insert(1);
  (void)c.read.lookup(1);  // hit
  (void)c.read.lookup(2);  // miss
  c.index.insert(fp(1), 10);
  (void)c.index.lookup(fp(1));  // hit
  (void)c.index.lookup(fp(2));  // miss
  (void)c.index.lookup(fp(3));  // miss
  const EpochActivity a = m.current();
  EXPECT_EQ(a.read_hits, 1u);
  EXPECT_EQ(a.read_misses, 1u);
  EXPECT_EQ(a.index_hits, 1u);
  EXPECT_EQ(a.index_misses, 2u);
}

TEST(AccessMonitor, GhostHitsTracked) {
  Caches c;
  AccessMonitor m(c.index, c.read);
  c.read.ghost_remember(7);
  EXPECT_TRUE(c.read.ghost_probe(7));
  c.index.ghost_remember(fp(7));
  EXPECT_TRUE(c.index.ghost_probe(fp(7)));
  const EpochActivity a = m.current();
  EXPECT_EQ(a.read_ghost_hits, 1u);
  EXPECT_EQ(a.index_ghost_hits, 1u);
}

TEST(AccessMonitor, EndEpochResetsWindow) {
  Caches c;
  AccessMonitor m(c.index, c.read);
  (void)c.read.lookup(1);
  const EpochActivity first = m.end_epoch();
  EXPECT_EQ(first.read_misses, 1u);
  const EpochActivity second = m.current();
  EXPECT_EQ(second.read_misses, 0u);
  (void)c.read.lookup(2);
  EXPECT_EQ(m.current().read_misses, 1u);
}

TEST(AccessMonitor, EpochsAreDisjoint) {
  Caches c;
  AccessMonitor m(c.index, c.read);
  (void)c.read.lookup(1);
  (void)m.end_epoch();
  (void)c.read.lookup(2);
  (void)c.read.lookup(3);
  const EpochActivity a = m.end_epoch();
  EXPECT_EQ(a.read_misses, 2u);
}

}  // namespace
}  // namespace pod
