#include "dedup/map_table.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace pod {
namespace {

TEST(MapTable, LookupMissingIsInvalid) {
  MapTable m;
  EXPECT_EQ(m.lookup(5), kInvalidPba);
  EXPECT_FALSE(m.is_redirected(5));
}

TEST(MapTable, SetAndLookup) {
  MapTable m;
  m.set(5, 100);
  EXPECT_EQ(m.lookup(5), 100u);
  EXPECT_TRUE(m.is_redirected(5));
}

TEST(MapTable, OverwriteRedirection) {
  MapTable m;
  m.set(5, 100);
  m.set(5, 200);
  EXPECT_EQ(m.lookup(5), 200u);
  EXPECT_EQ(m.entries(), 1u);
}

TEST(MapTable, ClearRestoresIdentity) {
  MapTable m;
  m.set(5, 100);
  m.clear(5);
  EXPECT_EQ(m.lookup(5), kInvalidPba);
  EXPECT_EQ(m.entries(), 0u);
}

TEST(MapTable, LargestAdmissiblePbaNextToSentinels) {
  // The top of the packed range sits right under the two reserved values
  // (the identity mark and the packed invalid PBA): all three must decode
  // to what was stored.
  MapTable m;
  const Pba top = kPackedPbaLimit - 1;
  m.set(1, top);
  m.set_identity(2);
  EXPECT_EQ(m.lookup(1), top);
  EXPECT_EQ(m.resolve(1), top);
  EXPECT_TRUE(m.is_redirected(1));
  EXPECT_FALSE(m.is_identity(1));
  EXPECT_EQ(m.lookup(2), kInvalidPba);
  EXPECT_EQ(m.resolve(2), 2u);
  EXPECT_TRUE(m.is_identity(2));
  EXPECT_EQ(m.resolve(3), kInvalidPba);  // never written
  EXPECT_FALSE(m.is_identity(3));
  m.set_run(4, top - 2, 3);
  Pba out[8];
  m.resolve_run(0, 8, out);
  const Pba want[8] = {kInvalidPba, top,     2u,      kInvalidPba,
                       top - 2,     top - 1, top,     kInvalidPba};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], want[i]) << i;
  std::vector<std::pair<Lba, Pba>> seen;
  m.for_each_entry([&](Lba l, Pba p) { seen.emplace_back(l, p); });
  const std::vector<std::pair<Lba, Pba>> redirects = {
      {1, top}, {4, top - 2}, {5, top - 1}, {6, top}};
  EXPECT_EQ(seen, redirects);
  EXPECT_EQ(m.entries(), 4u);
  m.clear(1);
  EXPECT_EQ(m.resolve(1), kInvalidPba);
  EXPECT_EQ(m.entries(), 3u);
}

TEST(MapTable, ManyToOneAllowed) {
  MapTable m;
  m.set(1, 100);
  m.set(2, 100);
  m.set(3, 100);
  EXPECT_EQ(m.entries(), 3u);
  EXPECT_EQ(m.lookup(2), 100u);
}

TEST(MapTable, BytesAccountingAtPaper20BytesPerEntry) {
  MapTable m;
  m.set(1, 10);
  m.set(2, 20);
  EXPECT_EQ(m.bytes(), 40u);
  EXPECT_EQ(MapTable::kEntryBytes, 20u);
}

TEST(MapTable, MaxBytesIsHighWatermark) {
  MapTable m;
  for (Lba l = 0; l < 100; ++l) m.set(l, l + 1000);
  for (Lba l = 0; l < 90; ++l) m.clear(l);
  EXPECT_EQ(m.bytes(), 10 * MapTable::kEntryBytes);
  EXPECT_EQ(m.max_bytes(), 100 * MapTable::kEntryBytes);
}

TEST(MapTable, ResolveRunMatchesScalarResolve) {
  // Mixed run: redirected, identity-mapped, dead, and past-end LBAs — the
  // run variant must agree with resolve() at every position, including the
  // out-of-table tail (kInvalidPba).
  MapTable m;
  m.set(2, 500);
  m.set_identity(3);
  m.set(5, 777);
  m.set_identity_run(7, 2);

  const Lba lba0 = 0;
  const std::size_t n = 12;  // extends past the table's high-water mark
  std::vector<Pba> run(n, 12345);
  m.resolve_run(lba0, n, run.data());
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(run[i], m.resolve(lba0 + i));
  }
}

TEST(MapTable, ResolveRunEntirelyPastEnd) {
  MapTable m;
  m.set(0, 9);
  std::vector<Pba> run(4, 0);
  m.resolve_run(100, 4, run.data());
  for (const Pba p : run) EXPECT_EQ(p, kInvalidPba);
}

}  // namespace
}  // namespace pod
