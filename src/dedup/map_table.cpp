#include "dedup/map_table.hpp"

#include <algorithm>

namespace pod {

void MapTable::reserve(std::uint64_t logical_blocks) {
  if (table_.size() < logical_blocks)
    table_.resize(static_cast<std::size_t>(logical_blocks));
}

void MapTable::set(Lba lba, Pba pba) {
  grow_to(static_cast<std::size_t>(lba) + 1);
  PackedPba& slot = table_[static_cast<std::size_t>(lba)];
  if (~slot >= kIdentityHome) {
    ++entries_;
    max_entries_ = std::max(max_entries_, entries_);
  }
  slot = ~narrow_pba(pba);
}

void MapTable::set_identity(Lba lba) {
  grow_to(static_cast<std::size_t>(lba) + 1);
  PackedPba& slot = table_[static_cast<std::size_t>(lba)];
  if (~slot < kIdentityHome) --entries_;
  slot = ~kIdentityHome;
}

void MapTable::set_identity_run(Lba lba0, std::size_t n) {
  if (n == 0) return;
  grow_to(static_cast<std::size_t>(lba0 + n));
  PackedPba* slot = table_.data() + static_cast<std::size_t>(lba0);
  for (std::size_t k = 0; k < n; ++k) {
    if (~slot[k] < kIdentityHome) --entries_;
    slot[k] = ~kIdentityHome;
  }
}

void MapTable::set_run(Lba lba0, Pba pba0, std::size_t n) {
  if (n == 0) return;
  grow_to(static_cast<std::size_t>(lba0 + n));
  POD_DCHECK(pba0 + n <= kPackedPbaLimit);
  PackedPba* slot = table_.data() + static_cast<std::size_t>(lba0);
  const PackedPba first = narrow_pba(pba0);
  for (std::size_t k = 0; k < n; ++k) {
    if (~slot[k] >= kIdentityHome) ++entries_;
    slot[k] = ~(first + static_cast<PackedPba>(k));
  }
  max_entries_ = std::max(max_entries_, entries_);
}

void MapTable::clear_run(Lba lba0, std::size_t n) {
  if (lba0 >= table_.size()) return;
  const std::size_t end =
      std::min(table_.size(), static_cast<std::size_t>(lba0) + n);
  for (std::size_t k = static_cast<std::size_t>(lba0); k < end; ++k) {
    if (~table_[k] < kIdentityHome) --entries_;
    table_[k] = ~kPackedInvalid;
  }
}

void MapTable::clear(Lba lba) {
  if (lba >= table_.size()) return;
  PackedPba& slot = table_[static_cast<std::size_t>(lba)];
  if (~slot < kIdentityHome) --entries_;
  slot = ~kPackedInvalid;
}

}  // namespace pod
