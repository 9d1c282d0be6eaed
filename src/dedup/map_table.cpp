#include "dedup/map_table.hpp"

#include <algorithm>
#include <cstring>

namespace pod {

void MapTable::resize(std::size_t slots) {
  ZeroedArray<Pba> bigger(slots);
  if (table_.size() > 0)
    std::memcpy(bigger.data(), table_.data(), table_.size() * sizeof(Pba));
  table_ = std::move(bigger);
}

void MapTable::reserve(std::uint64_t logical_blocks) {
  if (table_.size() < logical_blocks)
    resize(static_cast<std::size_t>(logical_blocks));
}

void MapTable::set(Lba lba, Pba pba) {
  grow_to(static_cast<std::size_t>(lba) + 1);
  Pba& slot = table_[static_cast<std::size_t>(lba)];
  if (~slot >= kIdentityHome) {
    ++entries_;
    max_entries_ = std::max(max_entries_, entries_);
  }
  slot = ~pba;
}

void MapTable::set_identity(Lba lba) {
  grow_to(static_cast<std::size_t>(lba) + 1);
  Pba& slot = table_[static_cast<std::size_t>(lba)];
  if (~slot < kIdentityHome) --entries_;
  slot = ~kIdentityHome;
}

void MapTable::set_identity_run(Lba lba0, std::size_t n) {
  if (n == 0) return;
  grow_to(static_cast<std::size_t>(lba0 + n));
  Pba* slot = table_.data() + static_cast<std::size_t>(lba0);
  for (std::size_t k = 0; k < n; ++k) {
    if (~slot[k] < kIdentityHome) --entries_;
    slot[k] = ~kIdentityHome;
  }
}

void MapTable::set_run(Lba lba0, Pba pba0, std::size_t n) {
  if (n == 0) return;
  grow_to(static_cast<std::size_t>(lba0 + n));
  Pba* slot = table_.data() + static_cast<std::size_t>(lba0);
  for (std::size_t k = 0; k < n; ++k) {
    if (~slot[k] >= kIdentityHome) ++entries_;
    slot[k] = ~(pba0 + k);
  }
  max_entries_ = std::max(max_entries_, entries_);
}

void MapTable::clear_run(Lba lba0, std::size_t n) {
  if (lba0 >= table_.size()) return;
  const std::size_t end =
      std::min(table_.size(), static_cast<std::size_t>(lba0) + n);
  for (std::size_t k = static_cast<std::size_t>(lba0); k < end; ++k) {
    if (~table_[k] < kIdentityHome) --entries_;
    table_[k] = ~kInvalidPba;
  }
}

void MapTable::clear(Lba lba) {
  if (lba >= table_.size()) return;
  Pba& slot = table_[static_cast<std::size_t>(lba)];
  if (~slot < kIdentityHome) --entries_;
  slot = ~kInvalidPba;
}

}  // namespace pod
