// Software-prefetch shim for the prefetch-pipelined table paths.
//
// The fused index lookup (IndexCache::lookup_fused) and the bulk inserts
// (IndexCache::insert_batch) warm home buckets before the probes that need
// them, turning a chain of dependent cache misses into a pipelined pass.
// Prefetching is purely a hint: correctness never depends on it, so the shim
// degrades to a no-op on compilers without __builtin_prefetch.
#pragma once

namespace pod {

inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace pod
