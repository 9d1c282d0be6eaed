#include "engines/io_dedup.hpp"

#include "common/digest.hpp"

namespace pod {

namespace {
EngineConfig no_index_split(EngineConfig cfg) {
  cfg.index_fraction = 0.0;  // no fingerprint-index cache
  return cfg;
}
}  // namespace

IoDedupEngine::IoDedupEngine(Simulator& sim, Volume& volume, EngineConfig cfg)
    : DedupEngine(sim, volume, no_index_split(std::move(cfg))),
      content_cache_(static_cast<std::size_t>(cfg_.memory_bytes / kBlockSize)) {
  // The base read cache and the content cache would double-count memory;
  // disable the base cache.
  read_cache_.resize(0);
}

std::uint64_t IoDedupEngine::state_digest() const {
  StateDigest d;
  d.add(DedupEngine::state_digest());
  d.add(content_cache_.state_digest());
  d.add(content_hits_);
  d.add(content_misses_);
  return d.value();
}

DedupEngine::IoPlan IoDedupEngine::process_write(const IoRequest& req,
                                                 SimTime /*now*/) {
  IoPlan plan;
  // Koller & Rangaswami compute content signatures *out of band* (in the
  // background, off the critical path), so unlike the inline dedup engines
  // no fingerprint latency is charged to the write itself.
  hash_.note_chunks_hashed(req.nblocks);
  scratch_.reset_write(req.nblocks);
  write_remaining_chunks(req, scratch_, plan);
  return plan;
}

DedupEngine::IoPlan IoDedupEngine::process_read(const IoRequest& req,
                                                SimTime /*now*/) {
  IoPlan plan;
  WriteScratch& s = scratch_;
  s.aux_runs.clear();
  for (std::uint32_t i = 0; i < req.nblocks; ++i) {
    const Lba lba = req.lba + i;
    Pba pba = store_.resolve(lba);
    if (pba == kInvalidPba) pba = static_cast<Pba>(lba);
    const Fingerprint* fp = store_.fingerprint_of(pba);
    const std::uint64_t key = fp != nullptr ? fp->prefix64() : pba;
    const auto tag = content_cache_.hash_tag(key);
    const auto found = content_cache_.find(tag, key);
    if (content_cache_.resident(found)) {
      content_cache_.promote(found.slot);
      ++content_hits_;
      continue;
    }
    ++content_misses_;
    content_cache_.insert(tag, key);
    s.aux_runs.emplace_back(pba, 1);
  }
  coalesce_into(s.aux_runs, OpType::kRead, plan.stage1);
  return plan;
}

}  // namespace pod
