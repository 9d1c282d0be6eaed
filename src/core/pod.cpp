#include "core/pod.hpp"

#include "common/check.hpp"
#include "dedup/chunker.hpp"

namespace pod {

Pod::Pod(const PodConfig& cfg) : cfg_(cfg), sim_(std::make_unique<Simulator>()) {
  RunSpec spec;
  spec.engine = EngineKind::kPod;
  spec.raid = cfg.raid;
  spec.array_cfg = cfg.array;
  spec.engine_cfg.logical_blocks = cfg.logical_blocks;
  spec.engine_cfg.memory_bytes = cfg.memory_bytes;
  spec.engine_cfg.select_threshold = cfg.select_threshold;
  spec.engine_cfg.pool_fraction = cfg.pool_fraction;
  spec.engine_cfg.hash = cfg.hash;
  spec.pod.icache = cfg.icache;
  volume_ = make_volume(*sim_, spec);
  engine_ = std::make_unique<PodEngine>(*sim_, *volume_, spec.engine_cfg,
                                        spec.pod);
}

Pod::~Pod() = default;

void Pod::submit(const IoRequest& req, Completion done) {
  auto owned = std::make_unique<OwnedRequest>(req);  // deep-copies the chunks
  owned->req().id = next_id_++;
  if (owned->req().arrival < sim_->now()) owned->req().arrival = sim_->now();
  const IoRequest* ptr = &owned->req();
  inflight_.push_back(std::move(owned));
  const SimTime arrival = ptr->arrival;
  sim_->schedule_at(arrival,
                    [this, ptr, arrival, done = std::move(done)]() {
                      engine_->submit(*ptr, [this, arrival, done](IoStatus) {
                        if (done) done(sim_->now() - arrival);
                      });
                    });
}

void Pod::write(Lba lba, std::span<const std::uint8_t> data, Completion done) {
  POD_CHECK(!data.empty());
  POD_CHECK(data.size() % kBlockSize == 0);
  IoRequest req;
  req.type = OpType::kWrite;
  req.lba = lba;
  req.nblocks = static_cast<std::uint32_t>(data.size() / kBlockSize);
  std::vector<Fingerprint> fps;
  for (const DataChunk& c : Chunker().chunk(data, engine_->hash_engine()))
    fps.push_back(c.fp);
  req.chunks = fps;
  submit(req, std::move(done));  // submit deep-copies fps into inflight_
}

void Pod::write_fingerprinted(Lba lba, std::span<const Fingerprint> chunks,
                              Completion done) {
  POD_CHECK(!chunks.empty());
  IoRequest req;
  req.type = OpType::kWrite;
  req.lba = lba;
  req.nblocks = static_cast<std::uint32_t>(chunks.size());
  req.chunks = chunks;
  submit(req, std::move(done));
}

void Pod::read(Lba lba, std::uint32_t nblocks, Completion done) {
  POD_CHECK(nblocks > 0);
  IoRequest req;
  req.type = OpType::kRead;
  req.lba = lba;
  req.nblocks = nblocks;
  submit(req, std::move(done));
}

void Pod::run() {
  sim_->run();
  inflight_.clear();
}

SimTime Pod::now() const { return sim_->now(); }

const EngineStats& Pod::stats() const { return engine_->stats(); }
const ICacheStats& Pod::icache_stats() const { return engine_->icache().stats(); }
std::uint64_t Pod::physical_blocks_used() const {
  return engine_->physical_blocks_used();
}
std::uint64_t Pod::map_table_bytes() const { return engine_->map_table_bytes(); }
std::uint64_t Pod::logical_blocks() const { return cfg_.logical_blocks; }
double Pod::index_fraction() const { return engine_->icache().index_fraction(); }

}  // namespace pod
