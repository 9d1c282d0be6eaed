#include "hash/hash_engine.hpp"

#include "hash/xx64.hpp"

namespace pod {

Fingerprint HashEngine::fingerprint(std::span<const std::uint8_t> chunk) const {
  ++chunks_hashed_;
  if (cfg_.algo == HashEngineConfig::Algo::kXx64)
    return Fingerprint::of_prefix(xx64(chunk));
  return Fingerprint::of_data(chunk);
}

}  // namespace pod
