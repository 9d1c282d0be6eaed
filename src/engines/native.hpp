// Native: the baseline HDD system without any deduplication.
//
// Writes go to their home locations untouched; the entire memory budget
// serves as a read cache. Every other scheme in the evaluation is
// normalised against this engine (Figures 8-11).
#pragma once

#include "engines/engine.hpp"

namespace pod {

class NativeEngine : public DedupEngine {
 public:
  NativeEngine(Simulator& sim, Volume& volume, EngineConfig cfg);

  const char* name() const override { return "native"; }

 protected:
  IoPlan process_write(const IoRequest& req, SimTime now) override;
};

}  // namespace pod
