#include "sim/simulator.hpp"

#include "common/check.hpp"

namespace pod {

bool Simulator::step() {
  if (events_.empty()) return false;
  const SimTime at = events_.next_time();
  POD_DCHECK(at >= now_);
  now_ = at;
  ++events_executed_;
  events_.run_next();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::advance_to(SimTime t) {
  POD_CHECK(t >= now_);
  POD_CHECK(events_.empty() || t <= events_.next_time());
  now_ = t;
}

void Simulator::run_until(SimTime until) {
  while (!events_.empty() && events_.next_time() <= until) step();
  if (now_ < until) now_ = until;
}

void Simulator::reset() {
  now_ = 0;
  events_.clear();
  events_executed_ = 0;
}

}  // namespace pod
