#include "icache/access_monitor.hpp"

namespace pod {

AccessMonitor::AccessMonitor(const IndexCache& index, const ReadCache& read)
    : index_(index), read_(read), epoch_start_(take()) {}

AccessMonitor::Snapshot AccessMonitor::take() const {
  Snapshot s;
  s.read_hits = read_.hits();
  s.read_misses = read_.misses();
  s.read_ghost = read_.ghost_hits();
  s.read_near = read_.ghost_near_hits();
  s.index_hits = index_.hits();
  s.index_misses = index_.misses();
  s.index_ghost = index_.ghost_hits();
  s.index_near = index_.ghost_near_hits();
  return s;
}

EpochActivity AccessMonitor::current() const {
  const Snapshot now = take();
  EpochActivity a;
  a.read_hits = now.read_hits - epoch_start_.read_hits;
  a.read_misses = now.read_misses - epoch_start_.read_misses;
  a.read_ghost_hits = now.read_ghost - epoch_start_.read_ghost;
  a.read_ghost_near_hits = now.read_near - epoch_start_.read_near;
  a.index_hits = now.index_hits - epoch_start_.index_hits;
  a.index_misses = now.index_misses - epoch_start_.index_misses;
  a.index_ghost_hits = now.index_ghost - epoch_start_.index_ghost;
  a.index_ghost_near_hits = now.index_near - epoch_start_.index_near;
  return a;
}

EpochActivity AccessMonitor::end_epoch() {
  EpochActivity a = current();
  epoch_start_ = take();
  return a;
}

}  // namespace pod
