// dnh-analyze-fixture: path=src/core/hot_path_bound.hpp expect=hot-path-bound@17,hot-path-bound@18,hot-path-bound@19,hot-path-bound@21
// Hot-path map/deque/FlatHash declarations carry bounded(<mechanism>)
// naming an identifier that exists in the scanned sources; a missing
// tag or a made-up mechanism is flagged.
#pragma once

#include <deque>
#include <map>
#include <unordered_map>

#include "util/flat_hash.hpp"

namespace dnh::core {

class Caches {
 private:
  std::unordered_map<std::uint64_t, std::uint64_t> unbounded_;
  util::FlatHash<std::uint64_t, std::uint32_t> unbounded_flat_;
  mutable std::multimap<std::uint64_t, int> unbounded_multi_;
  // dnh-analyze: bounded(evict_oldest_entries)
  std::unordered_map<std::uint64_t, std::uint64_t> made_up_;

  void evict_oldest() { order_.pop_front(); }
  void sweep_idle() { flat_.clear(); }
  // dnh-analyze: bounded(evict_oldest)
  std::map<std::uint64_t, std::vector<std::uint16_t>> templates_;
  // dnh-analyze: bounded(evict_oldest)
  std::deque<std::uint64_t> order_;
  // dnh-analyze: bounded(sweep_idle)
  dnh::util::FlatHash<std::uint64_t, std::uint32_t> flat_;
  // dnh-analyze: allow(hot-path-bound, one entry per rotated window, not
  // per packet; the merge thread drains it continuously)
  std::deque<std::uint64_t> inbox_;
};

}  // namespace dnh::core
