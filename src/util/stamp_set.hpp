/// \file stamp_set.hpp
/// \brief A set over a dense id range that clears in O(1).
///
/// The pair kernel marks ids of one pair's id space several times per
/// pair (band BFS, boundary refresh, FM eligibility, entry blocks). One
/// epoch stamp per id makes "clear" a counter increment: an id is a
/// member while its stamp equals the current epoch. The id range only
/// grows, so the scratch is allocated once per thread and id space size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kappa {

class StampSet {
 public:
  /// Empties the set and makes room for ids in [0, \p size).
  void clear(std::size_t size) {
    if (stamp_.size() < size) stamp_.resize(size, 0);
    if (++epoch_ == 0) {  // wrapped: old stamps could alias the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool contains(std::size_t id) const {
    return stamp_[id] == epoch_;
  }

  /// Adds \p id; false if it was a member already.
  bool insert(std::size_t id) {
    if (stamp_[id] == epoch_) return false;
    stamp_[id] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

}  // namespace kappa
