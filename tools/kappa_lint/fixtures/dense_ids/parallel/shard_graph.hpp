// Fixture: hash containers creeping back into the dense-id coarsening
// store. Every per-arc step of matching and contraction must be an array
// index; a global -> local hash table here is a per-arc lookup.
#include "util/seeded_hash.hpp"

namespace kappa {

class ShardGraph {
 public:
  unsigned local_of(unsigned global) const {
    return global_to_local_.at(global);
  }

 private:
  hash_map<unsigned, unsigned> global_to_local_;  // fires
};

class BlockRowShard {
 private:
  // kappa-lint: allow(dense-level-ids, "row migrations look up one id per row event, never per arc")
  hash_map<unsigned, unsigned> handle_of_;  // silent: suppressed
};

inline bool seen_twice(unsigned a, unsigned b) {
  std::unordered_set<unsigned> seen;  // fires
  seen.insert(a);
  return seen.count(b) != 0;
}

}  // namespace kappa
