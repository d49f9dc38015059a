// Negative control: the partition state's ghost-block cache is keyed by
// arbitrary global ids learned mid-level; it lies outside the dense-id
// files, so dense-level-ids stays silent (and a keyed lookup is no
// determinism hazard either).
#include "util/seeded_hash.hpp"

namespace kappa {

unsigned cached_slot(unsigned global) {
  hash_map<unsigned, unsigned> cache_slot;  // silent: not a dense-id file
  cache_slot[global] = 7;
  return cache_slot.at(global);
}

}  // namespace kappa
