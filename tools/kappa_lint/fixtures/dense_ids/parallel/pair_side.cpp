// Fixture: the pair-side codec resolving arc targets through a hash set
// instead of band and fringe indices.
#include "util/seeded_hash.hpp"

namespace kappa {

bool names_band_node(unsigned target) {
  hash_set<unsigned> band;  // fires
  return band.contains(target);
}

}  // namespace kappa
