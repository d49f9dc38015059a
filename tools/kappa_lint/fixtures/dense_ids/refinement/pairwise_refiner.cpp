// Fixture: the pair kernel recording each band node's entry block in a
// hash map instead of an id-indexed stamp array — one hash insert per
// band node of every pair.
#include "util/seeded_hash.hpp"

namespace kappa {

unsigned entry_block_of(unsigned u, unsigned block) {
  hash_map<unsigned, unsigned> entry_block;  // fires
  entry_block.emplace(u, block);
  return entry_block.at(u);
}

}  // namespace kappa
