// Fixture: one forbidden gather per section — coarsening (above the
// initial-partitioning marker; unsuppressible even with an allow()) and
// refinement (untagged).
#include <vector>

#include "parallel/pe_runtime.hpp"

namespace kappa {

void coarsen(PEContext& pe) {
  // kappa-lint: allow(no-coarsening-gathers, "an allow() must not silence this")
  const auto maps = pe.all_gather_vectors({});  // fires: unsuppressible
  (void)maps;
}

// ------------------------------------------------ SPMD initial partition ----

void initial(PEContext& pe) {
  const auto pool = pe.all_gather(1);  // silent: between the markers
  (void)pool;
}

// -------------------------------------------------------- SPMD refinement ----

void refine(PEContext& pe) {
  const auto blocks = pe.all_gather_vectors({});  // fires: untagged
  (void)blocks;
}

}  // namespace kappa
