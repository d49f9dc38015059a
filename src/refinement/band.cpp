#include "refinement/band.hpp"

namespace kappa {

std::vector<NodeID> boundary_band(const StaticGraph& graph,
                                  const Partition& partition, BlockID a,
                                  BlockID b, int depth) {
  std::vector<NodeID> seeds;
  for (NodeID u = 0; u < graph.num_nodes(); ++u) {
    const BlockID bu = partition.block(u);
    if (bu != a && bu != b) continue;
    const BlockID other = bu == a ? b : a;
    for (const NodeID v : graph.neighbors(u)) {
      if (partition.block(v) == other) {
        seeds.push_back(u);
        break;
      }
    }
  }
  return boundary_band_from_seeds(GraphPairModel(graph, partition), a, b,
                                  seeds, depth);
}

}  // namespace kappa
