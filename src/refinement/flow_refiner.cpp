#include "refinement/flow_refiner.hpp"

namespace kappa {

FlowRefineResult flow_refine_pair(const StaticGraph& graph,
                                  Partition& partition, BlockID a, BlockID b,
                                  std::span<const NodeID> band,
                                  const FlowRefineOptions& options) {
  GraphPairModel model(graph, partition);
  return flow_refine_pair(model, a, b, band, options);
}

}  // namespace kappa
