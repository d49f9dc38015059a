#include "refinement/pairwise_refiner.hpp"

#include <vector>

#include "graph/quotient_graph.hpp"
#include "refinement/edge_coloring.hpp"

namespace kappa {

PairRefineResult refine_pair(const StaticGraph& graph, Partition& partition,
                             BlockID a, BlockID b,
                             const std::vector<NodeID>& boundary_seeds,
                             const PairwiseRefinerOptions& options,
                             const Rng& rng, std::uint64_t seed_tag,
                             bool collect_moves) {
  GraphPairModel model(graph, partition);
  return refine_pair(model, a, b, boundary_seeds, options, rng, seed_tag,
                     collect_moves);
}

PairwiseRefineReport pairwise_refine(const StaticGraph& graph,
                                     Partition& partition,
                                     const PairwiseRefinerOptions& options,
                                     Rng& rng) {
  PairwiseRefineReport report;
  int no_change_streak = 0;

  for (int global = 0; global < options.max_global_iterations; ++global) {
    const QuotientGraph quotient(graph, partition);
    if (quotient.edges().empty()) break;  // every block is isolated

    Rng color_rng = rng.fork(coloring_fork_tag(global));
    const EdgeColoring coloring = color_quotient_edges(quotient, color_rng);

    // The pairs of one color class are block-disjoint; they run one after
    // another, in class order.
    EdgeWeight iteration_cut_gain = 0;
    NodeWeight iteration_imbalance_gain = 0;
    for (int color = 0; color < coloring.num_colors; ++color) {
      for (const std::size_t e : coloring.color_class(color)) {
        const QuotientEdge& edge = quotient.edges()[e];
        const PairRefineResult result =
            refine_pair(graph, partition, edge.a, edge.b, edge.boundary,
                        options, rng, pair_seed_tag(global, e),
                        /*collect_moves=*/false);
        iteration_cut_gain += result.cut_gain;
        iteration_imbalance_gain += result.imbalance_gain;
      }
    }

    report.total_cut_gain += iteration_cut_gain;
    report.global_iterations = global + 1;

    if (iteration_cut_gain > 0 || iteration_imbalance_gain > 0) {
      no_change_streak = 0;
    } else if (++no_change_streak >= options.stop_no_change) {
      break;
    }
  }
  return report;
}

}  // namespace kappa
