#include "coarsening/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "coarsening/prepartition.hpp"
#include "util/logging.hpp"

namespace kappa {

NodeID contraction_stop_threshold(NodeID n, BlockID k, double alpha) {
  const double per_pe =
      std::max(20.0, static_cast<double>(n) /
                         (alpha * static_cast<double>(k) *
                          static_cast<double>(k)));
  const double global = per_pe * static_cast<double>(k);
  return static_cast<NodeID>(std::min<double>(global, n));
}

MatchingOptions hierarchy_match_options(const StaticGraph& graph,
                                        const CoarseningOptions& options) {
  MatchingOptions match_options;
  match_options.rating = options.rating;
  const double bound = options.max_pair_weight_factor *
                       static_cast<double>(graph.total_node_weight()) /
                       std::max<double>(options.contraction_limit, 1.0);
  match_options.max_pair_weight = std::max<NodeWeight>(
      std::min(static_cast<NodeWeight>(bound), options.max_pair_weight_cap),
      2 * graph.max_node_weight());
  return match_options;
}

Hierarchy build_hierarchy(const StaticGraph& graph,
                          const CoarseningOptions& options, Rng& rng) {
  Hierarchy hierarchy(graph);

  MatchingOptions match_options = hierarchy_match_options(graph, options);

  // Warm start: the assignment the matchings must respect, projected level
  // by level alongside the hierarchy (intra-block contraction keeps the
  // projection well defined).
  std::vector<BlockID> warm_blocks;
  if (options.warm_start != nullptr) {
    warm_blocks = options.warm_start->assignment();
  }

  // §3.3's preliminary partition, once on the finest level; contract()
  // carries it down, as DistHierarchy does. Empty: unsharded.
  const BlockID num_shards = options.matching_pes;
  std::vector<BlockID> shards;
  if (num_shards > 1) shards = prepartition(graph, num_shards);

  std::size_t level = 0;
  while (hierarchy.coarsest().num_nodes() > options.contraction_limit) {
    const StaticGraph& current = hierarchy.coarsest();
    // The block-respecting policy: the matchers themselves filter
    // cross-block candidates during rating (MatchingOptions::blocks), so
    // a boundary node picks its best intra-block partner instead of
    // losing its matched edge to a post-matching dissolve.
    match_options.blocks = warm_blocks.empty() ? nullptr : &warm_blocks;
    Rng level_rng = rng.fork(level);
    const std::vector<NodeID> partner =
        shards.empty()
            ? compute_matching(current, options.matcher, match_options,
                               level_rng)
            : parallel_matching(current, shards, num_shards, options.matcher,
                                match_options, level_rng);
#ifndef NDEBUG
    for (NodeID u = 0; !warm_blocks.empty() && u < current.num_nodes(); ++u) {
      assert((partner[u] == u || warm_blocks[u] == warm_blocks[partner[u]]) &&
             "matchers must respect the block constraint");
    }
#endif

    const NodeID pairs = matching_size(partner);
    if (pairs == 0) break;  // nothing contractible is left
    const double shrink =
        static_cast<double>(pairs) / static_cast<double>(current.num_nodes());

    ContractionResult result = contract(current, partner, shards);
    {
      std::ostringstream msg;
      msg << "level " << level << ": n=" << current.num_nodes() << " -> "
          << result.coarse_graph.num_nodes() << " (matched " << pairs
          << " pairs)";
      log_debug(msg.str());
    }
    if (!warm_blocks.empty()) {
      std::vector<BlockID> coarse_blocks(result.coarse_graph.num_nodes());
      for (NodeID u = 0; u < current.num_nodes(); ++u) {
        coarse_blocks[result.fine_to_coarse[u]] = warm_blocks[u];
      }
      warm_blocks = std::move(coarse_blocks);
    }
    shards = std::move(result.coarse_to_shard);
    hierarchy.push_level(std::move(result.coarse_graph),
                         std::move(result.fine_to_coarse));
    ++level;
    if (shrink < options.min_shrink_factor) break;
  }
  return hierarchy;
}

}  // namespace kappa
