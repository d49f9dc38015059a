#include "parallel/dist_graph.hpp"

#include "coarsening/prepartition.hpp"

namespace kappa {

namespace {

/// Whether shard \p s is materialized for \p rank (rank < 0: all shards,
/// the replicated build).
bool materializes(BlockID s, int rank, int num_pes) {
  return rank < 0 || DistGraph::owner_of_shard(s, num_pes) == rank;
}

}  // namespace

DistGraph::DistGraph(const StaticGraph& graph, BlockID num_shards)
    : DistGraph(graph, num_shards, /*rank=*/-1, /*num_pes=*/1) {}

DistGraph::DistGraph(const StaticGraph& graph, BlockID num_shards, int rank,
                     int num_pes)
    : graph_(&graph),
      node_to_shard_(prepartition(graph, num_shards)),
      shards_(num_shards) {
  const NodeID n = graph.num_nodes();
  if (rank >= 0) owned_index_.assign(n, kInvalidNode);
  NodeID num_owned = 0;
  for (NodeID u = 0; u < n; ++u) {
    const BlockID su = node_to_shard_[u];
    if (!materializes(su, rank, num_pes)) continue;
    shards_[su].nodes.push_back(u);
    if (rank >= 0) owned_index_[u] = num_owned++;
  }
  for (NodeID u = 0; u < n; ++u) {
    const BlockID su = node_to_shard_[u];
    if (!materializes(su, rank, num_pes)) continue;
    for (EdgeID e = graph.first_arc(u); e < graph.last_arc(u); ++e) {
      const NodeID v = graph.arc_target(e);
      if (node_to_shard_[v] == su) continue;
      shards_[su].cross_arcs.push_back({u, v, graph.arc_weight(e)});
    }
  }
}

std::vector<BlockID> DistGraph::shards_of_rank(int rank, int num_pes) const {
  std::vector<BlockID> result;
  for (BlockID s = static_cast<BlockID>(rank); s < num_shards();
       s += static_cast<BlockID>(num_pes)) {
    result.push_back(s);
  }
  return result;
}

}  // namespace kappa
