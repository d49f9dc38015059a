/// \file contraction.hpp
/// \brief Matching contraction and partition projection (un-contraction).
#pragma once

#include <utility>
#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "util/types.hpp"

namespace kappa {

/// Result of contracting a matching: the coarse graph plus the surjective
/// mapping fine node -> coarse node needed to later project partitions back
/// (uncoarsening, §2).
struct ContractionResult {
  StaticGraph coarse_graph;
  std::vector<NodeID> fine_to_coarse;
  /// Sharded contractions: the shard of every coarse node, inherited from
  /// its lower-id fine node. Empty for an unsharded contraction.
  std::vector<BlockID> coarse_to_shard;
};

/// Contracts every matched edge of \p graph. \p partner encodes a matching:
/// partner[u] == v iff {u, v} is matched (symmetric), partner[u] == u for
/// unmatched nodes.
///
/// Per the paper (§2): the contracted node x of edge {u,v} gets
/// c(x) = c(u) + c(v); parallel edges arising from common neighbors are
/// merged with summed weight; self-loops vanish. Coarse ids follow the
/// canonical endpoints (the lower id of a pair, or an unmatched node) in
/// ascending fine id, and rows list targets in first-encounter order.
/// With a shard map \p node_to_shard the ids are shard-major, each coarse
/// node in its canonical endpoint's shard (coarse_to_shard), and rows are
/// sorted by target (merge_coarse_row()): the levels DistHierarchy builds.
[[nodiscard]] ContractionResult contract(
    const StaticGraph& graph, const std::vector<NodeID>& partner,
    const std::vector<BlockID>& node_to_shard = {});

/// Appends \p arcs (coarse target, weight; no self-arc) to \p adj / \p ewgt
/// as one row sorted by target, parallel arcs merged; returns the row's
/// weighted degree. The row form of sharded contraction and of
/// DistHierarchy's owner-computes contraction. Sorts \p arcs in place.
EdgeWeight merge_coarse_row(std::vector<std::pair<NodeID, EdgeWeight>>& arcs,
                            std::vector<NodeID>& adj,
                            std::vector<EdgeWeight>& ewgt);

/// Projects a partition of the coarse graph back onto the fine graph:
/// every fine node inherits the block of its coarse representative.
[[nodiscard]] Partition project_partition(
    const StaticGraph& fine_graph, const std::vector<NodeID>& fine_to_coarse,
    const Partition& coarse_partition);

}  // namespace kappa
