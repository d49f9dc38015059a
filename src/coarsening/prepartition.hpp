/// \file prepartition.hpp
/// \brief Pre-partitioning of nodes onto PEs for matching locality (§3.3).
///
/// "We first compute a preliminary partition of the graph, e.g., using
/// coordinate information. Currently we have implemented a recursive
/// bisection algorithm for nodes with 2D coordinates that alternately
/// splits the data by the x-coordinate and the y-coordinate. We can also
/// use the initial numbering of the nodes. Note that the initial
/// partitioning does not directly affect the final partitioning computed
/// later – its main purpose is to increase locality."
///
/// Without coordinates (METIS input), contiguous ranges of the input
/// numbering give no locality when the numbering is random, so the
/// fallback cuts a BFS order instead: §8's "very fast prepartitioner that
/// works purely graph theoretically", in one O(n + m) sweep.
///
/// Both pipelines call it once per hierarchy build, on the finest level;
/// contraction carries the shards down (build_hierarchy, DistHierarchy).
#pragma once

#include <vector>

#include "graph/static_graph.hpp"
#include "util/types.hpp"

namespace kappa {

/// Assigns every node a home PE in [0, num_pes) by recursive coordinate
/// bisection (alternating x/y median splits, Bentley/Berger–Bokhari style).
/// Requires graph.has_coordinates(). Part sizes differ by at most one node
/// for power-of-two PE counts and stay proportional otherwise.
[[nodiscard]] std::vector<BlockID> geometric_prepartition(
    const StaticGraph& graph, BlockID num_pes);

/// Fallback without coordinates: one BFS per connected component, the
/// components in order of their lowest id and each BFS started there; the
/// combined order is cut into \p num_pes contiguous ranges of
/// floor(n / num_pes) or ceil(n / num_pes) nodes. A pure function of the
/// graph. A range is a slice of BFS layers, so it is compact for a few
/// ranges but turns into thin bands as num_pes grows: on rgg and delaunay
/// graphs of 2^14-2^15 nodes, 42-71% of the edges stay inside a range at
/// 64 ranges, against 92-94% for geometric_prepartition().
[[nodiscard]] std::vector<BlockID> bfs_order_prepartition(
    const StaticGraph& graph, BlockID num_pes);

/// Dispatches to the geometric variant when coordinates exist, else to the
/// BFS order.
[[nodiscard]] std::vector<BlockID> prepartition(const StaticGraph& graph,
                                                BlockID num_pes);

}  // namespace kappa
