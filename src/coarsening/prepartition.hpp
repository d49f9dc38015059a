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
/// Both pipelines call it once per hierarchy build, on the finest level;
/// contraction carries the shards down (build_hierarchy, DistHierarchy).
#pragma once

#include <vector>

#include "graph/static_graph.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kappa {

/// Assigns every node a home PE in [0, num_pes) by recursive coordinate
/// bisection (alternating x/y median splits, Bentley/Berger–Bokhari style).
/// Requires graph.has_coordinates(). Part sizes differ by at most one node
/// for power-of-two PE counts and stay proportional otherwise.
[[nodiscard]] std::vector<BlockID> geometric_prepartition(
    const StaticGraph& graph, BlockID num_pes);

/// Fallback without coordinates: contiguous ranges of the initial node
/// numbering (many mesh generators emit locality-preserving numberings).
[[nodiscard]] std::vector<BlockID> numbering_prepartition(NodeID num_nodes,
                                                          BlockID num_pes);

/// Purely graph-theoretic prepartitioner (the §8 future-work item "for
/// very large systems we want to develop a very fast prepartitioner that
/// works purely graph theoretically"): k-center-style seed selection by
/// repeated farthest-point BFS, then balanced multi-source BFS growth —
/// one O(m) sweep per phase. Quality is below recursive bisection but it
/// needs neither coordinates nor a good numbering.
[[nodiscard]] std::vector<BlockID> bfs_prepartition(const StaticGraph& graph,
                                                    BlockID num_pes,
                                                    Rng& rng);

/// Dispatches to the geometric variant when coordinates exist, else to the
/// numbering variant.
[[nodiscard]] std::vector<BlockID> prepartition(const StaticGraph& graph,
                                                BlockID num_pes);

}  // namespace kappa
