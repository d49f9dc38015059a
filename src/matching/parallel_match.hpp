/// \file parallel_match.hpp
/// \brief Parallel matching via local matching + gap graph (§3.3), on one
/// level graph in one address space.
///
/// Strategy after Manne & Bisseling: the nodes are pre-partitioned among
/// PEs (shards). Each PE runs a sequential matcher on the subgraph induced
/// by its local nodes. The *gap graph* consists of the cross-PE edges
/// whose rating exceeds the ratings of the locally matched edges at both
/// endpoints; on it, edges that are locally heaviest at both endpoints are
/// matched iteratively until none remain. The shard matching and the gap
/// rules are DistHierarchy::match_level's (matching/tentative_match.hpp),
/// so on the same shards both compute the same matching.
#pragma once

#include <vector>

#include "graph/static_graph.hpp"
#include "matching/matchers.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kappa {

/// Statistics of one parallel matching run (exported for the scalability
/// experiments: cross-PE work is what an MPI implementation communicates).
struct ParallelMatchingStats {
  NodeID local_pairs = 0;       ///< pairs matched inside PEs
  NodeID gap_pairs = 0;         ///< pairs matched across PE boundaries
  std::size_t gap_edges = 0;    ///< size of the gap graph
  std::size_t gap_rounds = 0;   ///< iterations of the locally-heaviest loop
};

/// Computes a matching with the two-phase parallel scheme.
///
/// \param node_to_pe  home PE of every node (values in [0, num_pes))
/// \param level_rng   the level's stream (PE s draws level_rng.fork(1 + s))
/// \param stats       optional output statistics
///
/// A gap edge that wins both of its endpoints dissolves any local matches
/// of those endpoints (their former partners become unmatched), exactly as
/// a distributed implementation would renege on a tentative local match
/// when a heavier cross-boundary edge materializes.
[[nodiscard]] std::vector<NodeID> parallel_matching(
    const StaticGraph& graph, const std::vector<BlockID>& node_to_pe,
    BlockID num_pes, MatcherAlgo algo, const MatchingOptions& options,
    const Rng& level_rng, ParallelMatchingStats* stats = nullptr);

}  // namespace kappa
