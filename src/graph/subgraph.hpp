/// \file subgraph.hpp
/// \brief Induced subgraph extraction with node mappings.
///
/// Used by the parallel matching phase (each PE matches the subgraph
/// induced by its local nodes, §3.3) and by pairwise refinement (the
/// two-block band subgraph, §5.2).
#pragma once

#include <span>
#include <vector>

#include "graph/static_graph.hpp"
#include "util/types.hpp"

namespace kappa {

/// An induced subgraph plus the bidirectional node mapping.
struct Subgraph {
  StaticGraph graph;
  std::vector<NodeID> local_to_global;  ///< size = subgraph nodes
  std::vector<NodeID> global_to_local;  ///< kInvalidNode for outside nodes
};

/// Extracts the subgraph induced by \p nodes (must be duplicate-free).
/// Edges leaving the node set are dropped; weights are preserved.
[[nodiscard]] Subgraph induced_subgraph(const StaticGraph& graph,
                                        const std::vector<NodeID>& nodes);

/// The CSR rows of a node set, extracted verbatim: per node its weight
/// and its *full* arc list — targets stay in the source graph's id space,
/// in the source graph's arc order. Unlike induced_subgraph(), arcs
/// leaving the set are kept. This is the unit of data distribution for
/// the ghost-layer structures of the SPMD pipeline: whoever holds a row
/// can reproduce the node's neighborhood exactly as the replica stores
/// it, so row content is independent of which rank shipped it.
struct RowSet {
  std::vector<NodeID> ids;          ///< the extracted nodes (as passed)
  std::vector<EdgeID> xadj;         ///< ids.size() + 1 offsets
  std::vector<NodeID> adj;          ///< arc targets (source id space)
  std::vector<EdgeWeight> ewgt;     ///< arc weights
  std::vector<NodeWeight> vwgt;     ///< node weights

  /// Resident adjacency entries.
  [[nodiscard]] std::size_t num_arcs() const { return adj.size(); }

  /// Arc targets of the \p i-th row.
  [[nodiscard]] std::span<const NodeID> targets(std::size_t i) const {
    return {adj.data() + xadj[i], adj.data() + xadj[i + 1]};
  }
};

/// Extracts the rows of \p nodes (must be duplicate-free) from \p graph.
[[nodiscard]] RowSet extract_rows(const StaticGraph& graph,
                                  const std::vector<NodeID>& nodes);

}  // namespace kappa
