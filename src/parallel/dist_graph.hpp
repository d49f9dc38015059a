/// \file dist_graph.hpp
/// \brief Sharded view of a CSR graph for the SPMD pipeline (§3.3).
///
/// The paper distributes the graph so that every PE owns one shard of the
/// nodes, chosen by the geometric pre-partition when coordinates exist and
/// by the initial numbering otherwise ("its main purpose is to increase
/// locality"). This class computes that sharding and exposes, per shard,
/// the owned node set and the cross-shard (boundary) arcs — everything a
/// PE's local computation may touch.
///
/// Shards are *virtual*: their count is fixed by the algorithm (one per
/// block, as the paper identifies PEs with blocks), not by the physical
/// PE count of the runtime. A runtime of p PEs owns the shards round-robin
/// (shard s belongs to rank s mod p), which makes every shard-keyed
/// computation — and hence the partition — independent of p. The graph
/// *data* is sharded too: the rank-filtered constructor materializes
/// only the owned shards' structure, and parallel/shard_graph.hpp builds
/// from it the per-rank owned+ghost CSR the matching inner loops read.
/// The SPMD discipline is that a PE only *writes* state of its own
/// shards and learns remote state — ghost weights as much as tentative
/// matches, taken flags and block moves — exclusively through channel
/// messages and collectives.
#pragma once

#include <vector>

#include "graph/static_graph.hpp"
#include "util/types.hpp"

namespace kappa {

/// One cross-shard arc: a local endpoint, a remote endpoint in another
/// shard, and the edge weight. The SPMD hierarchy also records where
/// both endpoints live in the rank's resident layer (ShardGraph local
/// ids), resolved once when the level is sealed, so its matching and
/// contraction loops index arrays instead of looking ids up per arc.
struct CrossShardArc {
  NodeID u = kInvalidNode;  ///< endpoint inside the owning shard
  NodeID v = kInvalidNode;  ///< endpoint in shard(v) != shard(u)
  EdgeWeight weight = 0;
  NodeID lu = kInvalidNode;  ///< resident local id of u (once sealed)
  NodeID lv = kInvalidNode;  ///< resident local id of v (once sealed)
};

/// One shard: the nodes a virtual PE owns plus its boundary structure.
struct GraphShard {
  std::vector<NodeID> nodes;            ///< owned nodes (global ids, sorted)
  std::vector<CrossShardArc> cross_arcs;  ///< arcs leaving the shard
};

/// Shards \p graph into \p num_shards parts via the pre-partitioner
/// (geometric when coordinates exist, node numbering otherwise).
class DistGraph {
 public:
  DistGraph(const StaticGraph& graph, BlockID num_shards);

  /// Rank-filtered build: computes the full node -> shard ownership map
  /// (every rank needs it to locate neighbors) but materializes node
  /// lists and cross-arc structure only for the shards rank \p rank owns
  /// in a runtime of \p num_pes PEs — the per-PE data stays O(n/p +
  /// boundary) instead of O(n + boundary). shard(s) of a remote shard is
  /// empty.
  DistGraph(const StaticGraph& graph, BlockID num_shards, int rank,
            int num_pes);

  [[nodiscard]] const StaticGraph& graph() const { return *graph_; }

  [[nodiscard]] BlockID num_shards() const {
    return static_cast<BlockID>(shards_.size());
  }

  /// Home shard of a node.
  [[nodiscard]] BlockID shard_of(NodeID u) const { return node_to_shard_[u]; }

  /// Full node -> shard assignment.
  [[nodiscard]] const std::vector<BlockID>& node_to_shard() const {
    return node_to_shard_;
  }

  /// Rank-filtered builds: per node, its position among the filtering
  /// rank's owned nodes in ascending id order (the node's local id in
  /// that rank's ShardGraph), kInvalidNode for nodes of other ranks.
  /// Filled in the same pass as the shard lists; empty for the
  /// replicated build.
  [[nodiscard]] const std::vector<NodeID>& owned_index() const {
    return owned_index_;
  }

  [[nodiscard]] const GraphShard& shard(BlockID s) const { return shards_[s]; }

  /// Physical owner of shard \p s in a runtime of \p num_pes PEs
  /// (round-robin, the p-invariant work distribution).
  [[nodiscard]] static int owner_of_shard(BlockID s, int num_pes) {
    return static_cast<int>(s % static_cast<BlockID>(num_pes));
  }

  /// Physical owner of node \p u in a runtime of \p num_pes PEs.
  [[nodiscard]] int owner_of_node(NodeID u, int num_pes) const {
    return owner_of_shard(node_to_shard_[u], num_pes);
  }

  /// Shards owned by physical rank \p rank in a runtime of \p num_pes.
  [[nodiscard]] std::vector<BlockID> shards_of_rank(int rank,
                                                    int num_pes) const;

 private:
  const StaticGraph* graph_;
  std::vector<BlockID> node_to_shard_;
  std::vector<NodeID> owned_index_;
  std::vector<GraphShard> shards_;
};

}  // namespace kappa
