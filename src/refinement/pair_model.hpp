/// \file pair_model.hpp
/// \brief The graph access of the pair kernel, and its model over a
/// StaticGraph with a Partition.
///
/// The pair kernel — band BFS and boundary refresh (band.hpp), two-way FM
/// (twoway_fm.hpp) and refine_pair() (pairwise_refiner.hpp) — is written
/// once, as templates over a model of one pair's graph and partition
/// state. A model names nodes by dense ids in [0, id_space()) and
/// provides:
///
///   row(u)           u's arcs as parallel target / weight spans, in the
///                    model's row order; arcs leaving the pair may appear
///                    (the kernel skips them by block);
///   node_weight(u)   u's node weight;
///   block(u)         u's current block;
///   move(u, to)      moves u to the other block of the pair (mutable
///                    models only);
///   block_weight(b)  the current weight of block b, asked only for the
///                    pair's two blocks;
///   may_move(u)      whether u may enter a band, and so move at all;
///   order_key(u)     the key that orders ids wherever the kernel sorts or
///                    compares them.
///
/// The kernel asks for row(u) and node_weight(u) only of nodes that may
/// move, so a model need not hold the rows of its frozen context nodes.
/// Two models that agree on the in-pair arcs of those rows, on their
/// weights, on blocks, movability and the order of their keys give the
/// same searches: the
/// same bands in the same order, the same moves and the same gains. The
/// models are GraphPairModel below (the sequential refiner and initial
/// bisection, where every node may move) and the SPMD executor's pair
/// rows (parallel/resident_pair.hpp), whose ids are partition-state
/// slots and whose order key is the global id.
#pragma once

#include <span>
#include <type_traits>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "util/types.hpp"

namespace kappa {

/// One node's arcs as a model hands them to the kernel.
struct PairRow {
  std::span<const NodeID> targets;
  std::span<const EdgeWeight> weights;  ///< parallel to targets
};

/// A StaticGraph and its Partition as a pair model: ids are node ids,
/// the order key is the id itself, and every node may move. \p P is
/// Partition, or const Partition for the read-only kernels (band BFS,
/// boundary refresh).
template <typename P>
class GraphPairModel {
  static_assert(std::is_same_v<std::remove_const_t<P>, Partition>);

 public:
  GraphPairModel(const StaticGraph& graph, P& partition)
      : graph_(graph), partition_(partition) {}

  [[nodiscard]] NodeID id_space() const { return graph_.num_nodes(); }
  [[nodiscard]] PairRow row(NodeID u) const {
    return {graph_.neighbors(u), graph_.neighbor_weights(u)};
  }
  [[nodiscard]] NodeWeight node_weight(NodeID u) const {
    return graph_.node_weight(u);
  }
  [[nodiscard]] BlockID block(NodeID u) const { return partition_.block(u); }
  void move(NodeID u, BlockID to)
    requires(!std::is_const_v<P>)
  {
    partition_.move(u, to, graph_.node_weight(u));
  }
  [[nodiscard]] NodeWeight block_weight(BlockID b) const {
    return partition_.block_weight(b);
  }
  [[nodiscard]] bool may_move(NodeID) const { return true; }
  [[nodiscard]] NodeID order_key(NodeID u) const { return u; }

 private:
  const StaticGraph& graph_;
  P& partition_;
};

}  // namespace kappa
