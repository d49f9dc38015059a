/// \file frozen_context_model.hpp
/// \brief A pair model over a StaticGraph in which only marked nodes may
/// move, for the kernel-contract tests.
///
/// The pair kernel reads row(u) and node_weight(u) only of nodes that may
/// move (refinement/pair_model.hpp), so a model need not hold the rows of
/// its frozen context. This model holds them but fails the running test
/// whenever the kernel asks for one, and whenever it moves a frozen node.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/pair_model.hpp"

namespace kappa {

template <typename P>
class FrozenContextModel {
 public:
  /// \p movable is indexed by node id; nonzero marks a node that may move.
  FrozenContextModel(const StaticGraph& graph, P& partition,
                     const std::vector<char>& movable)
      : inner_(graph, partition), movable_(movable) {}

  [[nodiscard]] NodeID id_space() const { return inner_.id_space(); }
  [[nodiscard]] PairRow row(NodeID u) const {
    if (!may_move(u)) ADD_FAILURE() << "row() of frozen node " << u;
    return inner_.row(u);
  }
  [[nodiscard]] NodeWeight node_weight(NodeID u) const {
    if (!may_move(u)) ADD_FAILURE() << "node_weight() of frozen node " << u;
    return inner_.node_weight(u);
  }
  [[nodiscard]] BlockID block(NodeID u) const { return inner_.block(u); }
  void move(NodeID u, BlockID to) {
    if (!may_move(u)) ADD_FAILURE() << "move() of frozen node " << u;
    inner_.move(u, to);
  }
  [[nodiscard]] NodeWeight block_weight(BlockID b) const {
    return inner_.block_weight(b);
  }
  [[nodiscard]] bool may_move(NodeID u) const { return movable_[u] != 0; }
  [[nodiscard]] NodeID order_key(NodeID u) const { return u; }

 private:
  GraphPairModel<P> inner_;
  const std::vector<char>& movable_;
};

}  // namespace kappa
