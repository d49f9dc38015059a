/// \file initial_test.cpp
/// \brief Tests for greedy graph growing, multilevel bisection, recursive
/// bisection and the repeated initial partitioning of §4.
#include <gtest/gtest.h>

#include <algorithm>

#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "initial/bipartition.hpp"
#include "initial/initial_partitioner.hpp"
#include "initial/recursive_bisection.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

TEST(GreedyGrowing, ReachesTargetWeight) {
  const StaticGraph g = grid_graph(20, 20);
  Rng rng(1);
  const auto side = greedy_growing_bisection(g, 200, rng);
  NodeWeight grown = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (side[u] == 0) grown += g.node_weight(u);
  }
  EXPECT_GE(grown, 200);
  EXPECT_LE(grown, 201);  // exceeds the target by at most one unit node
}

TEST(GreedyGrowing, GrownRegionIsConnectedOnConnectedGraph) {
  const StaticGraph g = grid_graph(16, 16);
  Rng rng(3);
  const auto side = greedy_growing_bisection(g, 128, rng);
  // BFS inside side 0 from any side-0 node must reach all of side 0.
  NodeID start = kInvalidNode;
  NodeID count = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (side[u] == 0) {
      start = u;
      ++count;
    }
  }
  ASSERT_NE(start, kInvalidNode);
  std::vector<bool> visited(g.num_nodes(), false);
  std::vector<NodeID> stack{start};
  visited[start] = true;
  NodeID reached = 1;
  while (!stack.empty()) {
    const NodeID u = stack.back();
    stack.pop_back();
    for (const NodeID v : g.neighbors(u)) {
      if (!visited[v] && side[v] == 0) {
        visited[v] = true;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(reached, count);
}

TEST(GreedyGrowing, HandlesDisconnectedGraphs) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(2, 3);
  builder.add_edge(4, 5);
  const StaticGraph g = builder.finalize();
  Rng rng(2);
  const auto side = greedy_growing_bisection(g, 4, rng);
  NodeWeight grown = 0;
  for (NodeID u = 0; u < 6; ++u) grown += (side[u] == 0) ? 1 : 0;
  EXPECT_EQ(grown, 4);
}

TEST(MultilevelBisection, BalancedLowCutOnGrid) {
  const StaticGraph g = grid_graph(32, 32);
  BisectionOptions options;
  options.eps = 0.03;
  Rng rng(5);
  const auto side = multilevel_bisection(g, options, rng);

  NodeWeight w0 = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) w0 += (side[u] == 0) ? 1 : 0;
  const NodeWeight total = g.total_node_weight();
  EXPECT_NEAR(static_cast<double>(w0), total / 2.0, 0.05 * total);

  std::vector<BlockID> assignment(side.begin(), side.end());
  const Partition p(g, std::move(assignment), 2);
  // Optimal bisection of a 32x32 grid costs 32.
  EXPECT_LE(edge_cut(g, p), 48);
}

TEST(MultilevelBisection, UnequalFractionRespected) {
  const StaticGraph g = grid_graph(30, 30);
  BisectionOptions options;
  options.fraction_a = 2.0 / 3.0;
  options.eps = 0.05;
  Rng rng(7);
  const auto side = multilevel_bisection(g, options, rng);
  NodeWeight w0 = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) w0 += (side[u] == 0) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(w0), 600.0, 60.0);
}

/// Recursive bisection produces feasible k-way partitions for any k, also
/// non-powers of two.
class RecursiveBisectionProperty : public ::testing::TestWithParam<BlockID> {
};

TEST_P(RecursiveBisectionProperty, FeasiblePartition) {
  const BlockID k = GetParam();
  const StaticGraph g = grid_graph(24, 24);
  RecursiveBisectionOptions options;
  options.eps = 0.05;
  Rng rng(11);
  const Partition p = recursive_bisection(g, k, options, rng);
  EXPECT_EQ(validate_partition(g, p), "");
  EXPECT_EQ(p.k(), k);
  // Every block non-empty.
  for (BlockID b = 0; b < k; ++b) EXPECT_GT(p.block_weight(b), 0);
  EXPECT_TRUE(is_balanced(g, p, 0.05)) << "k=" << k << " balance "
                                       << balance(g, p);
}

INSTANTIATE_TEST_SUITE_P(Ks, RecursiveBisectionProperty,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16));

TEST(InitialPartition, MoreRepeatsNeverHurt) {
  Rng graph_rng(13);
  const StaticGraph g = random_geometric_graph(1200, 0.06, graph_rng);
  InitialPartitionOptions one;
  one.repeats = 1;
  InitialPartitionOptions five;
  five.repeats = 5;
  // Same fork structure: attempt 0 of the 5-repeat run equals the
  // 1-repeat run, so the best-of-5 cannot be lexicographically worse in
  // the (total overload, cut) objective the selection uses.
  Rng rng_a(21);
  Rng rng_b(21);
  const Partition p1 = initial_partition(g, 8, one, rng_a);
  const Partition p5 = initial_partition(g, 8, five, rng_b);
  const NodeWeight bound = max_block_weight_bound(g, 8, 0.03);
  auto overload = [&](const Partition& p) {
    NodeWeight total = 0;
    for (BlockID b = 0; b < p.k(); ++b) {
      total += std::max<NodeWeight>(0, p.block_weight(b) - bound);
    }
    return total;
  };
  const NodeWeight o1 = overload(p1);
  const NodeWeight o5 = overload(p5);
  EXPECT_TRUE(o5 < o1 || (o5 == o1 && edge_cut(g, p5) <= edge_cut(g, p1)))
      << "overload " << o5 << " vs " << o1;
}

TEST(InitialPartition, WorksOnCoarseWeightedGraphs) {
  // Simulate a coarsest graph: few nodes, heavy weights.
  GraphBuilder builder(12);
  Rng rng(3);
  for (NodeID u = 0; u < 12; ++u) {
    builder.set_node_weight(u, 50 + static_cast<NodeWeight>(rng.bounded(100)));
    for (NodeID v = u + 1; v < 12; ++v) {
      if (rng.uniform() < 0.4) {
        builder.add_edge(u, v, 1 + rng.bounded(30));
      }
    }
  }
  const StaticGraph g = builder.finalize();
  InitialPartitionOptions options;
  options.repeats = 3;
  Rng prng(9);
  const Partition p = initial_partition(g, 4, options, prng);
  EXPECT_EQ(validate_partition(g, p), "");
  // The +max_node_weight term makes this bound satisfiable.
  EXPECT_TRUE(is_balanced(g, p, 0.03));
}

}  // namespace
}  // namespace kappa
