/// \file edge_cases_test.cpp
/// \brief Edge-case and failure-injection tests: degenerate graphs,
/// extreme parameters, malformed structures, and the quotient coloring on
/// random partitions.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/validation.hpp"
#include "matching/matchers.hpp"
#include "refinement/edge_coloring.hpp"
#include "refinement/twoway_fm.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

// ------------------------------------------------- degenerate graphs ----

TEST(EdgeCases, StarGraphPartition) {
  // A star stresses everything: the center cannot be separated cheaply.
  GraphBuilder builder(101);
  for (NodeID leaf = 1; leaf <= 100; ++leaf) builder.add_edge(0, leaf);
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 1;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_TRUE(result.balanced);
  // Any balanced 4-way partition of a star cuts ~75 of 100 leaves.
  EXPECT_GE(result.cut, 70);
}

TEST(EdgeCases, CompleteGraphPartition) {
  GraphBuilder builder(32);
  for (NodeID u = 0; u < 32; ++u) {
    for (NodeID v = u + 1; v < 32; ++v) builder.add_edge(u, v);
  }
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 2;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_TRUE(result.balanced);
  // K32 into 4 blocks: the even 8/8/8/8 split cuts 496 - 4*C(8,2) = 384,
  // but Lmax = floor(1.03*8)+1 = 9 admits 9/9/9/5, which cuts only
  // 496 - (3*36 + 10) = 378 — the true constrained optimum. Anything in
  // between is a reasonable local optimum; more is a bug.
  EXPECT_GE(result.cut, 378);
  EXPECT_LE(result.cut, 384);
}

TEST(EdgeCases, PathGraphIsCutMinimally) {
  GraphBuilder builder(64);
  for (NodeID u = 0; u + 1 < 64; ++u) builder.add_edge(u, u + 1);
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kStrong, 4);
  config.seed = 3;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_TRUE(result.balanced);
  EXPECT_EQ(result.cut, 3);  // a path always admits the perfect split
}

TEST(EdgeCases, GraphWithIsolatedNodes) {
  GraphBuilder builder(50);
  for (NodeID u = 0; u + 1 < 30; ++u) builder.add_edge(u, u + 1);
  // Nodes 30..49 are isolated.
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 4;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_TRUE(result.balanced);
}

TEST(EdgeCases, SingleBlockIsTrivial) {
  const StaticGraph g = grid_graph(8, 8);
  Config config = Config::preset(Preset::kFast, 1);
  config.seed = 1;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(result.cut, 0);
  EXPECT_NEAR(result.balance, 1.0, 1e-9);
}

TEST(EdgeCases, KEqualsNumberOfNodes) {
  const StaticGraph g = grid_graph(4, 4);  // 16 nodes
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 5;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  // Lmax = floor(1.03*1)+1 = 2, so blocks may pair up nodes: the best
  // such partition keeps a perfect matching internal (8 of 24 edges),
  // cutting 16. Worst legal case cuts everything.
  EXPECT_GE(result.cut, 16);
  EXPECT_LE(result.cut, g.total_edge_weight());
  EXPECT_TRUE(result.balanced);
}

TEST(EdgeCases, HeavyNodeDominatesABlock) {
  // One node weighs as much as all others combined — the +max_v c(v)
  // term of Lmax (§2) is what keeps this feasible.
  GraphBuilder builder(65);
  builder.set_node_weight(0, 64);
  for (NodeID u = 0; u + 1 < 65; ++u) builder.add_edge(u, u + 1);
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 2);
  config.seed = 6;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_TRUE(result.balanced) << result.balance;
}

TEST(EdgeCases, ExtremeEdgeWeights) {
  GraphBuilder builder(40);
  Rng rng(7);
  for (NodeID u = 0; u + 1 < 40; ++u) {
    builder.add_edge(u, u + 1, (u % 2 == 0) ? 1 : 1'000'000);
  }
  builder.add_edge(0, 39, 1);
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kStrong, 4);
  config.seed = 7;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_TRUE(result.balanced);
  // The partitioner must cut only weight-1 edges: 4 cuts on the cycle.
  EXPECT_LE(result.cut, 4);
}

// ------------------------------------------ malformed-structure checks ----

TEST(FailureInjection, ValidateGraphCatchesAsymmetry) {
  // Hand-built CSR with a one-directional arc.
  std::vector<EdgeID> xadj = {0, 1, 1};
  std::vector<NodeID> adj = {1};
  std::vector<EdgeWeight> ewgt = {1};
  std::vector<NodeWeight> vwgt = {1, 1};
  const StaticGraph g(std::move(xadj), std::move(adj), std::move(ewgt),
                      std::move(vwgt));
  EXPECT_NE(validate_graph(g), "");
}

TEST(FailureInjection, ValidateGraphCatchesWeightMismatch) {
  std::vector<EdgeID> xadj = {0, 1, 2};
  std::vector<NodeID> adj = {1, 0};
  std::vector<EdgeWeight> ewgt = {2, 3};  // asymmetric weights
  std::vector<NodeWeight> vwgt = {1, 1};
  const StaticGraph g(std::move(xadj), std::move(adj), std::move(ewgt),
                      std::move(vwgt));
  EXPECT_NE(validate_graph(g), "");
}

TEST(FailureInjection, ValidateColoringCatchesConflicts) {
  const StaticGraph g = grid_graph(12, 4);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = std::min<BlockID>((u % 12) / 3, 3);
  }
  const Partition p(g, std::move(assignment), 4);
  const QuotientGraph q(g, p);
  ASSERT_GE(q.edges().size(), 2u);
  EdgeColoring bad;
  bad.color_of_edge.assign(q.edges().size(), 0);  // everything color 0
  bad.num_colors = 1;
  EXPECT_NE(validate_coloring(q, bad), "");
  EdgeColoring uncolored;
  uncolored.color_of_edge.assign(q.edges().size(), -1);
  EXPECT_NE(validate_coloring(q, uncolored), "");
}

// ------------------------------------------- coloring random quotients ----

/// The §5.1 coloring that schedules both refiners, on the quotients of
/// random k-way partitions of an rgg: every edge colored, no two incident
/// edges alike, and at most twice the maximum degree in colors.
class RandomQuotientColoring : public ::testing::TestWithParam<BlockID> {};

TEST_P(RandomQuotientColoring, ValidWithinTwiceTheMaxDegree) {
  const BlockID k = GetParam();
  Rng graph_rng(k);
  const StaticGraph g = random_geometric_graph(600, 0.09, graph_rng);
  std::vector<BlockID> assignment(g.num_nodes());
  Rng arng(k + 1);
  for (auto& b : assignment) b = static_cast<BlockID>(arng.bounded(k));
  const Partition p(g, std::move(assignment), k);
  const QuotientGraph q(g, p);

  const EdgeColoring coloring = color_quotient_edges(q, Rng(5));
  EXPECT_EQ(validate_coloring(q, coloring), "") << "k=" << k;
  EXPECT_LE(coloring.num_colors, 2 * static_cast<int>(q.max_degree()));
}

INSTANTIATE_TEST_SUITE_P(Ks, RandomQuotientColoring,
                         ::testing::Values(2, 3, 5, 9, 16));

// ------------------------------------------------ matcher stress sweep ----

/// All matchers on pathological degree distributions.
class MatcherStress : public ::testing::TestWithParam<MatcherAlgo> {};

TEST_P(MatcherStress, StarForest) {
  // Stars of varying size: maximum matching matches one leaf per center.
  GraphBuilder builder(60);
  NodeID next = 0;
  std::vector<NodeID> centers;
  for (const NodeID size : {1u, 3u, 7u, 15u, 30u}) {
    const NodeID center = next++;
    centers.push_back(center);
    for (NodeID i = 0; i < size && next < 60; ++i) {
      builder.add_edge(center, next++);
    }
  }
  const StaticGraph g = builder.finalize();
  MatchingOptions options;
  Rng rng(1);
  const auto partner = compute_matching(g, GetParam(), options, rng);
  EXPECT_EQ(validate_matching(g, partner), "");
  // Every star center must be matched (a star always allows it and all
  // three algorithms are maximal on stars).
  for (const NodeID center : centers) {
    if (g.degree(center) > 0) {
      EXPECT_NE(partner[center], center) << "center " << center;
    }
  }
}

TEST_P(MatcherStress, EmptyAndSingleEdgeGraphs) {
  MatchingOptions options;
  Rng rng(2);
  {
    GraphBuilder builder(5);
    const StaticGraph g = builder.finalize();
    const auto partner = compute_matching(g, GetParam(), options, rng);
    EXPECT_EQ(matching_size(partner), 0u);
  }
  {
    GraphBuilder builder(2);
    builder.add_edge(0, 1);
    const StaticGraph g = builder.finalize();
    const auto partner = compute_matching(g, GetParam(), options, rng);
    EXPECT_EQ(matching_size(partner), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, MatcherStress,
                         ::testing::Values(MatcherAlgo::kSHEM,
                                           MatcherAlgo::kGreedy,
                                           MatcherAlgo::kGPA));

// --------------------------------------------------- FM degenerate use ----

TEST(FMEdgeCases, EmptyEligibleSetIsANoOp) {
  const StaticGraph g = grid_graph(6, 6);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 6) < 3 ? 0 : 1;
  Partition p(g, std::move(assignment), 2);
  const Partition before = p;
  TwoWayFMOptions options;
  options.max_block_weight = max_block_weight_bound(g, 2, 0.03);
  Rng rng(1);
  const TwoWayFMResult result =
      twoway_fm(g, p, 0, 1, std::span<const NodeID>{}, options, rng);
  EXPECT_EQ(result.moved_nodes, 0u);
  EXPECT_EQ(result.cut_gain, 0);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(p.block(u), before.block(u));
  }
}

TEST(FMEdgeCases, AlreadyOptimalStaysPut) {
  // Perfect grid bisection: FM must not degrade it.
  const StaticGraph g = grid_graph(16, 16);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 16) < 8 ? 0 : 1;
  Partition p(g, std::move(assignment), 2);
  const EdgeWeight optimal = edge_cut(g, p);
  std::vector<NodeID> all(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) all[u] = u;
  TwoWayFMOptions options;
  options.max_block_weight = max_block_weight_bound(g, 2, 0.03);
  options.patience_alpha = 0.3;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    (void)twoway_fm(g, p, 0, 1, all, options, rng);
    EXPECT_EQ(edge_cut(g, p), optimal) << "seed " << seed;
  }
}

// --------------------------------------------------------- quotient Q ----

TEST(QuotientEdgeCases, IsolatedBlockHasNoEdges) {
  GraphBuilder builder(9);
  for (NodeID u = 0; u < 3; ++u) {
    for (NodeID v = u + 1; v < 3; ++v) builder.add_edge(u, v);
  }
  for (NodeID u = 3; u < 6; ++u) {
    for (NodeID v = u + 1; v < 6; ++v) builder.add_edge(u, v);
  }
  builder.add_edge(6, 7);
  builder.add_edge(7, 8);
  const StaticGraph g = builder.finalize();
  const Partition p(g, {0, 0, 0, 1, 1, 1, 2, 2, 2}, 3);
  const QuotientGraph q(g, p);
  EXPECT_TRUE(q.edges().empty());
  EXPECT_EQ(q.max_degree(), 0u);
}

}  // namespace
}  // namespace kappa
