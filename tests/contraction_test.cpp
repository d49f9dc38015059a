/// \file contraction_test.cpp
/// \brief Tests for matching contraction and partition projection,
/// including the §2 invariants (weight conservation, cut preservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "generators/generators.hpp"
#include "graph/contraction.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "matching/matchers.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

StaticGraph path_graph(NodeID n) {
  GraphBuilder builder(n);
  for (NodeID u = 0; u + 1 < n; ++u) builder.add_edge(u, u + 1, u + 1);
  return builder.finalize();
}

TEST(Contraction, IdentityMatchingCopiesGraph) {
  const StaticGraph g = path_graph(5);
  std::vector<NodeID> partner(5);
  std::iota(partner.begin(), partner.end(), NodeID{0});
  const ContractionResult result = contract(g, partner);
  EXPECT_EQ(result.coarse_graph.num_nodes(), 5u);
  EXPECT_EQ(result.coarse_graph.num_edges(), 4u);
  EXPECT_EQ(result.coarse_graph.total_edge_weight(), g.total_edge_weight());
}

TEST(Contraction, SingleEdgeMergesWeightsAndNeighbors) {
  // Triangle 0-1-2 with unit weights; contract {0,1}.
  GraphBuilder builder(3);
  builder.add_edge(0, 1, 1);
  builder.add_edge(1, 2, 2);
  builder.add_edge(0, 2, 3);
  const StaticGraph g = builder.finalize();
  const ContractionResult result = contract(g, {1, 0, 2});
  const StaticGraph& c = result.coarse_graph;
  EXPECT_EQ(c.num_nodes(), 2u);
  EXPECT_EQ(c.num_edges(), 1u);
  // Parallel edges {x,2} merged: 2 + 3 = 5 (§2).
  EXPECT_EQ(c.arc_weight(c.first_arc(0)), 5);
  // c(x) = c(0) + c(1).
  const NodeID x = result.fine_to_coarse[0];
  EXPECT_EQ(result.fine_to_coarse[1], x);
  EXPECT_EQ(c.node_weight(x), 2);
  EXPECT_EQ(validate_graph(c), "");
}

TEST(Contraction, NodeWeightConserved) {
  Rng rng(1);
  const StaticGraph g = random_geometric_graph(500, 0.08, rng);
  MatchingOptions options;
  const auto partner = compute_matching(g, MatcherAlgo::kGPA, options, rng);
  const ContractionResult result = contract(g, partner);
  EXPECT_EQ(result.coarse_graph.total_node_weight(), g.total_node_weight());
  EXPECT_EQ(validate_graph(result.coarse_graph), "");
}

TEST(Contraction, CutEdgeWeightIsConservedMinusMatched) {
  // omega(E_coarse) = omega(E) - omega(matched edges).
  Rng rng(2);
  const StaticGraph g = random_geometric_graph(400, 0.09, rng);
  MatchingOptions options;
  const auto partner = compute_matching(g, MatcherAlgo::kGreedy, options, rng);
  EdgeWeight matched_weight = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    const NodeID v = partner[u];
    if (v == u || v < u) continue;
    for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
      if (g.arc_target(e) == v) matched_weight += g.arc_weight(e);
    }
  }
  const ContractionResult result = contract(g, partner);
  EXPECT_EQ(result.coarse_graph.total_edge_weight(),
            g.total_edge_weight() - matched_weight);
}

TEST(Contraction, ShardedIdsAreShardMajorWithSortedRows) {
  // The cycle 0-1-2-3-4-5-0 with pairs {1, 2} and {4, 5}, 0 and 3
  // unmatched; shards {1, 0, 0, 1, 0, 1}. Shard 0 numbers its canonical
  // endpoints 1 and 4 first, then shard 1 numbers 0 and 3; the pair
  // {4, 5} lands in shard 0 with its lower endpoint.
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 1);
  builder.add_edge(1, 2, 2);
  builder.add_edge(2, 3, 3);
  builder.add_edge(3, 4, 4);
  builder.add_edge(4, 5, 5);
  builder.add_edge(0, 5, 6);
  const StaticGraph g = builder.finalize();
  const std::vector<NodeID> partner = {0, 2, 1, 3, 5, 4};
  const std::vector<BlockID> shards = {1, 0, 0, 1, 0, 1};
  const ContractionResult result = contract(g, partner, shards);
  EXPECT_EQ(result.fine_to_coarse, (std::vector<NodeID>{2, 0, 0, 3, 1, 1}));
  EXPECT_EQ(result.coarse_to_shard, (std::vector<BlockID>{0, 0, 1, 1}));
  const StaticGraph& coarse = result.coarse_graph;
  EXPECT_EQ(validate_graph(coarse), "");
  for (NodeID c = 0; c < coarse.num_nodes(); ++c) {
    const auto targets = coarse.neighbors(c);
    EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end())) << c;
  }
  // Coarse node 1 = {4, 5} reaches 3 (via 3-4, w 4) and 2 (via 0-5, w 6).
  EXPECT_EQ(std::vector<NodeID>(coarse.neighbors(1).begin(),
                                coarse.neighbors(1).end()),
            (std::vector<NodeID>{2, 3}));
  EXPECT_EQ(coarse.node_weight(1), 2);
  // Unsharded, the same matching numbers canonical endpoints in fine
  // order: 0, {1, 2}, 3, {4, 5}.
  EXPECT_EQ(contract(g, partner).fine_to_coarse,
            (std::vector<NodeID>{0, 1, 1, 2, 3, 3}));
  EXPECT_TRUE(contract(g, partner).coarse_to_shard.empty());
}
TEST(Projection, PreservesCutExactly) {
  // The projected partition must cut exactly the same weight: coarse cut
  // edges correspond 1:1 to fine cut edges (matched edges are internal).
  Rng rng(3);
  const StaticGraph g = random_geometric_graph(600, 0.07, rng);
  MatchingOptions options;
  const auto partner = compute_matching(g, MatcherAlgo::kGPA, options, rng);
  const ContractionResult result = contract(g, partner);
  const StaticGraph& coarse = result.coarse_graph;

  // Arbitrary 3-way partition of the coarse graph.
  std::vector<BlockID> coarse_assignment(coarse.num_nodes());
  for (NodeID u = 0; u < coarse.num_nodes(); ++u) {
    coarse_assignment[u] = u % 3;
  }
  Partition coarse_partition(coarse, std::move(coarse_assignment), 3);
  const Partition fine_partition =
      project_partition(g, result.fine_to_coarse, coarse_partition);

  EXPECT_EQ(edge_cut(g, fine_partition), edge_cut(coarse, coarse_partition));
  EXPECT_EQ(validate_partition(g, fine_partition), "");
  // Block weights are also preserved.
  for (BlockID b = 0; b < 3; ++b) {
    EXPECT_EQ(fine_partition.block_weight(b),
              coarse_partition.block_weight(b));
  }
}

/// Property sweep over instances and matchers: contraction invariants hold
/// for every combination.
class ContractionProperty
    : public ::testing::TestWithParam<std::tuple<std::string, MatcherAlgo>> {
};

TEST_P(ContractionProperty, InvariantsHold) {
  const auto& [instance, matcher] = GetParam();
  const StaticGraph g = make_instance(instance, 77);
  Rng rng(5);
  MatchingOptions options;
  const auto partner = compute_matching(g, matcher, options, rng);
  ASSERT_EQ(validate_matching(g, partner), "");
  const ContractionResult result = contract(g, partner);
  EXPECT_EQ(validate_graph(result.coarse_graph), "");
  EXPECT_EQ(result.coarse_graph.total_node_weight(), g.total_node_weight());
  EXPECT_EQ(result.coarse_graph.num_nodes() + matching_size(partner),
            g.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(
    Instances, ContractionProperty,
    ::testing::Combine(::testing::Values("grid_s", "rmat_14", "road_s",
                                         "annulus_m"),
                       ::testing::Values(MatcherAlgo::kSHEM,
                                         MatcherAlgo::kGreedy,
                                         MatcherAlgo::kGPA)));

}  // namespace
}  // namespace kappa
