/// \file extensions_test.cpp
/// \brief Tests for the §8 future-work extensions: the graph-theoretic
/// BFS-order prepartitioner and repartitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coarsening/prepartition.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

// ----------------------------------------------- BFS-order prepartition ----

/// \p g with its coordinates dropped, as a METIS file would give it.
StaticGraph without_coordinates(const StaticGraph& g) {
  std::vector<EdgeID> xadj{0};
  std::vector<NodeID> adj;
  std::vector<EdgeWeight> ewgt;
  std::vector<NodeWeight> vwgt;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
      adj.push_back(g.arc_target(e));
      ewgt.push_back(g.arc_weight(e));
    }
    xadj.push_back(adj.size());
    vwgt.push_back(g.node_weight(u));
  }
  return StaticGraph(std::move(xadj), std::move(adj), std::move(ewgt),
                     std::move(vwgt));
}

/// Nodes per shard of \p homes; every entry must name one of \p pes shards.
std::vector<NodeID> shard_sizes(const std::vector<BlockID>& homes,
                                BlockID pes) {
  std::vector<NodeID> sizes(pes, 0);
  for (const BlockID h : homes) {
    EXPECT_LT(h, pes);
    if (h < pes) ++sizes[h];
  }
  return sizes;
}

TEST(BfsPrepartition, CoversAllPEsAndBalances) {
  const StaticGraph g = make_instance("grid_s", 3);
  for (const BlockID pes : {2u, 5u, 8u}) {
    const std::vector<NodeID> sizes =
        shard_sizes(bfs_order_prepartition(g, pes), pes);
    const auto [lightest, heaviest] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_GT(*lightest, 0u) << pes;
    EXPECT_LE(*heaviest - *lightest, 1u) << pes;
  }
}

TEST(BfsPrepartition, HandlesDisconnectedGraphs) {
  // Two paths of 20 nodes, then 5 isolated nodes: the order walks the
  // first path, the second, then the isolated nodes one by one.
  GraphBuilder builder(45);
  for (NodeID base : {NodeID{0}, NodeID{20}}) {
    for (NodeID u = base; u + 1 < base + 20; ++u) builder.add_edge(u, u + 1);
  }
  const StaticGraph g = builder.finalize();
  const std::vector<BlockID> homes = bfs_order_prepartition(g, 4);
  EXPECT_EQ(shard_sizes(homes, 4), (std::vector<NodeID>{12, 11, 11, 11}));
  // Each path is walked from its lower end, so here the order is the
  // numbering and the shards are its ranges.
  EXPECT_TRUE(std::is_sorted(homes.begin(), homes.end()));
}

TEST(BfsPrepartition, LocalityBeatsRandomAssignment) {
  // The whole point of prepartitioning: most edges should be PE-internal,
  // without coordinates and under the generator's random numbering.
  const StaticGraph g = without_coordinates(make_instance("delaunay14", 7));
  const auto homes = bfs_order_prepartition(g, 8);
  EdgeID internal = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    for (const NodeID v : g.neighbors(u)) {
      if (u < v && homes[u] == homes[v]) ++internal;
    }
  }
  const double fraction =
      static_cast<double>(internal) / static_cast<double>(g.num_edges());
  // Random 8-way assignment keeps only ~12.5% internal; BFS ranges keep
  // the vast majority.
  EXPECT_GT(fraction, 0.75);
}

TEST(BfsPrepartition, IsThePrepartitionOfAGraphWithoutCoordinates) {
  const StaticGraph g = without_coordinates(make_instance("rgg14", 2));
  ASSERT_FALSE(g.has_coordinates());
  const std::vector<BlockID> expected = bfs_order_prepartition(g, 16);
  for (int call = 0; call < 3; ++call) {
    EXPECT_EQ(prepartition(g, 16), expected) << "call " << call;
  }
}

// -------------------------------------------------------- repartitioning ----

TEST(Repartition, RestoresQualityAfterPerturbation) {
  const StaticGraph g = make_instance("grid_m", 5);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 3;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);

  // Perturb: move 5% random nodes to random blocks (a crude stand-in for
  // adaptive mesh changes).
  Partition perturbed = fresh.partition;
  Rng rng(13);
  for (NodeID i = 0; i < g.num_nodes() / 20; ++i) {
    const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    const BlockID to = static_cast<BlockID>(rng.bounded(8));
    if (perturbed.block(u) != to) perturbed.move(u, to, g.node_weight(u));
  }
  const EdgeWeight perturbed_cut = edge_cut(g, perturbed);
  ASSERT_GT(perturbed_cut, fresh.cut);

  const PartitionResult result =
      Partitioner(Context::sequential(config)).repartition(g, perturbed);
  EXPECT_EQ(result.initial_cut, perturbed_cut);
  EXPECT_LT(result.cut, perturbed_cut);
  EXPECT_TRUE(result.balanced);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  // Repartitioning migrates far fewer nodes than a fresh run would.
  NodeID fresh_migration = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (fresh.partition.block(u) != perturbed.block(u)) ++fresh_migration;
  }
  EXPECT_LT(result.migrated_nodes, g.num_nodes() / 4);
}

TEST(Repartition, NoOpOnAlreadyGoodPartition) {
  const StaticGraph g = make_instance("grid_s", 2);
  Config config = Config::preset(Preset::kStrong, 4);
  config.seed = 8;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);
  const PartitionResult result =
      Partitioner(Context::sequential(config)).repartition(g, fresh.partition);
  EXPECT_LE(result.cut, fresh.cut);
  EXPECT_TRUE(result.balanced);
}

TEST(Repartition, FixesImbalanceOnly) {
  // Feasible cut but overloaded blocks: repartitioning must rebalance.
  const StaticGraph g = make_instance("grid_s", 6);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    const NodeID col = u % 64;
    assignment[u] = col < 40 ? 0 : (col < 50 ? 1 : (col < 58 ? 2 : 3));
  }
  Partition p(g, std::move(assignment), 4);
  Config config = Config::preset(Preset::kFast, 4);
  ASSERT_FALSE(is_balanced(g, p, config.eps));
  const PartitionResult result =
      Partitioner(Context::sequential(config)).repartition(g, p);
  EXPECT_TRUE(result.balanced) << "balance " << result.balance;
}

}  // namespace
}  // namespace kappa
