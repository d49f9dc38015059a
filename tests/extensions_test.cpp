/// \file extensions_test.cpp
/// \brief Tests for the §8 future-work extensions: the graph-theoretic
/// BFS prepartitioner and repartitioning.
#include <gtest/gtest.h>

#include "coarsening/prepartition.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

// ----------------------------------------------------- BFS prepartition ----

TEST(BfsPrepartition, CoversAllPEsAndBalances) {
  const StaticGraph g = make_instance("grid_s", 3);
  Rng rng(2);
  for (const BlockID pes : {2u, 5u, 8u}) {
    const auto homes = bfs_prepartition(g, pes, rng);
    std::vector<NodeID> sizes(pes, 0);
    for (const BlockID h : homes) {
      ASSERT_LT(h, pes);
      ++sizes[h];
    }
    const NodeID cap = (g.num_nodes() + pes - 1) / pes;
    for (BlockID pe = 0; pe < pes; ++pe) {
      EXPECT_GT(sizes[pe], 0u) << pes;
      EXPECT_LE(sizes[pe], cap + cap / 4) << pes;  // leftover slack
    }
  }
}

TEST(BfsPrepartition, HandlesDisconnectedGraphs) {
  GraphBuilder builder(40);
  for (NodeID base : {NodeID{0}, NodeID{20}}) {
    for (NodeID u = base; u + 1 < base + 20; ++u) builder.add_edge(u, u + 1);
  }
  const StaticGraph g = builder.finalize();
  Rng rng(4);
  const auto homes = bfs_prepartition(g, 4, rng);
  std::vector<NodeID> sizes(4, 0);
  for (const BlockID h : homes) ++sizes[h];
  for (BlockID pe = 0; pe < 4; ++pe) EXPECT_GT(sizes[pe], 0u);
}

TEST(BfsPrepartition, LocalityBeatsRandomAssignment) {
  // The whole point of prepartitioning: most edges should be PE-internal.
  const StaticGraph g = make_instance("delaunay14", 7);
  Rng rng(9);
  const auto homes = bfs_prepartition(g, 8, rng);
  EdgeID internal = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    for (const NodeID v : g.neighbors(u)) {
      if (u < v && homes[u] == homes[v]) ++internal;
    }
  }
  const double fraction =
      static_cast<double>(internal) / static_cast<double>(g.num_edges());
  // Random 8-way assignment keeps only ~12.5% internal; BFS regions keep
  // the vast majority.
  EXPECT_GT(fraction, 0.75);
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
