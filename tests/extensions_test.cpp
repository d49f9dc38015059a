/// \file extensions_test.cpp
/// \brief Tests for the §8 future-work extensions: Dinic max-flow,
/// flow-based pairwise refinement, the graph-theoretic BFS prepartitioner
/// and repartitioning.
#include <gtest/gtest.h>

#include <algorithm>

#include "coarsening/prepartition.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/pe_runtime.hpp"
#include "refinement/band.hpp"
#include "refinement/flow_refiner.hpp"
#include "refinement/max_flow.hpp"
#include "refinement/pairwise_refiner.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ max flow ----

TEST(MaxFlow, TextbookNetwork) {
  // Classic 6-node example with max flow 23.
  FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_EQ(net.max_flow(0, 5), 23);
}

TEST(MaxFlow, MinCutSeparatesSourceAndSink) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 5);
  net.add_undirected_edge(1, 2, 1);  // the bottleneck
  net.add_undirected_edge(2, 3, 5);
  EXPECT_EQ(net.max_flow(0, 3), 1);
  const auto side = net.min_cut_source_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
  EXPECT_FALSE(side[3]);
}

TEST(MaxFlow, DisconnectedSinkGivesZero) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 7);
  EXPECT_EQ(net.max_flow(0, 2), 0);
}

TEST(MaxFlow, UndirectedCapacityCountedOnce) {
  // Two parallel undirected paths of bottleneck 2 and 3.
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 2);
  net.add_undirected_edge(1, 3, 9);
  net.add_undirected_edge(0, 2, 9);
  net.add_undirected_edge(2, 3, 3);
  EXPECT_EQ(net.max_flow(0, 3), 5);
}

// -------------------------------------------------------- flow refiner ----

TEST(FlowRefiner, FindsTheBottleneckCut) {
  // Two 4x4 grids joined by a single edge, but partitioned off-center:
  // FM would find this too, yet the flow pass must find it in one shot.
  GraphBuilder builder(32);
  auto id = [](NodeID base, NodeID x, NodeID y) {
    return base + y * 4 + x;
  };
  for (const NodeID base : {NodeID{0}, NodeID{16}}) {
    for (NodeID y = 0; y < 4; ++y) {
      for (NodeID x = 0; x < 4; ++x) {
        if (x + 1 < 4) builder.add_edge(id(base, x, y), id(base, x + 1, y));
        if (y + 1 < 4) builder.add_edge(id(base, x, y), id(base, x, y + 1));
      }
    }
  }
  builder.add_edge(15, 16);  // the bridge
  const StaticGraph g = builder.finalize();

  // Off-by-two partition: two nodes of the left grid assigned to block 1.
  std::vector<BlockID> assignment(32, 0);
  for (NodeID u = 16; u < 32; ++u) assignment[u] = 1;
  assignment[12] = 1;
  assignment[13] = 1;
  Partition p(g, std::move(assignment), 2);
  const EdgeWeight before = edge_cut(g, p);
  ASSERT_GT(before, 1);

  const auto band = boundary_band(g, p, 0, 1, 10);
  FlowRefineOptions options;
  options.max_block_weight = max_block_weight_bound(g, 2, 0.20);
  const FlowRefineResult result = flow_refine_pair(g, p, 0, 1, band, options);
  EXPECT_TRUE(result.applied);
  EXPECT_EQ(edge_cut(g, p), 1);  // only the bridge remains cut
  EXPECT_EQ(before - edge_cut(g, p), result.cut_gain);
  EXPECT_EQ(validate_partition(g, p), "");
}

TEST(FlowRefiner, RejectsInfeasibleMinCut) {
  // A path where the cheapest cut is maximally unbalanced: with a tight
  // balance bound the flow move must be rejected and nothing changes.
  GraphBuilder builder(8);
  builder.add_edge(0, 1, 1);  // cheapest cut here: 7|1 split
  for (NodeID u = 1; u < 7; ++u) builder.add_edge(u, u + 1, 10);
  const StaticGraph g = builder.finalize();
  std::vector<BlockID> assignment = {0, 0, 0, 0, 1, 1, 1, 1};
  Partition p(g, std::move(assignment), 2);
  const Partition before = p;

  const auto band = boundary_band(g, p, 0, 1, 10);
  FlowRefineOptions options;
  options.max_block_weight = max_block_weight_bound(g, 2, 0.0);  // 4+1
  const FlowRefineResult result = flow_refine_pair(g, p, 0, 1, band, options);
  EXPECT_FALSE(result.applied);
  for (NodeID u = 0; u < 8; ++u) {
    EXPECT_EQ(p.block(u), before.block(u));
  }
}

TEST(FlowRefiner, NeverWorsensCutOrOverload) {
  Rng graph_rng(5);
  const StaticGraph g = random_geometric_graph(800, 0.07, graph_rng);
  const NodeWeight bound = max_block_weight_bound(g, 2, 0.03);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    std::vector<BlockID> assignment(g.num_nodes());
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      assignment[u] = g.coordinate(u).x + 0.1 * rng.uniform() < 0.5 ? 0 : 1;
    }
    Partition p(g, std::move(assignment), 2);
    const EdgeWeight cut_before = edge_cut(g, p);
    const auto band = boundary_band(g, p, 0, 1, 6);
    FlowRefineOptions options;
    options.max_block_weight = bound;
    const FlowRefineResult result =
        flow_refine_pair(g, p, 0, 1, band, options);
    const EdgeWeight cut_after = edge_cut(g, p);
    EXPECT_LE(cut_after, cut_before);
    EXPECT_EQ(cut_before - cut_after, result.cut_gain);
    EXPECT_EQ(validate_partition(g, p), "");
  }
}

TEST(FlowRefiner, FlowPassOnBandLimitedPairNeverWorsensThePair) {
  // The opt-in extra pass (Config::enable_flow_refinement) hooks the flow
  // refiner into the band-limited pair search of the sequential pairwise
  // refiner: with identical RNG streams the FM part of refine_pair() is
  // identical, and the flow move is adopted only when it strictly
  // improves the pair cut without increasing overload — so the cut with
  // the flow pass is never worse than without it, deterministically.
  Rng graph_rng(7);
  const StaticGraph g = random_geometric_graph(900, 0.07, graph_rng);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = g.coordinate(u).x < 0.5 ? 0 : 1;
  }
  const Partition input(g, std::move(assignment), 2);

  std::vector<NodeID> seeds = pair_boundary_nodes(g, input, 0, 1);
  const std::vector<NodeID> other = pair_boundary_nodes(g, input, 1, 0);
  seeds.insert(seeds.end(), other.begin(), other.end());
  std::sort(seeds.begin(), seeds.end());

  PairwiseRefinerOptions options;
  options.fm.max_block_weight = max_block_weight_bound(g, 2, 0.03);
  options.bfs_depth = 4;
  const Rng rng(3);

  EdgeWeight cut_without = 0;
  for (const bool use_flow : {false, true}) {
    Partition p = input;
    options.use_flow = use_flow;
    const PairRefineResult result =
        refine_pair(g, p, 0, 1, seeds, options, rng, /*seed_tag=*/0);
    EXPECT_EQ(validate_partition(g, p), "");
    const EdgeWeight cut = edge_cut(g, p);
    EXPECT_EQ(edge_cut(g, input) - cut,
              result.cut_gain);  // gains are exact
    if (!use_flow) {
      cut_without = cut;
    } else {
      EXPECT_LE(cut, cut_without);
    }
  }
}

TEST(FlowRefiner, SpmdBandViewsRunTheFlowPassPInvariantly) {
  // Groundwork for a later SPMD flow pass: with the flow hook enabled the
  // SPMD refiner runs the min-cut pass inside every band-limited pair —
  // the result must stay valid, balanced and bit-identical for every p.
  const StaticGraph g = make_instance("rgg14", 6);
  Config config = Config::preset(Preset::kMinimal, 6);
  config.seed = 8;
  config.enable_flow_refinement = true;

  PartitionResult reference;
  for (const int p : {1, 2, 3}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << "p=" << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << "p=" << p << " node " << u;
    }
  }
}

TEST(FlowRefiner, FullPipelineWithFlowAtLeastAsGood) {
  const StaticGraph g = make_instance("delaunay14", 4);
  Config plain = Config::preset(Preset::kFast, 8);
  plain.seed = 5;
  Config with_flow = plain;
  with_flow.enable_flow_refinement = true;
  const PartitionResult a =
      Partitioner(Context::sequential(plain)).partition(g);
  const PartitionResult b =
      Partitioner(Context::sequential(with_flow)).partition(g);
  EXPECT_EQ(validate_partition(g, b.partition), "");
  EXPECT_TRUE(b.balanced);
  // Flow never hurts a pair, so the end result should not be notably
  // worse (different random trajectories allow small noise).
  EXPECT_LE(b.cut, a.cut * 11 / 10);
}

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
