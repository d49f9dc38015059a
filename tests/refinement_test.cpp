/// \file refinement_test.cpp
/// \brief Tests for two-way FM, band extraction, edge coloring and the
/// pairwise refiner — the paper's §5 machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/validation.hpp"
#include "refinement/band.hpp"
#include "refinement/edge_coloring.hpp"
#include "refinement/kway_refiner.hpp"
#include "refinement/pairwise_refiner.hpp"
#include "refinement/twoway_fm.hpp"
#include "util/random.hpp"

#include "frozen_context_model.hpp"

namespace kappa {
namespace {

std::vector<NodeID> all_nodes(NodeID n) {
  std::vector<NodeID> nodes(n);
  for (NodeID u = 0; u < n; ++u) nodes[u] = u;
  return nodes;
}

/// Vertical stripes partition of a grid — deliberately poor when the
/// stripes are thin in the wrong direction after perturbation.
Partition striped_partition(const StaticGraph& grid, NodeID nx, BlockID k) {
  std::vector<BlockID> assignment(grid.num_nodes());
  for (NodeID u = 0; u < grid.num_nodes(); ++u) {
    assignment[u] = std::min<BlockID>((u % nx) * k / nx, k - 1);
  }
  return Partition(grid, std::move(assignment), k);
}

// ----------------------------------------------------------- two-way FM ----

TEST(TwoWayFM, RepairsAPerturbedBisection) {
  const StaticGraph g = grid_graph(24, 24);
  // Start from a clean half/half split, then randomly flip 60 nodes.
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 24) < 12 ? 0 : 1;
  Rng rng(4);
  Partition p(g, std::move(assignment), 2);
  for (int i = 0; i < 60; ++i) {
    const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    const BlockID other = 1 - p.block(u);
    p.move(u, other, g.node_weight(u));
  }
  const EdgeWeight before = edge_cut(g, p);

  TwoWayFMOptions options;
  options.max_block_weight = max_block_weight_bound(g, 2, 0.03);
  options.patience_alpha = 0.25;
  EdgeWeight total_gain = 0;
  for (int round = 0; round < 8; ++round) {
    Rng fm_rng = rng.fork(round);
    const TwoWayFMResult result =
        twoway_fm(g, p, 0, 1, all_nodes(g.num_nodes()), options, fm_rng);
    total_gain += result.cut_gain;
    if (result.moved_nodes == 0) break;
  }
  const EdgeWeight after = edge_cut(g, p);
  EXPECT_EQ(before - after, total_gain);
  EXPECT_LT(after, before);
  // The optimum straight cut costs 24; FM should get close again.
  EXPECT_LE(after, 40);
  EXPECT_TRUE(is_balanced(g, p, 0.03));
}

/// Lexicographic no-worsening holds for every queue selection strategy on
/// random starting partitions.
class FMStrategyProperty : public ::testing::TestWithParam<QueueSelection> {};

/// Runs one search of \p strategy on \p p over \p eligible with bounds
/// \p bound_a and \p bound_b and checks that the lexicographic (pair
/// imbalance, cut) objective does not worsen, that the reported gains
/// equal the measured changes, and that no node outside \p eligible
/// moved.
void check_fm_search(const StaticGraph& g, Partition& p,
                     const std::vector<NodeID>& eligible, NodeWeight bound_a,
                     NodeWeight bound_b, QueueSelection strategy,
                     std::uint64_t seed) {
  auto imbalance = [&] {
    return std::max<NodeWeight>(0, std::max(p.block_weight(0) - bound_a,
                                            p.block_weight(1) - bound_b));
  };
  const Partition before = p;
  const EdgeWeight cut_before = edge_cut(g, p);
  const NodeWeight imbalance_before = imbalance();

  TwoWayFMOptions options;
  options.queue_selection = strategy;
  options.max_block_weight = bound_a;
  options.max_block_weight_b = bound_b;
  options.patience_alpha = 0.1;
  Rng fm_rng(seed + 50);
  const TwoWayFMResult result =
      twoway_fm(g, p, 0, 1, eligible, options, fm_rng);

  const EdgeWeight cut_after = edge_cut(g, p);
  const NodeWeight imbalance_after = imbalance();

  // Lexicographic (imbalance, cut) never worse.
  EXPECT_TRUE(imbalance_after < imbalance_before ||
              (imbalance_after == imbalance_before && cut_after <= cut_before))
      << queue_selection_name(strategy) << " seed " << seed;
  // Reported gains match the measured deltas.
  EXPECT_EQ(result.cut_gain, cut_before - cut_after)
      << queue_selection_name(strategy) << " seed " << seed;
  EXPECT_EQ(result.imbalance_gain, imbalance_before - imbalance_after)
      << queue_selection_name(strategy) << " seed " << seed;
  EXPECT_EQ(validate_partition(g, p), "");
  std::vector<char> in_band(g.num_nodes(), 0);
  for (const NodeID u : eligible) in_band[u] = 1;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (in_band[u] == 0) {
      ASSERT_EQ(p.block(u), before.block(u)) << "node " << u;
    }
  }
}

TEST_P(FMStrategyProperty, NeverWorsensLexicographicObjective) {
  const QueueSelection strategy = GetParam();
  Rng graph_rng(6);
  const StaticGraph g = random_geometric_graph(700, 0.07, graph_rng);
  const NodeWeight bound = max_block_weight_bound(g, 2, 0.03);

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    std::vector<BlockID> assignment(g.num_nodes());
    for (auto& b : assignment) b = static_cast<BlockID>(rng.bounded(2));
    Partition p(g, std::move(assignment), 2);
    check_fm_search(g, p, all_nodes(g.num_nodes()), bound, bound, strategy,
                    seed);
  }
}

/// A skewed, weighted graph: a ring with short random chords, plus eight
/// hubs joined to 40 random nodes each; node weights 1..4, edge weights
/// 1..9 (summed where edges coincide).
StaticGraph weighted_hub_graph(NodeID n, Rng& rng) {
  GraphBuilder builder(n);
  auto weight = [&] { return static_cast<EdgeWeight>(1 + rng.bounded(9)); };
  for (NodeID u = 0; u < n; ++u) {
    builder.set_node_weight(u, static_cast<NodeWeight>(1 + rng.bounded(4)));
    builder.add_edge(u, (u + 1) % n, weight());
    builder.add_edge(u, (u + 2 + static_cast<NodeID>(rng.bounded(6))) % n,
                     weight());
  }
  for (NodeID hub = 0; hub < n; hub += n / 8) {
    for (int e = 0; e < 40; ++e) {
      builder.add_edge(hub, static_cast<NodeID>(rng.bounded(n)), weight());
    }
  }
  return builder.finalize();
}

// The same checks on hubs and weighted arcs, where a move shifts each
// queued neighbor's gain by twice the arc weight: the search is confined
// to the pair's depth-2 band, and the two blocks have unequal bounds.
TEST_P(FMStrategyProperty, ExactGainsOnWeightedHubsInABand) {
  const QueueSelection strategy = GetParam();
  Rng graph_rng(11);
  const StaticGraph g = weighted_hub_graph(800, graph_rng);
  const NodeWeight total = g.total_node_weight();
  const NodeWeight bound_a = total * 56 / 100;
  const NodeWeight bound_b = total * 47 / 100;

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const NodeID offset = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    std::vector<BlockID> assignment(g.num_nodes());
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      assignment[u] = (u + offset) % g.num_nodes() < g.num_nodes() / 2 ? 0 : 1;
      if (rng.bounded(20) == 0) assignment[u] ^= 1;
    }
    Partition p(g, std::move(assignment), 2);
    const std::vector<NodeID> band = boundary_band(g, p, 0, 1, 2);
    ASSERT_LT(band.size(), g.num_nodes());
    check_fm_search(g, p, band, bound_a, bound_b, strategy, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FMStrategyProperty,
                         ::testing::Values(QueueSelection::kTopGain,
                                           QueueSelection::kMaxLoad,
                                           QueueSelection::kAlternate,
                                           QueueSelection::kTopGainMaxLoad));

TEST(TwoWayFM, ReducesOverloadFromImbalancedStart) {
  const StaticGraph g = grid_graph(20, 20);
  // 90/10 split: heavily overloaded block 0.
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 20) < 18 ? 0 : 1;
  Partition p(g, std::move(assignment), 2);
  const NodeWeight bound = max_block_weight_bound(g, 2, 0.03);
  ASSERT_GT(p.block_weight(0), bound);

  TwoWayFMOptions options;
  options.max_block_weight = bound;
  options.patience_alpha = 0.5;
  Rng rng(3);
  NodeWeight overload = p.block_weight(0) - bound;
  for (int round = 0; round < 12 && overload > 0; ++round) {
    Rng fm_rng = rng.fork(round);
    (void)twoway_fm(g, p, 0, 1, all_nodes(g.num_nodes()), options, fm_rng);
    overload = std::max<NodeWeight>(
        0, std::max(p.block_weight(0) - bound, p.block_weight(1) - bound));
  }
  EXPECT_EQ(overload, 0) << "FM failed to rebalance";
}

TEST(TwoWayFM, RespectsEligibilityBand) {
  const StaticGraph g = grid_graph(16, 16);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 16) < 8 ? 0 : 1;
  Partition p(g, std::move(assignment), 2);
  const Partition before = p;

  // Eligible set: only the two columns at the boundary.
  std::vector<NodeID> band;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    const NodeID col = u % 16;
    if (col == 7 || col == 8) band.push_back(u);
  }
  TwoWayFMOptions options;
  options.max_block_weight = max_block_weight_bound(g, 2, 0.03);
  Rng rng(5);
  (void)twoway_fm(g, p, 0, 1, band, options, rng);
  // Nodes outside the band never move.
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    const NodeID col = u % 16;
    if (col != 7 && col != 8) {
      EXPECT_EQ(p.block(u), before.block(u)) << "node " << u;
    }
  }
}

// ------------------------------------------------------------------ band ----

TEST(Band, DepthOneIsExactlyTheBoundary) {
  const StaticGraph g = grid_graph(10, 10);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 10) < 5 ? 0 : 1;
  Partition p(g, std::move(assignment), 2);
  const auto band = boundary_band(g, p, 0, 1, 1);
  // Columns 4 and 5: 20 nodes.
  EXPECT_EQ(band.size(), 20u);
  for (const NodeID u : band) {
    const NodeID col = u % 10;
    EXPECT_TRUE(col == 4 || col == 5);
  }
}

TEST(Band, DepthGrowsByOneColumnPerLevel) {
  const StaticGraph g = grid_graph(10, 10);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 10) < 5 ? 0 : 1;
  Partition p(g, std::move(assignment), 2);
  EXPECT_EQ(boundary_band(g, p, 0, 1, 2).size(), 40u);
  EXPECT_EQ(boundary_band(g, p, 0, 1, 3).size(), 60u);
  EXPECT_EQ(boundary_band(g, p, 0, 1, 5).size(), 100u);  // whole graph
}

TEST(Band, RestrictedToThePairsBlocks) {
  const StaticGraph g = grid_graph(9, 9);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 9) / 3;
  Partition p(g, std::move(assignment), 3);
  const auto band = boundary_band(g, p, 0, 1, 4);
  for (const NodeID u : band) {
    EXPECT_NE(p.block(u), 2u);
  }
}

// --------------------------------------------------------- edge coloring ----

TEST(EdgeColoring, ValidOnStripedQuotient) {
  const StaticGraph g = grid_graph(32, 8);
  const Partition p = striped_partition(g, 32, 8);
  const QuotientGraph q(g, p);
  ASSERT_EQ(q.edges().size(), 7u);  // a path of blocks
  Rng rng(2);
  const EdgeColoring coloring = color_quotient_edges(q, rng);
  EXPECT_EQ(validate_coloring(q, coloring), "");
  // A path needs only 2 colors; the protocol guarantees <= 2*opt.
  EXPECT_LE(coloring.num_colors, 4);
}

TEST(EdgeColoring, ColorClassesAreMatchings) {
  Rng graph_rng(7);
  const StaticGraph g = random_geometric_graph(1200, 0.06, graph_rng);
  // Random 12-way partition gives a dense quotient graph.
  std::vector<BlockID> assignment(g.num_nodes());
  Rng arng(3);
  for (auto& b : assignment) b = static_cast<BlockID>(arng.bounded(12));
  const Partition p(g, std::move(assignment), 12);
  const QuotientGraph q(g, p);
  Rng rng(5);
  const EdgeColoring coloring = color_quotient_edges(q, rng);
  EXPECT_EQ(validate_coloring(q, coloring), "");
  for (int c = 0; c < coloring.num_colors; ++c) {
    std::set<BlockID> blocks;
    for (const std::size_t e : coloring.color_class(c)) {
      EXPECT_TRUE(blocks.insert(q.edges()[e].a).second);
      EXPECT_TRUE(blocks.insert(q.edges()[e].b).second);
    }
  }
  // The theoretical bound: at most twice the optimum <= 2 * maxdeg colors
  // (an edge coloring needs >= maxdeg).
  EXPECT_LE(coloring.num_colors, 2 * static_cast<int>(q.max_degree()));
}

TEST(EdgeColoring, SingleEdgeTerminates) {
  const StaticGraph g = grid_graph(4, 2);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = (u % 4) < 2 ? 0 : 1;
  const Partition p(g, std::move(assignment), 2);
  const QuotientGraph q(g, p);
  ASSERT_EQ(q.edges().size(), 1u);
  Rng rng(1);
  const EdgeColoring coloring = color_quotient_edges(q, rng);
  EXPECT_EQ(coloring.num_colors, 1);
  EXPECT_EQ(coloring.color_of_edge[0], 0);
}

TEST(EdgeColoring, ValidOnEightBlockGridQuotient) {
  const StaticGraph g = grid_graph(40, 10);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = std::min<BlockID>((u % 40) / 5, 7);
  }
  const Partition p(g, std::move(assignment), 8);
  const QuotientGraph q(g, p);
  const EdgeColoring coloring = color_quotient_edges(q, Rng(5));
  EXPECT_EQ(validate_coloring(q, coloring), "");
  EXPECT_LE(coloring.num_colors, 2 * static_cast<int>(q.max_degree()));
}

TEST(EdgeColoring, ValidOnNearCompleteQuotient) {
  // Random 10-way partition of an rgg: the quotient is near-complete.
  Rng graph_rng(3);
  const StaticGraph g = random_geometric_graph(900, 0.08, graph_rng);
  std::vector<BlockID> assignment(g.num_nodes());
  Rng arng(1);
  for (auto& b : assignment) b = static_cast<BlockID>(arng.bounded(10));
  const Partition p(g, std::move(assignment), 10);
  const QuotientGraph q(g, p);
  ASSERT_GT(q.edges().size(), 30u);
  EXPECT_EQ(validate_coloring(q, color_quotient_edges(q, Rng(7))), "");
}

TEST(EdgeColoring, EmptyQuotientHasNoColors) {
  const StaticGraph g = grid_graph(4, 1);
  const Partition p(g, {0, 0, 0, 0}, 1);
  const QuotientGraph q(g, p);
  EXPECT_EQ(color_quotient_edges(q, Rng(1)).num_colors, 0);
}

// ------------------------------------------------------ pairwise refiner ----

// ----------------------------------------------------- kernel contract ----

TEST(PairKernel, ReadsRowsAndWeightsOfMovableNodesOnly) {
  // A perturbed bisection of a grid with every third node frozen, so
  // frozen nodes sit inside and next to every band: band BFS, boundary
  // refresh and FM all meet them. The model fails the test on any row or
  // weight read, and any move, of a frozen node.
  const StaticGraph g = grid_graph(30, 30);
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = (u % 30) < 15 ? 0 : 1;
  }
  Rng rng(8);
  for (int i = 0; i < 80; ++i) {
    const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    assignment[u] = 1 - assignment[u];
  }
  std::vector<char> movable(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) movable[u] = u % 3 != 0;

  Partition partition(g, assignment, 2);
  PairwiseRefinerOptions options;
  options.fm.max_block_weight = max_block_weight_bound(g, 2, 0.03);
  options.bfs_depth = 3;
  options.duplicate_search = true;
  const std::vector<NodeID> seeds = boundary_band(g, partition, 0, 1, 1);
  const EdgeWeight before = edge_cut(g, partition);
  FrozenContextModel<Partition> model(g, partition, movable);
  const PairRefineResult result =
      refine_pair(model, 0, 1, seeds, options, Rng(3), /*seed_tag=*/7);
  EXPECT_FALSE(result.moves.empty());
  EXPECT_EQ(before - edge_cut(g, partition), result.cut_gain);
  for (const auto& [u, to] : result.moves) {
    EXPECT_NE(movable[u], 0);
    EXPECT_EQ(partition.block(u), to);
  }
}

TEST(PairwiseRefiner, ImprovesStripedGridPartition) {
  const StaticGraph g = grid_graph(32, 32);
  Partition p = striped_partition(g, 32, 4);
  const EdgeWeight before = edge_cut(g, p);

  PairwiseRefinerOptions options;
  options.fm.max_block_weight = max_block_weight_bound(g, 4, 0.03);
  options.fm.patience_alpha = 0.2;
  options.bfs_depth = 5;
  options.local_iterations = 3;
  options.max_global_iterations = 10;
  Rng rng(8);
  const PairwiseRefineReport report = pairwise_refine(g, p, options, rng);

  const EdgeWeight after = edge_cut(g, p);
  EXPECT_EQ(before - after, report.total_cut_gain);
  EXPECT_LE(after, before);
  EXPECT_EQ(validate_partition(g, p), "");
  EXPECT_TRUE(is_balanced(g, p, 0.03));
}

TEST(PairwiseRefiner, DuplicateSearchNotWorseThanSingle) {
  const StaticGraph g = grid_graph(24, 24);
  Partition p1 = striped_partition(g, 24, 4);
  Partition p2 = p1;

  PairwiseRefinerOptions options;
  options.fm.max_block_weight = max_block_weight_bound(g, 4, 0.03);
  options.max_global_iterations = 5;
  Rng rng1(11);
  options.duplicate_search = false;
  pairwise_refine(g, p1, options, rng1);
  Rng rng2(11);
  options.duplicate_search = true;
  pairwise_refine(g, p2, options, rng2);

  EXPECT_EQ(validate_partition(g, p2), "");
  // Both are valid improvements; duplicate search explores two seeds per
  // pair so it should not end substantially worse.
  EXPECT_LE(edge_cut(g, p2), edge_cut(g, p1) * 12 / 10);
}

// --------------------------------------------------------- k-way refiner ----

TEST(KWayRefiner, ImprovesRandomPartition) {
  const StaticGraph g = grid_graph(20, 20);
  std::vector<BlockID> assignment(g.num_nodes());
  Rng arng(4);
  for (auto& b : assignment) b = static_cast<BlockID>(arng.bounded(4));
  Partition p(g, std::move(assignment), 4);
  const EdgeWeight before = edge_cut(g, p);

  KWayRefinerOptions options;
  options.max_block_weight = max_block_weight_bound(g, 4, 0.05);
  options.passes = 6;
  Rng rng(5);
  const EdgeWeight gain = kway_refine(g, p, options, rng);
  EXPECT_GT(gain, 0);
  EXPECT_EQ(edge_cut(g, p), before - gain);
  EXPECT_EQ(validate_partition(g, p), "");
}

TEST(KWayRefiner, RespectsWeightBound) {
  const StaticGraph g = grid_graph(16, 16);
  const Partition start = striped_partition(g, 16, 4);
  Partition p = start;
  KWayRefinerOptions options;
  options.max_block_weight = max_block_weight_bound(g, 4, 0.03);
  options.passes = 4;
  Rng rng(6);
  kway_refine(g, p, options, rng);
  for (BlockID b = 0; b < 4; ++b) {
    EXPECT_LE(p.block_weight(b), options.max_block_weight);
  }
}

}  // namespace
}  // namespace kappa
