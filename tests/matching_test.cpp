/// \file matching_test.cpp
/// \brief Tests for edge ratings, the three sequential matchers and the
/// two-phase parallel matcher, including approximation-ratio checks
/// against brute force on small graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "coarsening/prepartition.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/validation.hpp"
#include "matching/matchers.hpp"
#include "matching/parallel_match.hpp"
#include "matching/ratings.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

/// Exact maximum rating matching by exhaustive search (small graphs only).
double brute_force_max_matching(const StaticGraph& g, EdgeRating rating) {
  const std::vector<RatedEdge> edges = collect_rated_edges(g, rating);
  double best = 0.0;
  const std::size_t m = edges.size();
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    std::uint32_t used = 0;  // node bitmap (n <= 32)
    double value = 0.0;
    bool valid = true;
    for (std::size_t i = 0; i < m && valid; ++i) {
      if (!(mask & (std::uint64_t{1} << i))) continue;
      const std::uint32_t pair =
          (1u << edges[i].u) | (1u << edges[i].v);
      if (used & pair) {
        valid = false;
      } else {
        used |= pair;
        value += edges[i].rating;
      }
    }
    if (valid) best = std::max(best, value);
  }
  return best;
}

// -------------------------------------------------------------- ratings ----

TEST(Ratings, FormulasMatchPaperDefinitions) {
  // edge {u,v}: w=6, c(u)=2, c(v)=3, Out(u)=10, Out(v)=8.
  EXPECT_DOUBLE_EQ(rate_edge(EdgeRating::kWeight, 6, 2, 3, 10, 8), 6.0);
  EXPECT_DOUBLE_EQ(rate_edge(EdgeRating::kExpansion, 6, 2, 3, 10, 8),
                   6.0 / 5.0);
  EXPECT_DOUBLE_EQ(rate_edge(EdgeRating::kExpansionStar, 6, 2, 3, 10, 8),
                   1.0);
  EXPECT_DOUBLE_EQ(rate_edge(EdgeRating::kExpansionStar2, 6, 2, 3, 10, 8),
                   6.0);
  // innerOuter: 6 / (10 + 8 - 12) = 1.
  EXPECT_DOUBLE_EQ(rate_edge(EdgeRating::kInnerOuter, 6, 2, 3, 10, 8), 1.0);
}

TEST(Ratings, InnerOuterIsolatedPairGetsHugeRating) {
  // Out(u) + Out(v) - 2w == 0: the pair has no outer edges.
  EXPECT_GT(rate_edge(EdgeRating::kInnerOuter, 4, 1, 1, 4, 4), 1e10);
}

TEST(Ratings, ExpansionPenalizesHeavyNodes) {
  const double light = rate_edge(EdgeRating::kExpansionStar2, 3, 1, 1, 0, 0);
  const double heavy = rate_edge(EdgeRating::kExpansionStar2, 3, 10, 10, 0, 0);
  EXPECT_GT(light, heavy);
}

TEST(Ratings, CollectRatedEdgesCoversEveryEdgeOnce) {
  Rng rng(1);
  const StaticGraph g = random_geometric_graph(200, 0.1, rng);
  const auto edges = collect_rated_edges(g, EdgeRating::kExpansionStar2);
  EXPECT_EQ(edges.size(), g.num_edges());
  for (const RatedEdge& e : edges) EXPECT_LT(e.u, e.v);
}

// ------------------------------------------------------------- matchers ----

/// Validity and weight-bound compliance for every matcher x rating combo.
class MatcherProperty
    : public ::testing::TestWithParam<std::tuple<MatcherAlgo, EdgeRating>> {};

TEST_P(MatcherProperty, ProducesValidMatching) {
  const auto& [algo, rating] = GetParam();
  Rng graph_rng(3);
  const StaticGraph g = random_geometric_graph(800, 0.06, graph_rng);
  MatchingOptions options;
  options.rating = rating;
  Rng rng(9);
  const auto partner = compute_matching(g, algo, options, rng);
  EXPECT_EQ(validate_matching(g, partner), "");
  EXPECT_GT(matching_size(partner), g.num_nodes() / 4);
}

TEST_P(MatcherProperty, RespectsPairWeightBound) {
  const auto& [algo, rating] = GetParam();
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 100);
  builder.add_edge(2, 3, 100);
  builder.add_edge(4, 5, 100);
  builder.set_node_weight(0, 10);
  builder.set_node_weight(1, 10);
  const StaticGraph g = builder.finalize();
  MatchingOptions options;
  options.rating = rating;
  options.max_pair_weight = 5;  // forbids the heavy pair {0,1}
  Rng rng(2);
  const auto partner = compute_matching(g, algo, options, rng);
  EXPECT_EQ(partner[0], 0u);
  EXPECT_EQ(partner[1], 1u);
  EXPECT_EQ(partner[2], 3u);
  EXPECT_EQ(partner[4], 5u);
}

TEST_P(MatcherProperty, BlockConstraintFiltersDuringRating) {
  // Warm-start coarsening: with the block constraint the matcher never
  // proposes a cross-block pair — and because the filter runs during
  // rating (not after matching), a boundary node picks its best
  // intra-block partner instead of staying unmatched.
  const auto& [algo, rating] = GetParam();
  Rng graph_rng(5);
  const StaticGraph g = random_geometric_graph(800, 0.06, graph_rng);
  std::vector<BlockID> blocks(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) blocks[u] = u % 2;

  MatchingOptions options;
  options.rating = rating;
  options.blocks = &blocks;
  Rng rng(9);
  const auto constrained = compute_matching(g, algo, options, rng);
  EXPECT_EQ(validate_matching(g, constrained), "");
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    ASSERT_TRUE(constrained[u] == u || blocks[u] == blocks[constrained[u]]);
  }

  // Baseline: the old policy matched unconstrained and dissolved every
  // cross-block pair afterwards. Rating-time filtering must never do
  // worse, and on this half/half split it finds strictly more pairs.
  options.blocks = nullptr;
  Rng rng2(9);
  auto dissolved = compute_matching(g, algo, options, rng2);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    const NodeID v = dissolved[u];
    if (v > u && blocks[u] != blocks[v]) {
      dissolved[u] = u;
      dissolved[v] = v;
    }
  }
  EXPECT_GT(matching_size(constrained), matching_size(dissolved));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MatcherProperty,
    ::testing::Combine(::testing::Values(MatcherAlgo::kSHEM,
                                         MatcherAlgo::kGreedy,
                                         MatcherAlgo::kGPA),
                       ::testing::Values(EdgeRating::kWeight,
                                         EdgeRating::kExpansion,
                                         EdgeRating::kExpansionStar,
                                         EdgeRating::kExpansionStar2,
                                         EdgeRating::kInnerOuter)));

TEST(Greedy, HalfApproximationOnRandomSmallGraphs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    GraphBuilder builder(10);
    for (int i = 0; i < 14; ++i) {
      const NodeID u = static_cast<NodeID>(rng.bounded(10));
      const NodeID v = static_cast<NodeID>(rng.bounded(10));
      if (u != v) builder.add_edge(u, v, 1 + rng.bounded(20));
    }
    const StaticGraph g = builder.finalize();
    if (g.num_edges() == 0 || g.num_edges() > 16) continue;
    const double optimum = brute_force_max_matching(g, EdgeRating::kWeight);
    MatchingOptions options;
    options.rating = EdgeRating::kWeight;
    Rng mrng(seed + 100);
    const auto partner =
        compute_matching(g, MatcherAlgo::kGreedy, options, mrng);
    const double value = matching_rating(g, partner, EdgeRating::kWeight);
    EXPECT_GE(value + 1e-9, 0.5 * optimum) << "seed " << seed;
  }
}

TEST(GPA, HalfApproximationOnRandomSmallGraphs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 31 + 7);
    GraphBuilder builder(10);
    for (int i = 0; i < 14; ++i) {
      const NodeID u = static_cast<NodeID>(rng.bounded(10));
      const NodeID v = static_cast<NodeID>(rng.bounded(10));
      if (u != v) builder.add_edge(u, v, 1 + rng.bounded(20));
    }
    const StaticGraph g = builder.finalize();
    if (g.num_edges() == 0 || g.num_edges() > 16) continue;
    const double optimum = brute_force_max_matching(g, EdgeRating::kWeight);
    MatchingOptions options;
    options.rating = EdgeRating::kWeight;
    Rng mrng(seed + 200);
    const auto partner = compute_matching(g, MatcherAlgo::kGPA, options, mrng);
    const double value = matching_rating(g, partner, EdgeRating::kWeight);
    EXPECT_GE(value + 1e-9, 0.5 * optimum) << "seed " << seed;
  }
}

TEST(GPA, OptimalOnPaths) {
  // GPA solves paths by DP, so on a path graph it must be optimal.
  GraphBuilder builder(6);
  builder.add_edge(0, 1, 5);
  builder.add_edge(1, 2, 9);
  builder.add_edge(2, 3, 5);
  builder.add_edge(3, 4, 9);
  builder.add_edge(4, 5, 5);
  const StaticGraph g = builder.finalize();
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(1);
  const auto partner = compute_matching(g, MatcherAlgo::kGPA, options, rng);
  // Optimum is {1,2} + {3,4} = 18 (not the greedy-looking 5+5+5).
  EXPECT_DOUBLE_EQ(matching_rating(g, partner, EdgeRating::kWeight), 18.0);
}

TEST(GPA, OptimalOnEvenCycle) {
  // 4-cycle with weights 10, 1, 10, 1: optimum picks the two 10s.
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 10);
  builder.add_edge(1, 2, 1);
  builder.add_edge(2, 3, 10);
  builder.add_edge(3, 0, 1);
  const StaticGraph g = builder.finalize();
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(4);
  const auto partner = compute_matching(g, MatcherAlgo::kGPA, options, rng);
  EXPECT_DOUBLE_EQ(matching_rating(g, partner, EdgeRating::kWeight), 20.0);
}

TEST(GPA, BeatsOrMatchesGreedyOnAverage) {
  // The paper's empirical claim (§3.2): GPA gives considerably better
  // matchings than plain Greedy. Compare total rating over a batch.
  double gpa_total = 0;
  double greedy_total = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng graph_rng(seed);
    const StaticGraph g = random_geometric_graph(1500, 0.05, graph_rng);
    MatchingOptions options;
    options.rating = EdgeRating::kExpansionStar2;
    Rng rng_a(seed + 1);
    Rng rng_b(seed + 1);
    gpa_total += matching_rating(
        g, compute_matching(g, MatcherAlgo::kGPA, options, rng_a),
        options.rating);
    greedy_total += matching_rating(
        g, compute_matching(g, MatcherAlgo::kGreedy, options, rng_b),
        options.rating);
  }
  EXPECT_GE(gpa_total, greedy_total);
}

TEST(SHEM, ScansByDegreeAndTakesOnlyAvailableEdges) {
  // Degree-1 nodes 2 and 3 are scanned first (SHEM scans by increasing
  // degree); each takes its single incident edge, which fully determines
  // the matching regardless of tie-breaking.
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 1);
  builder.add_edge(0, 2, 9);
  builder.add_edge(1, 3, 5);
  const StaticGraph g = builder.finalize();
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(1);
  const auto partner = compute_matching(g, MatcherAlgo::kSHEM, options, rng);
  EXPECT_EQ(partner[0], 2u);
  EXPECT_EQ(partner[1], 3u);
}

TEST(SHEM, ScannedNodePrefersHighestRatedNeighbor) {
  // Node 3 (degree 1) is scanned first and takes {3,2}; next the degree-2
  // nodes: whichever of 0/1 comes first picks its heaviest *available*
  // edge, which is {0,1} (w=7) for both.
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 7);
  builder.add_edge(0, 2, 3);
  builder.add_edge(1, 2, 2);
  builder.add_edge(2, 3, 1);
  const StaticGraph g = builder.finalize();
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(2);
  const auto partner = compute_matching(g, MatcherAlgo::kSHEM, options, rng);
  EXPECT_EQ(partner[3], 2u);
  EXPECT_EQ(partner[0], 1u);
}

// ----------------------------------------------------- parallel matching ----

TEST(ParallelMatching, ValidAcrossPECounts) {
  Rng graph_rng(5);
  const StaticGraph g = random_geometric_graph(2000, 0.04, graph_rng);
  for (const BlockID pes : {2u, 4u, 8u}) {
    const auto homes = prepartition(g, pes);
    MatchingOptions options;
    Rng rng(17);
    ParallelMatchingStats stats;
    const auto partner = parallel_matching(g, homes, pes, MatcherAlgo::kGPA,
                                           options, rng, &stats);
    EXPECT_EQ(validate_matching(g, partner), "") << pes << " PEs";
    EXPECT_GT(stats.local_pairs, 0u) << pes << " PEs";
    EXPECT_GT(matching_size(partner), g.num_nodes() / 4) << pes << " PEs";
  }
}

TEST(ParallelMatching, GapEdgesGetMatchedWhenDominant) {
  // Two PEs; the only heavy edge crosses the boundary — it must win.
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 1);   // PE 0 internal
  builder.add_edge(2, 3, 1);   // PE 1 internal
  builder.add_edge(1, 2, 50);  // crossing, dominant
  const StaticGraph g = builder.finalize();
  const std::vector<BlockID> homes = {0, 0, 1, 1};
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(3);
  ParallelMatchingStats stats;
  const auto partner = parallel_matching(g, homes, 2, MatcherAlgo::kGreedy,
                                         options, rng, &stats);
  EXPECT_EQ(partner[1], 2u);
  EXPECT_EQ(partner[2], 1u);
  EXPECT_EQ(stats.gap_pairs, 1u);
  // The tentative local matches of 1 and 2 were dissolved.
  EXPECT_EQ(partner[0], 0u);
  EXPECT_EQ(partner[3], 3u);
}

TEST(ParallelMatching, NoGapPhaseWhenLocalDominates) {
  // Crossing edge is lighter than both local matches: gap graph is empty.
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 50);
  builder.add_edge(2, 3, 50);
  builder.add_edge(1, 2, 1);
  const StaticGraph g = builder.finalize();
  const std::vector<BlockID> homes = {0, 0, 1, 1};
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(3);
  ParallelMatchingStats stats;
  const auto partner = parallel_matching(g, homes, 2, MatcherAlgo::kGreedy,
                                         options, rng, &stats);
  EXPECT_EQ(stats.gap_edges, 0u);
  EXPECT_EQ(partner[0], 1u);
  EXPECT_EQ(partner[2], 3u);
}

TEST(ParallelMatching, GapRoundsOutliveAnEdgeThatLostAnEndpoint) {
  // One node per PE, so every edge is a gap edge. Round 1 matches {1, 2};
  // node 0 still prefers {0, 2}, whose endpoint 2 is taken. That edge
  // must be retired before round 2 nominates, so {0, 3} is matched there
  // instead of the rounds ending with it admissible — as
  // DistHierarchy::match_level resolves the same graph.
  GraphBuilder builder(4);
  builder.add_edge(0, 2, 2);
  builder.add_edge(1, 2, 3);
  builder.add_edge(0, 3, 1);
  const StaticGraph g = builder.finalize();
  const std::vector<BlockID> homes = {0, 1, 2, 3};
  MatchingOptions options;
  options.rating = EdgeRating::kWeight;
  Rng rng(3);
  ParallelMatchingStats stats;
  const auto partner = parallel_matching(g, homes, 4, MatcherAlgo::kGreedy,
                                         options, rng, &stats);
  EXPECT_EQ(partner, (std::vector<NodeID>{3, 2, 1, 0}));
  EXPECT_EQ(stats.gap_pairs, 2u);
  EXPECT_EQ(stats.gap_rounds, 3u);
}

TEST(ParallelMatching, QualityCloseToSequential) {
  // The two-phase scheme may lose a little rating vs. sequential GPA but
  // not much — that is the point of the gap graph (§3.3).
  Rng graph_rng(8);
  const StaticGraph g = random_geometric_graph(3000, 0.035, graph_rng);
  MatchingOptions options;
  Rng rng_seq(21);
  const double seq = matching_rating(
      g, compute_matching(g, MatcherAlgo::kGPA, options, rng_seq),
      options.rating);
  const auto homes = prepartition(g, 8);
  Rng rng_par(21);
  const double par = matching_rating(
      g,
      parallel_matching(g, homes, 8, MatcherAlgo::kGPA, options, rng_par),
      options.rating);
  EXPECT_GT(par, 0.85 * seq);
}

}  // namespace
}  // namespace kappa
