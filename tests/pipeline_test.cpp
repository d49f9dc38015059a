/// \file pipeline_test.cpp
/// \brief Property tests over the full KaPPa pipeline: the partitions are
/// valid, feasible and reproducible across presets, instance families,
/// block counts and imbalance settings.
#include <gtest/gtest.h>

#include "coarsening/hierarchy.hpp"
#include "core/partitioner.hpp"
#include "core/phases.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/pe_runtime.hpp"

namespace kappa {
namespace {

// ------------------------------------------ contraction stop threshold ----

TEST(StopThreshold, MatchesPaperFormula) {
  // k * max(20, n/(alpha k^2)); alpha = 60.
  // n = 1e6, k = 8: per-PE max(20, 1e6/3840) = 260.4 -> ~2083 global.
  EXPECT_EQ(contraction_stop_threshold(1'000'000, 8, 60.0), 2083u);
  // Small n: the 20-per-PE floor dominates.
  EXPECT_EQ(contraction_stop_threshold(10'000, 8, 60.0), 160u);
  // Never exceeds n.
  EXPECT_EQ(contraction_stop_threshold(100, 64, 60.0), 100u);
}

TEST(StopThreshold, EveryPresetMatchesOnKShardsAndStopsAtAlpha60) {
  // Table 2 fixes alpha = 60 for every preset, and the two-phase matching
  // runs on one shard per block, as the paper runs one PE per block.
  const StaticGraph g = make_instance("rgg14", 3);
  for (const Preset preset :
       {Preset::kMinimal, Preset::kFast, Preset::kStrong}) {
    for (const BlockID k : {2u, 16u}) {
      const CoarseningOptions options =
          coarsening_options(g, Config::preset(preset, k));
      EXPECT_EQ(options.matching_pes, k) << preset_name(preset);
      EXPECT_EQ(options.contraction_limit,
                contraction_stop_threshold(g.num_nodes(), k, 60.0))
          << preset_name(preset) << " k=" << k;
    }
  }
}

TEST(Hierarchy, CoarsensBelowThresholdAndConservesWeight) {
  const StaticGraph g = make_instance("rgg14", 3);
  CoarseningOptions options;
  options.contraction_limit = 500;
  Rng rng(1);
  const Hierarchy h = build_hierarchy(g, options, rng);
  EXPECT_GT(h.num_levels(), 3u);
  EXPECT_LE(h.coarsest().num_nodes(), 500u);
  for (std::size_t level = 0; level < h.num_levels(); ++level) {
    EXPECT_EQ(h.graph(level).total_node_weight(), g.total_node_weight());
    EXPECT_EQ(validate_graph(h.graph(level)), "") << "level " << level;
  }
  // Levels shrink monotonically.
  for (std::size_t level = 1; level < h.num_levels(); ++level) {
    EXPECT_LT(h.graph(level).num_nodes(), h.graph(level - 1).num_nodes());
  }
}

TEST(Hierarchy, ParallelMatchingPathProducesSameInvariants) {
  const StaticGraph g = make_instance("rgg14", 3);
  CoarseningOptions options;
  options.contraction_limit = 400;
  options.matching_pes = 8;  // exercises prepartition + gap graph
  Rng rng(2);
  const Hierarchy h = build_hierarchy(g, options, rng);
  EXPECT_LE(h.coarsest().num_nodes(), 400u);
  EXPECT_EQ(h.coarsest().total_node_weight(), g.total_node_weight());
}

// ------------------------------------------------------- full pipeline ----

/// The main property grid: preset x instance x k.
class PipelineProperty
    : public ::testing::TestWithParam<
          std::tuple<Preset, std::string, BlockID>> {};

TEST_P(PipelineProperty, ValidBalancedPartition) {
  const auto& [preset, instance, k] = GetParam();
  const StaticGraph g = make_instance(instance, 11);
  Config config = Config::preset(preset, k);
  config.seed = 5;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);

  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.partition.k(), k);
  EXPECT_TRUE(result.balanced)
      << preset_name(preset) << " " << instance << " k=" << k
      << " balance=" << result.balance;
  for (BlockID b = 0; b < k; ++b) {
    EXPECT_GT(result.partition.block_weight(b), 0)
        << "empty block " << b << " on " << instance;
  }
  EXPECT_EQ(edge_cut(g, result.partition), result.cut);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineProperty,
    ::testing::Combine(
        ::testing::Values(Preset::kMinimal, Preset::kFast, Preset::kStrong),
        ::testing::Values("grid_s", "road_s", "rmat_14", "annulus_m"),
        ::testing::Values(BlockID{4}, BlockID{16})));

TEST(Pipeline, DeterministicUnderFixedSeed) {
  const StaticGraph g = make_instance("delaunay14", 2);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 77;
  const PartitionResult a =
      Partitioner(Context::sequential(config)).partition(g);
  const PartitionResult b =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(a.cut, b.cut);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(a.partition.block(u), b.partition.block(u));
  }
}

TEST(Pipeline, SeedsChangeTheResult) {
  const StaticGraph g = make_instance("delaunay14", 2);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 1;
  const PartitionResult a =
      Partitioner(Context::sequential(config)).partition(g);
  config.seed = 2;
  const PartitionResult b =
      Partitioner(Context::sequential(config)).partition(g);
  bool any_difference = a.cut != b.cut;
  for (NodeID u = 0; u < g.num_nodes() && !any_difference; ++u) {
    any_difference = a.partition.block(u) != b.partition.block(u);
  }
  EXPECT_TRUE(any_difference);
}

/// The Walshaw-benchmark imbalance settings (§6.3).
class EpsilonProperty : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonProperty, RespectsImbalanceBound) {
  const double eps = GetParam();
  const StaticGraph g = make_instance("grid_s", 4);
  Config config = Config::preset(Preset::kFast, 8, eps);
  config.seed = 3;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_TRUE(is_balanced(g, result.partition, eps))
      << "eps=" << eps << " balance=" << result.balance;
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonProperty,
                         ::testing::Values(0.01, 0.03, 0.05));

TEST(Pipeline, StrongNotWorseThanMinimalOnAverage) {
  // Table 2's central claim: more work -> better cuts (minimal 2985,
  // fast 2910, strong 2890 geometric mean). Check the trend on a batch.
  double minimal_total = 0;
  double strong_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const StaticGraph g = make_instance("delaunay14", seed);
    Config minimal = Config::preset(Preset::kMinimal, 8);
    minimal.seed = seed;
    Config strong = Config::preset(Preset::kStrong, 8);
    strong.seed = seed;
    minimal_total += static_cast<double>(
        Partitioner(Context::sequential(minimal)).partition(g).cut);
    strong_total += static_cast<double>(
        Partitioner(Context::sequential(strong)).partition(g).cut);
  }
  EXPECT_LT(strong_total, minimal_total);
}

TEST(Pipeline, HandlesDisconnectedGraph) {
  // Two separate grids.
  GraphBuilder builder(200);
  for (NodeID base : {NodeID{0}, NodeID{100}}) {
    for (NodeID y = 0; y < 10; ++y) {
      for (NodeID x = 0; x < 10; ++x) {
        const NodeID u = base + y * 10 + x;
        if (x + 1 < 10) builder.add_edge(u, u + 1);
        if (y + 1 < 10) builder.add_edge(u, u + 10);
      }
    }
  }
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 1;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_TRUE(result.balanced);
}

TEST(Pipeline, HandlesTinyGraphs) {
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 4);
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 2);
  config.seed = 1;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_LE(result.cut, 2);
}

TEST(Pipeline, WeightedInputGraph) {
  // Node and edge weights from the start (the paper: "even those will be
  // translated into weighted problems in the course of the algorithm").
  GraphBuilder builder(100);
  Rng rng(8);
  for (NodeID u = 0; u < 100; ++u) {
    builder.set_node_weight(u, 1 + static_cast<NodeWeight>(rng.bounded(5)));
  }
  for (NodeID u = 0; u < 99; ++u) {
    builder.add_edge(u, u + 1, 1 + rng.bounded(9));
    if (u + 10 < 100) builder.add_edge(u, u + 10, 1 + rng.bounded(9));
  }
  const StaticGraph g = builder.finalize();
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 2;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_TRUE(result.balanced);
}

TEST(Pipeline, PhaseTimesSumToTotal) {
  const StaticGraph g = make_instance("grid_s", 1);
  Config config = Config::preset(Preset::kFast, 4);
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_LE(result.coarsening_time + result.initial_time +
                result.refinement_time,
            result.total_time + 1e-6);
  EXPECT_GT(result.hierarchy_levels, 1u);
  EXPECT_GT(result.coarsest_nodes, 0u);
}

TEST(Pipeline, SequentialRunReportsTheLevelNodesOfSpmd) {
  // Both pipelines build the same hierarchy, and both report its level
  // sizes, finest first.
  const StaticGraph g = make_instance("rgg14", 2);
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 4;
  const PartitionResult sequential =
      Partitioner(Context::sequential(config)).partition(g);
  ASSERT_EQ(sequential.hierarchy_level_nodes.size(),
            sequential.hierarchy_levels);
  EXPECT_EQ(sequential.hierarchy_level_nodes.front(), g.num_nodes());
  EXPECT_EQ(sequential.hierarchy_level_nodes.back(), sequential.coarsest_nodes);
  for (const int p : {1, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult spmd =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(sequential.hierarchy_level_nodes, spmd.hierarchy_level_nodes)
        << "p=" << p;
  }
}

}  // namespace
}  // namespace kappa
