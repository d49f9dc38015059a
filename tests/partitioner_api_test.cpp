/// \file partitioner_api_test.cpp
/// \brief Tests for the unified Context/Partitioner API: repartitioning
/// runs through the phase interfaces (warm-started multilevel pipeline)
/// in both execution contexts, and the SPMD repartitioner keeps the
/// determinism contract of the from-scratch pipeline (fixed seed =>
/// identical partition and migration count for every PE count).
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/pe_runtime.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

/// Moves ~5% of the nodes to random blocks — the stand-in for an adaptive
/// mesh step degrading an existing assignment.
Partition perturb(const StaticGraph& g, const Partition& p, BlockID k,
                  std::uint64_t seed) {
  Partition perturbed = p;
  Rng rng(seed);
  for (NodeID i = 0; i < g.num_nodes() / 20; ++i) {
    const NodeID u = static_cast<NodeID>(rng.bounded(g.num_nodes()));
    const BlockID to = static_cast<BlockID>(rng.bounded(k));
    if (perturbed.block(u) != to) perturbed.move(u, to, g.node_weight(u));
  }
  return perturbed;
}

/// Rank \p rank's post-hoc migration intake between two assignments
/// (block b owned by rank b mod \p p): the nodes that migrated into its
/// blocks, and their arcs to nodes in its blocks afterwards.
MigrationIntake expected_intake(const StaticGraph& g, const Partition& before,
                                const Partition& after, int rank, int p) {
  const auto hosted = [&](NodeID u) {
    return static_cast<int>(after.block(u) % static_cast<BlockID>(p)) == rank;
  };
  MigrationIntake expected;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (!hosted(u) || after.block(u) == before.block(u)) continue;
    ++expected.nodes;
    for (const NodeID v : g.neighbors(u)) {
      if (hosted(v)) ++expected.edges;
    }
  }
  return expected;
}

// ----------------------------------------------------------- the Context ----

TEST(Context, CarriesConfigAndRuntime) {
  Config config = Config::preset(Preset::kFast, 4);
  config.seed = 7;

  const Context sequential = Context::sequential(config);
  EXPECT_FALSE(sequential.is_spmd());
  EXPECT_EQ(sequential.runtime(), nullptr);
  EXPECT_EQ(sequential.config().k, 4u);
  EXPECT_EQ(sequential.config().seed, 7u);

  PERuntime runtime(2, config.seed);
  const Context spmd = Context::spmd(config, runtime);
  EXPECT_TRUE(spmd.is_spmd());
  EXPECT_EQ(spmd.runtime(), &runtime);
}

// -------------------------------------- repartitioning through the phases ----

TEST(PartitionerRepartition, RunsTheMultilevelPipeline) {
  const StaticGraph g = make_instance("grid_m", 5);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 3;
  const Partitioner partitioner(Context::sequential(config));
  const PartitionResult fresh = partitioner.partition(g);
  const Partition perturbed = perturb(g, fresh.partition, 8, 13);
  const EdgeWeight perturbed_cut = edge_cut(g, perturbed);

  const PartitionResult result = partitioner.repartition(g, perturbed);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.initial_cut, perturbed_cut);
  EXPECT_LT(result.cut, perturbed_cut);
  EXPECT_TRUE(result.balanced) << "balance " << result.balance;
  // Warm starts now coarsen too: the hierarchy shape is reported like on
  // any other run.
  EXPECT_GE(result.hierarchy_levels, 1u);
  EXPECT_GT(result.coarsest_nodes, 0u);
}

TEST(PartitionerRepartition, MigratesStrictlyLessThanFromScratch) {
  const StaticGraph g = make_instance("rgg14", 9);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;
  const Partitioner partitioner(Context::sequential(config));
  const PartitionResult fresh = partitioner.partition(g);
  const Partition perturbed = perturb(g, fresh.partition, 8, 21);

  // A from-scratch run on the perturbed instance: migration is the
  // number of nodes whose block differs from the input assignment.
  Config rerun = config;
  rerun.seed = 6;
  const PartitionResult scratch =
      Partitioner(Context::sequential(rerun)).partition(g);
  NodeID scratch_migration = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (scratch.partition.block(u) != perturbed.block(u)) ++scratch_migration;
  }

  const PartitionResult result = partitioner.repartition(g, perturbed);
  EXPECT_LT(result.migrated_nodes, scratch_migration);
}

TEST(PartitionerRepartition, RejectsMismatchedInputInBothContexts) {
  // A current partition with the wrong block count or node count is an
  // API error: std::invalid_argument before any work, sequential and
  // SPMD alike (the SPMD run would otherwise index blocks past k).
  const StaticGraph g = make_instance("rgg13", 1);
  const StaticGraph other = make_instance("rgg12", 1);
  Config eight = Config::preset(Preset::kMinimal, 8);
  const PartitionResult fresh =
      Partitioner(Context::sequential(eight)).partition(g);
  const PartitionResult smaller =
      Partitioner(Context::sequential(eight)).partition(other);
  const Config four = Config::preset(Preset::kMinimal, 4);
  PERuntime runtime(2, 1);
  for (const Context& context :
       {Context::sequential(four), Context::spmd(four, runtime)}) {
    EXPECT_THROW((void)Partitioner(context).repartition(g, fresh.partition),
                 std::invalid_argument);
  }
  for (const Context& context :
       {Context::sequential(eight), Context::spmd(eight, runtime)}) {
    EXPECT_THROW(
        (void)Partitioner(context).repartition(g, smaller.partition),
        std::invalid_argument);
  }
  // The runtime is still usable: the rejection started no rank.
  const PartitionResult ok = Partitioner(Context::spmd(eight, runtime))
                                .repartition(g, fresh.partition);
  EXPECT_EQ(validate_partition(g, ok.partition), "");
}

// ------------------------------------------------------ SPMD repartition ----

TEST(SpmdRepartition, ImprovesCutAndRestoresFeasibility) {
  const StaticGraph g = make_instance("rgg14", 7);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 2;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);
  const Partition perturbed = perturb(g, fresh.partition, 8, 17);
  const EdgeWeight perturbed_cut = edge_cut(g, perturbed);

  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).repartition(g, perturbed);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.initial_cut, perturbed_cut);
  EXPECT_LT(result.cut, perturbed_cut);
  EXPECT_TRUE(result.balanced) << "balance " << result.balance;
  EXPECT_EQ(result.num_pes, 4);
  ASSERT_EQ(result.comm_per_pe.size(), 4u);
  EXPECT_GT(result.comm.barriers, 0u);
}

TEST(SpmdRepartition, IsPInvariantWithMigrationAccounting) {
  // The determinism contract of spmd_pipeline_test, extended to the
  // warm-started pipeline: a fixed seed yields the identical partition
  // *and* the identical migration count for every PE count; the per-PE
  // migration split always sums to the total.
  const StaticGraph g = make_instance("delaunay14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);
  const Partition perturbed = perturb(g, fresh.partition, 8, 19);

  PartitionResult reference;
  for (const int p : {1, 2, 3, 4, 9}) {  // ragged p and p > k included
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).repartition(g, perturbed);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    ASSERT_EQ(result.migrated_per_pe.size(), static_cast<std::size_t>(p));
    ASSERT_EQ(result.migrated_edges_per_pe.size(),
              static_cast<std::size_t>(p));
    const NodeID split_total = std::accumulate(
        result.migrated_per_pe.begin(), result.migrated_per_pe.end(),
        NodeID{0});
    EXPECT_EQ(split_total, result.migrated_nodes) << "p=" << p;
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << "p=" << p;
    EXPECT_EQ(result.migrated_nodes, reference.migrated_nodes) << "p=" << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << "p=" << p << " node " << u;
    }
  }
}

TEST(SpmdRepartition, IncrementalMigrationViewMatchesPostHocComputation) {
  // The refiner counts each rank's migration intake from its
  // incrementally maintained finest-level store; the numbers must equal
  // what the post-hoc computation derives from the final assignment.
  const StaticGraph g = make_instance("rgg14", 5);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 4;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);
  const Partition perturbed = perturb(g, fresh.partition, 8, 29);

  for (const int p : {1, 2, 3, 4, 7}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).repartition(g, perturbed);
    ASSERT_EQ(result.migrated_per_pe.size(), static_cast<std::size_t>(p));
    ASSERT_EQ(result.migrated_edges_per_pe.size(),
              static_cast<std::size_t>(p));
    for (int rank = 0; rank < p; ++rank) {
      const MigrationIntake oracle =
          expected_intake(g, perturbed, result.partition, rank, p);
      EXPECT_EQ(result.migrated_per_pe[rank], oracle.nodes)
          << "p=" << p << " rank " << rank;
      EXPECT_EQ(result.migrated_edges_per_pe[rank], oracle.edges)
          << "p=" << p << " rank " << rank;
    }
  }
}

TEST(SpmdRepartition, MigratesStrictlyLessThanSpmdFromScratch) {
  const StaticGraph g = make_instance("rgg14", 3);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 8;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);
  const Partition perturbed = perturb(g, fresh.partition, 8, 23);

  Config rerun = config;
  rerun.seed = 9;
  PERuntime scratch_runtime(2, rerun.seed);
  const PartitionResult scratch =
      Partitioner(Context::spmd(rerun, scratch_runtime)).partition(g);
  NodeID scratch_migration = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (scratch.partition.block(u) != perturbed.block(u)) ++scratch_migration;
  }

  PERuntime runtime(2, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).repartition(g, perturbed);
  EXPECT_LT(result.migrated_nodes, scratch_migration);
}

}  // namespace
}  // namespace kappa
