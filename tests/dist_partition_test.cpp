/// \file dist_partition_test.cpp
/// \brief Tests for the sharded partition-state store and the §5.2
/// band-limited pair shipping: p-invariance/bit-identity over the full
/// runtime-size range, the sub-linear per-rank partition memory, the
/// shipped-volume accounting, and the stale-seed hardening of the band
/// BFS.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/partitioner.hpp"
#include "core/phases.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/transport.hpp"
#include "refinement/band.hpp"

#include "frozen_context_model.hpp"

namespace kappa {
namespace {

TEST(DistPartitionStore, RepartitionBitIdenticalForP1Through9) {
  // The acceptance criterion of the sharded partition state: both
  // workloads stay bit-identical and p-invariant over the full
  // runtime-size range, including ragged p and p > k. The from-scratch
  // sweep lives in spmd_pipeline_test; this one covers the warm-started
  // repartitioner, whose migration intake reads block membership from
  // the store alone.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  const PartitionResult fresh =
      Partitioner(Context::sequential(config)).partition(g);

  PartitionResult reference;
  for (int p = 1; p <= 9; ++p) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime))
            .repartition(g, fresh.partition);
    EXPECT_EQ(validate_partition(g, result.partition), "");
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
    // The per-rank migration intakes account every migrated node once.
    NodeID intake = 0;
    for (const NodeID nodes : result.migrated_per_pe) intake += nodes;
    EXPECT_EQ(intake, result.migrated_nodes) << "p=" << p;
  }
}

TEST(BandShipping, ShipsBandsNotWholeBlocks) {
  // The §5.2 migration-volume criterion: per pair the shipped rows are
  // the boundary band (plus its one-hop fringe), strictly below the whole
  // blocks the same pairs would have needed on a large instance.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 5;

  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  ASSERT_EQ(result.pair_ship_per_pe.size(), 4u);
  const PairShipStats total = fold_counters(result.counters_per_pe).pair_ship;
  ASSERT_GT(total.pairs_shipped, 0u);
  EXPECT_LT(total.rows_shipped, total.whole_block_rows);
}

TEST(DistPartitionStore, PartitionMemoryIsShardedNotReplicated) {
  // The memory acceptance criterion: the partition was the last O(n)
  // state every rank held. With the sharded store a rank keeps its owned
  // block ids (n/p) plus the ghost-block cache (members + resident-row
  // targets) — strictly below n for p >= 2.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  {
    PERuntime runtime(1, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.partition_memory_per_pe.size(), 1u);
    // A single rank owns every shard and learns nothing remotely.
    EXPECT_EQ(result.partition_memory_per_pe[0].owned_nodes, g.num_nodes());
    EXPECT_EQ(result.partition_memory_per_pe[0].ghost_nodes, 0u);
  }

  for (const int p : {2, 4, 8}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.partition_memory_per_pe.size(),
              static_cast<std::size_t>(p));
    std::uint64_t total_owned = 0;
    for (int rank = 0; rank < p; ++rank) {
      const ShardFootprint& fp = result.partition_memory_per_pe[rank];
      EXPECT_GT(fp.owned_nodes, 0u) << "p=" << p << " rank " << rank;
      EXPECT_LT(fp.resident_nodes(), g.num_nodes())
          << "p=" << p << " rank " << rank;
      EXPECT_LE(fp.owned_nodes, 2u * g.num_nodes() / p)
          << "p=" << p << " rank " << rank;
      total_owned += fp.owned_nodes;
    }
    // The owned entries partition the finest level exactly.
    EXPECT_EQ(total_owned, g.num_nodes()) << "p=" << p;
  }
}

TEST(BandShipping, SpmdRunWithMidLevelMovesStaysValidAndPInvariant) {
  // Regression driven from an SPMD run: multiple global iterations over
  // several color classes make quotient seed lists stale mid-level (nodes
  // move to third blocks between the quotient construction and a pair's
  // execution). The band builders must skip those seeds — their rows are
  // no longer resident at the pair's owners — instead of crashing or
  // polluting the band.
  const StaticGraph g = make_instance("road_s", 9);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 3;

  PartitionResult reference;
  for (const int p : {1, 3, 5}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    EXPECT_TRUE(result.balanced) << "p=" << p;
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

TEST(DistPartitionStore, PeerRecordsThatContradictHeldEntriesAreRejected) {
  // A peer's move delta must name the held entry as its from block, and a
  // learned block must agree with an owned entry: otherwise the entries
  // and the replicated block weights would drift apart silently. Both
  // raise TransportError in every build type and change nothing.
  const StaticGraph g = grid_graph(8, 8);
  std::vector<BlockID> blocks(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) blocks[u] = u % 4;
  const Partition replica(g, blocks, 4);
  const Config config = Config::preset(Preset::kFast, 4);
  PERuntime runtime(1, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy(g, coarsening_options(g, config), Rng(1),
                                  pe);
    DistPartition owned(hierarchy.level(0), replica, pe);
    DistPartition cached = DistPartition::from_replica(replica);
    const NodeID u = 5;  // block 1; owned at p = 1
    EXPECT_THROW(owned.learn(u, 2), TransportError);
    EXPECT_NO_THROW(owned.learn(u, 1));
    for (DistPartition* partition : {&owned, &cached}) {
      EXPECT_THROW(partition->apply_move(u, 0, 2, 1), TransportError);
      EXPECT_THROW(partition->apply_move(u, 1, 4, 1), TransportError);
      EXPECT_THROW(partition->apply_move(u, 4, 1, 1), TransportError);
      EXPECT_EQ(partition->block(u), 1u);
      for (BlockID b = 0; b < 4; ++b) {
        EXPECT_EQ(partition->block_weight(b), replica.block_weight(b));
      }
      partition->apply_move(u, 1, 2, 1);
      EXPECT_EQ(partition->block(u), 2u);
      EXPECT_EQ(partition->block_weight(1), replica.block_weight(1) - 1);
    }
  });
}

TEST(BoundaryBand, StaleSeedsAreSkippedNotExpanded) {
  // Unit regression for the stale-seed hardening: seeds that left the
  // pair — or that no longer name a node of the graph at all — must be
  // skipped before any array access, and a frozen (non-movable) node
  // must neither seed nor admit the band.
  GraphBuilder builder(6);
  for (NodeID u = 0; u + 1 < 6; ++u) builder.add_edge(u, u + 1, 1);
  const StaticGraph g = builder.finalize();
  // Blocks: 0 0 1 1 2 2 — the pair is {0, 1}; nodes 4, 5 left the pair.
  Partition partition(g, {0, 0, 1, 1, 2, 2}, 3);

  const std::vector<NodeID> seeds = {
      1,  // genuine pair boundary
      4,  // stale: moved to block 2
      42  // stale: does not name a node of this graph anymore
  };
  const std::vector<NodeID> band =
      boundary_band_from_seeds(GraphPairModel(g, partition), 0, 1, seeds, 3);
  // From node 1: depth 0 = {1}, depth 1 adds {0, 2}, depth 2 adds {3};
  // nothing from the stale seeds.
  EXPECT_EQ(band.size(), 4u);
  for (const NodeID u : band) {
    EXPECT_TRUE(partition.block(u) == 0 || partition.block(u) == 1);
  }

  // A model that freezes context nodes: with node 3 frozen the band can
  // neither contain nor cross it.
  const std::vector<char> movable = {1, 1, 1, 0, 1, 1};
  const FrozenContextModel<const Partition> frozen(g, partition, movable);
  const std::vector<NodeID> confined =
      boundary_band_from_seeds(frozen, 0, 1, seeds, 4);
  EXPECT_EQ(confined.size(), 3u);
  for (const NodeID u : confined) EXPECT_NE(u, 3u);
}

}  // namespace
}  // namespace kappa
