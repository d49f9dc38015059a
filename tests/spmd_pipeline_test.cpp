/// \file spmd_pipeline_test.cpp
/// \brief Tests for the SPMD end-to-end pipeline: the graph sharding, the
/// parallel entry point's validity and quality, its p-invariance (fixed
/// seed => identical partition for every PE count) and the surfaced
/// communication statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/dist_graph.hpp"
#include "parallel/pe_runtime.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ dist graph ----

TEST(DistGraph, ShardsPartitionTheNodes) {
  Rng rng(7);
  const StaticGraph g = random_geometric_graph(2000, rng);
  const DistGraph dist(g, 8);
  ASSERT_EQ(dist.num_shards(), 8u);

  std::vector<int> seen(g.num_nodes(), 0);
  for (BlockID s = 0; s < dist.num_shards(); ++s) {
    for (const NodeID u : dist.shard(s).nodes) {
      EXPECT_EQ(dist.shard_of(u), s);
      ++seen[u];
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(DistGraph, CrossArcsAreExactlyTheShardBoundary) {
  const StaticGraph g = grid_graph(30, 30);
  const DistGraph dist(g, 4);

  std::size_t cross = 0;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    for (EdgeID e = g.first_arc(u); e < g.last_arc(u); ++e) {
      if (dist.shard_of(u) != dist.shard_of(g.arc_target(e))) ++cross;
    }
  }
  std::size_t listed = 0;
  for (BlockID s = 0; s < dist.num_shards(); ++s) {
    for (const CrossShardArc& arc : dist.shard(s).cross_arcs) {
      EXPECT_EQ(dist.shard_of(arc.u), s);
      EXPECT_NE(dist.shard_of(arc.v), s);
    }
    listed += dist.shard(s).cross_arcs.size();
  }
  EXPECT_EQ(listed, cross);
}

TEST(DistGraph, RoundRobinOwnershipCoversAllShards) {
  const StaticGraph g = grid_graph(20, 20);
  const DistGraph dist(g, 6);
  const int p = 4;
  std::vector<int> owner_count(p, 0);
  for (BlockID s = 0; s < dist.num_shards(); ++s) {
    const int owner = DistGraph::owner_of_shard(s, p);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, p);
    ++owner_count[owner];
  }
  int total = 0;
  for (int rank = 0; rank < p; ++rank) {
    const std::vector<BlockID> shards = dist.shards_of_rank(rank, p);
    EXPECT_EQ(static_cast<int>(shards.size()), owner_count[rank]);
    for (const BlockID s : shards) {
      EXPECT_EQ(DistGraph::owner_of_shard(s, p), rank);
    }
    total += static_cast<int>(shards.size());
  }
  EXPECT_EQ(total, static_cast<int>(dist.num_shards()));
}

// -------------------------------------------------------- SPMD pipeline ----

TEST(SpmdPipeline, ValidBalancedPartition) {
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;
  PERuntime runtime(2, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);

  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.partition.k(), 8u);
  EXPECT_TRUE(result.balanced) << "balance=" << result.balance;
  EXPECT_EQ(edge_cut(g, result.partition), result.cut);
  for (BlockID b = 0; b < 8; ++b) {
    EXPECT_GT(result.partition.block_weight(b), 0) << "empty block " << b;
  }
}

/// The headline determinism property: with a fixed seed the partition is a
/// function of the input alone — the runtime size p only changes wall time
/// and communication counters. Swept over the generator families.
class SpmdDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(SpmdDeterminism, SameCutAndPartitionForEveryPeCount) {
  const StaticGraph g = make_instance(GetParam(), 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PartitionResult reference;
  for (const int p : {1, 2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << GetParam() << " p=" << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << GetParam() << " p=" << p << " node " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, SpmdDeterminism,
                         ::testing::Values("rgg14", "delaunay14", "road_s",
                                           "annulus_m"));

TEST(SpmdPipeline, BitIdenticalForP1Through9) {
  // The distributed-hierarchy acceptance criterion: bit-identity and
  // p-invariance over the full runtime-size range, including ragged p
  // (3, 5, 6, 7 do not divide the shard count) and p > k (9 PEs for
  // k = 8 leaves rank 8 without shards or blocks — it must idle in
  // lockstep).
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;

  PartitionResult reference;
  for (int p = 1; p <= 9; ++p) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_EQ(validate_partition(g, result.partition), "");
    if (p == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.cut, reference.cut) << "p=" << p;
    EXPECT_EQ(result.hierarchy_levels, reference.hierarchy_levels) << p;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(result.partition.block(u), reference.partition.block(u))
          << "p=" << p << " node " << u;
    }
  }
}

TEST(SpmdPipeline, RepeatedRunsAreIdentical) {
  const StaticGraph g = make_instance("delaunay14", 3);
  Config config = Config::preset(Preset::kMinimal, 4);
  config.seed = 9;
  PERuntime first(2, config.seed);
  PERuntime second(2, config.seed);
  const PartitionResult a =
      Partitioner(Context::spmd(config, first)).partition(g);
  const PartitionResult b =
      Partitioner(Context::spmd(config, second)).partition(g);
  EXPECT_EQ(a.cut, b.cut);
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(a.partition.block(u), b.partition.block(u));
  }
}

/// Acceptance criterion of the SPMD refactor: on the paper's geometric
/// instance families the parallel path must stay within 5% of the
/// sequential cut (both paths are deterministic, so this is a fixed
/// comparison, not a statistical one).
class SpmdParity : public ::testing::TestWithParam<std::string> {};

TEST_P(SpmdParity, CutWithinFivePercentOfSequential) {
  const StaticGraph g = make_instance(GetParam(), 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;
  const PartitionResult sequential =
      Partitioner(Context::sequential(config)).partition(g);
  ASSERT_TRUE(sequential.balanced);

  for (const int p : {2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult parallel =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    EXPECT_TRUE(parallel.balanced) << GetParam() << " p=" << p;
    EXPECT_LE(static_cast<double>(parallel.cut),
              1.05 * static_cast<double>(sequential.cut))
        << GetParam() << " p=" << p << ": parallel cut " << parallel.cut
        << " vs sequential " << sequential.cut;
  }
}

INSTANTIATE_TEST_SUITE_P(GeometricFamilies, SpmdParity,
                         ::testing::Values("rgg14", "delaunay14"));

TEST(SpmdPipeline, SurfacesCommunicationStats) {
  const StaticGraph g = make_instance("rgg14", 2);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 1;

  // Sequential runs leave the SPMD fields empty.
  const PartitionResult sequential =
      Partitioner(Context::sequential(config)).partition(g);
  EXPECT_EQ(sequential.num_pes, 0);
  EXPECT_TRUE(sequential.comm_per_pe.empty());

  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  EXPECT_EQ(result.num_pes, 4);
  ASSERT_EQ(result.comm_per_pe.size(), 4u);
  EXPECT_GT(result.comm.messages_sent, 0u);
  EXPECT_GT(result.comm.words_sent, 0u);
  EXPECT_GT(result.comm.barriers, 0u);

  std::uint64_t words = 0;
  for (const CommStats& s : result.comm_per_pe) {
    words += s.words_sent;
    // Collectives synchronize every PE, so each rank hits barriers.
    EXPECT_GT(s.barriers, 0u);
  }
  EXPECT_EQ(words, result.comm.words_sent);
}

TEST(SpmdPipeline, IdleCountersAreSurfacedPerRank) {
  // Each rank counts the time it spends blocked (collectives plus
  // empty-mailbox receives); the counters ride the per-PE CommStats into
  // the result.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 42;
  PERuntime runtime(4, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  ASSERT_EQ(result.comm_per_pe.size(), 4u);
  std::uint64_t total_idle = 0;
  for (const CommStats& s : result.comm_per_pe) {
    total_idle += s.collective_idle_ns + s.recv_idle_ns;
  }
  // Four ranks synchronizing a multilevel pipeline cannot all have
  // waited zero nanoseconds.
  EXPECT_GT(total_idle, 0u);
  EXPECT_EQ(result.comm.collective_idle_ns + result.comm.recv_idle_ns,
            total_idle);
}

TEST(SpmdPipeline, ResidentGraphMemoryIsShardedNotReplicated) {
  // The data-sharding acceptance criterion: each rank's peak resident
  // graph data (owned CSR + one-hop ghost halo, across the matcher's
  // ShardGraph and the refiner's block-row store) must stay strictly
  // below n for p >= 2 — the replica is no longer what the SPMD inner
  // loops read.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  // p = 1: the single rank owns all shards and all blocks.
  {
    PERuntime runtime(1, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.shard_memory_per_pe.size(), 1u);
    EXPECT_EQ(result.shard_memory_per_pe[0].owned_nodes, g.num_nodes());
    EXPECT_EQ(result.shard_memory_per_pe[0].ghost_nodes, 0u);
  }

  for (const int p : {2, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);
    ASSERT_EQ(result.shard_memory_per_pe.size(), static_cast<std::size_t>(p));
    std::uint64_t total_owned = 0;
    for (int rank = 0; rank < p; ++rank) {
      const ShardFootprint& fp = result.shard_memory_per_pe[rank];
      EXPECT_GT(fp.owned_nodes, 0u) << "p=" << p << " rank " << rank;
      // Strictly below the replicated O(n)…
      EXPECT_LT(fp.resident_nodes(), g.num_nodes())
          << "p=" << p << " rank " << rank;
      // …and of the owned + one-hop-halo shape: roughly n/p owned (factor
      // 2 covers shard/block imbalance), with the halo a minority share.
      EXPECT_LE(fp.owned_nodes, 2u * g.num_nodes() / p)
          << "p=" << p << " rank " << rank;
      EXPECT_LT(fp.ghost_nodes, fp.owned_nodes)
          << "p=" << p << " rank " << rank;
      EXPECT_GT(fp.arcs, 0u);
      total_owned += fp.owned_nodes;
    }
    // Owned peaks are per-rank maxima over the levels of node partitions,
    // so they can exceed n only through the matcher/refiner mix.
    EXPECT_LE(total_owned, 2u * g.num_nodes()) << "p=" << p;
  }
}

TEST(SpmdPipeline, HierarchyStoreIsShardedAndHaloTrafficIsPerLevel) {
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  for (const int p : {1, 4}) {
    PERuntime runtime(p, config.seed);
    const PartitionResult result =
        Partitioner(Context::spmd(config, runtime)).partition(g);

    // Level shape surfaced with the result.
    ASSERT_EQ(result.hierarchy_level_nodes.size(), result.hierarchy_levels);
    ASSERT_GE(result.hierarchy_levels, 3u);
    EXPECT_EQ(result.hierarchy_level_nodes.front(), g.num_nodes());
    EXPECT_EQ(result.hierarchy_level_nodes.back(), result.coarsest_nodes);
    std::uint64_t replicated_baseline = 0;  // Σ n_level: the old design
    for (const NodeID n_level : result.hierarchy_level_nodes) {
      replicated_baseline += n_level;
    }

    // The resident hierarchy store: Σ_levels (n_level/p + halo) per rank,
    // strictly below the replicated Σ_levels n_level for p >= 2.
    ASSERT_EQ(result.hierarchy_memory_per_pe.size(),
              static_cast<std::size_t>(p));
    std::uint64_t total_owned = 0;
    for (const ShardFootprint& fp : result.hierarchy_memory_per_pe) {
      EXPECT_GT(fp.owned_nodes, 0u);
      if (p >= 2) {
        EXPECT_LT(fp.resident_nodes(), replicated_baseline) << "p=" << p;
        EXPECT_LE(fp.owned_nodes, 2 * replicated_baseline / p) << "p=" << p;
      }
      total_owned += fp.owned_nodes;
    }
    // Owned sets partition every level: the ranks' owned sums add up to
    // the replicated baseline exactly.
    EXPECT_EQ(total_owned, replicated_baseline) << "p=" << p;

    // Per-level halo-exchange breakdown: present for p >= 2, one entry
    // per contraction step, a subset of the totals.
    if (p == 1) {
      for (const LevelHaloStats& h : result.comm.halo_per_level) {
        EXPECT_EQ(h.messages, 0u);  // a single PE has no halo peers
      }
      continue;
    }
    ASSERT_FALSE(result.comm.halo_per_level.empty());
    EXPECT_LE(result.comm.halo_per_level.size(), result.hierarchy_levels);
    std::uint64_t halo_messages = 0;
    std::uint64_t halo_words = 0;
    for (const LevelHaloStats& h : result.comm.halo_per_level) {
      halo_messages += h.messages;
      halo_words += h.words;
    }
    EXPECT_GT(halo_messages, 0u);
    EXPECT_GT(halo_words, 0u);
    EXPECT_LE(halo_messages, result.comm.messages_sent);
    EXPECT_LE(halo_words, result.comm.words_sent);
  }
}

TEST(SpmdPipeline, SingleBlockAndTinyGraphs) {
  // k = 1: no quotient edges, no refinement — must still terminate.
  const StaticGraph g = grid_graph(8, 8);
  Config config = Config::preset(Preset::kMinimal, 1);
  config.seed = 1;
  PERuntime runtime(2, config.seed);
  const PartitionResult result =
      Partitioner(Context::spmd(config, runtime)).partition(g);
  EXPECT_EQ(validate_partition(g, result.partition), "");
  EXPECT_EQ(result.cut, 0);

  // More PEs than shards/blocks: idle PEs must stay in lockstep.
  const StaticGraph tiny = grid_graph(6, 4);
  Config tiny_config = Config::preset(Preset::kFast, 2);
  tiny_config.seed = 3;
  PERuntime big_runtime(4, tiny_config.seed);
  const PartitionResult tiny_result =
      Partitioner(Context::spmd(tiny_config, big_runtime)).partition(tiny);
  EXPECT_EQ(validate_partition(tiny, tiny_result.partition), "");
  EXPECT_TRUE(tiny_result.balanced);
}

}  // namespace
}  // namespace kappa
