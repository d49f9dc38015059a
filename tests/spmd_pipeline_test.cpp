/// \file spmd_pipeline_test.cpp
/// \brief Tests for the SPMD end-to-end pipeline: the shard ownership, the
/// pair executor rule, the parallel entry point's validity and quality,
/// its p-invariance (fixed seed => identical partition for every PE
/// count) and the surfaced communication statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/validation.hpp"
#include "parallel/dist_hierarchy.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/spmd_phases.hpp"
#include "refinement/edge_coloring.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------ shard ownership ----

/// Builds the SPMD hierarchy of \p g over \p num_shards virtual shards
/// on \p p ranks and calls \p check(rank, hierarchy) on every rank.
template <typename Check>
void on_every_rank(const StaticGraph& g, BlockID num_shards, int p,
                   Check&& check) {
  CoarseningOptions options;
  options.matching_pes = num_shards;
  options.contraction_limit = 64;
  PERuntime runtime(p, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy(g, options, Rng(3), pe);
    check(pe.rank(), hierarchy);
  });
}

TEST(DistHierarchy, ShardListsPartitionEveryLevel) {
  Rng rng(7);
  const StaticGraph g = random_geometric_graph(2000, rng);
  for (const int p : {1, 2, 3, 4, 7}) {
    // By rank and level: the owned global ids and the level's size.
    std::vector<std::vector<std::vector<NodeID>>> owned(p);
    std::vector<std::vector<NodeID>> level_n(p);
    on_every_rank(g, 8, p, [&](int rank, const DistHierarchy& hierarchy) {
      for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
        const DistLevel& level = hierarchy.level(l);
        const ShardGraph& sg = level.shard;
        const std::string where = "p=" + std::to_string(p) + " rank " +
                                  std::to_string(rank) + " level " +
                                  std::to_string(l);
        ASSERT_EQ(level.shard_locals.size(), level.my_shard_ids.size());
        std::vector<int> listed(sg.num_owned(), 0);
        for (std::size_t i = 0; i < level.shard_locals.size(); ++i) {
          const std::vector<NodeID>& locals = level.shard_locals[i];
          EXPECT_EQ(std::adjacent_find(locals.begin(), locals.end(),
                                       std::greater_equal<>()),
                    locals.end())
              << where << ": shard list not ascending";
          for (const NodeID lu : locals) {
            ASSERT_LT(lu, sg.num_owned()) << where;
            ++listed[lu];
            EXPECT_EQ(level.shard_of(sg.global_of(lu)), level.my_shard_ids[i])
                << where;
          }
        }
        EXPECT_TRUE(std::all_of(listed.begin(), listed.end(),
                                [](int c) { return c == 1; }))
            << where << ": an owned node is not in exactly one shard list";
        std::vector<NodeID> globals;
        for (NodeID lu = 0; lu < sg.num_owned(); ++lu) {
          globals.push_back(sg.global_of(lu));
        }
        owned[rank].push_back(std::move(globals));
        level_n[rank].push_back(level.global_n);
      }
    });
    // The owned sets of all ranks partition every level.
    for (int rank = 1; rank < p; ++rank) ASSERT_EQ(level_n[rank], level_n[0]);
    for (std::size_t l = 0; l < level_n[0].size(); ++l) {
      std::vector<int> seen(level_n[0][l], 0);
      for (int rank = 0; rank < p; ++rank) {
        for (const NodeID u : owned[rank][l]) ++seen[u];
      }
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](int c) { return c == 1; }))
          << "p=" << p << " level " << l;
    }
  }
}

TEST(DistHierarchy, ShardsAreOwnedRoundRobinAtEveryLevel) {
  const StaticGraph g = grid_graph(20, 20);
  const BlockID num_shards = 6;
  for (const int p : {1, 2, 3, 4, 7}) {
    std::vector<std::vector<BlockID>> finest_shards(p);
    on_every_rank(g, num_shards, p, [&](int rank,
                                        const DistHierarchy& hierarchy) {
      std::vector<BlockID> expected;
      for (BlockID s = 0; s < num_shards; ++s) {
        if (static_cast<int>(s) % p == rank) expected.push_back(s);
      }
      for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
        const DistLevel& level = hierarchy.level(l);
        EXPECT_EQ(level.my_shard_ids, expected)
            << "p=" << p << " rank " << rank << " level " << l;
        for (NodeID lu = 0; lu < level.shard.num_owned(); ++lu) {
          EXPECT_EQ(level.owner_of_node(level.shard.global_of(lu), p), rank);
        }
      }
      finest_shards[rank] = hierarchy.level(0).my_shard_ids;
    });
    // Every shard has exactly one owner.
    std::vector<int> owners(num_shards, 0);
    for (int rank = 0; rank < p; ++rank) {
      for (const BlockID s : finest_shards[rank]) ++owners[s];
    }
    EXPECT_TRUE(std::all_of(owners.begin(), owners.end(),
                            [](int c) { return c == 1; }))
        << "p=" << p;
  }
}

// ------------------------------------------------------- pair executors ----

/// A near-complete quotient on \p k blocks: each pair but about one in
/// ten, with boundary lists of skewed length (1..20 or 1..200 nodes).
QuotientGraph near_complete_quotient(BlockID k, Rng rng) {
  std::vector<QuotientEdge> edges;
  NodeID next = 0;
  for (BlockID a = 0; a < k; ++a) {
    for (BlockID b = a + 1; b < k; ++b) {
      if (rng.bounded(10) == 0) continue;
      const std::size_t size = 1 + rng.bounded(rng.coin() ? 200 : 20);
      QuotientEdge edge{a, b, static_cast<EdgeWeight>(size), {}};
      for (std::size_t i = 0; i < size; ++i) edge.boundary.push_back(next++);
      edges.push_back(std::move(edge));
    }
  }
  return QuotientGraph(k, std::move(edges));
}

TEST(PairExecutors, LargestPairFirstToTheLessLoadedOwner) {
  // p = 2: blocks 0 and 2 live on rank 0, blocks 1 and 3 on rank 1.
  auto edge = [](BlockID a, BlockID b, NodeID size) {
    return QuotientEdge{a, b, 1, std::vector<NodeID>(size)};
  };
  const QuotientGraph quotient(4, {edge(0, 1, 3), edge(2, 3, 8),
                                   edge(0, 2, 1), edge(1, 3, 5)});
  // {2, 3} goes first, to block a's owner on the tie; {0, 1} then goes
  // to the idle owner of block b.
  EXPECT_EQ(pair_executors(quotient, std::vector<std::size_t>{0, 1}, 2),
            (std::vector<int>{1, 0}));
  // Equal sizes go in class order: {0, 1} first, then {2, 3} to rank 1.
  const QuotientGraph even(4, {edge(0, 1, 4), edge(2, 3, 4)});
  EXPECT_EQ(pair_executors(even, std::vector<std::size_t>{0, 1}, 2),
            (std::vector<int>{0, 1}));
  // A pair whose blocks share an owner stays there, however loaded.
  EXPECT_EQ(pair_executors(quotient, std::vector<std::size_t>{1, 2, 3}, 2),
            (std::vector<int>{0, 0, 1}));
}

TEST(PairExecutors, EveryPairRunsAtAnOwnerOfOneOfItsBlocks) {
  const QuotientGraph quotient = near_complete_quotient(16, Rng(5));
  const QuotientGraph same = near_complete_quotient(16, Rng(5));
  const EdgeColoring coloring = color_quotient_edges(quotient, Rng(9));
  for (const int p : {1, 2, 3, 4, 5, 7, 16, 20}) {
    for (int color = 0; color < coloring.num_colors; ++color) {
      const std::vector<std::size_t> pairs = coloring.color_class(color);
      const std::vector<int> executors = pair_executors(quotient, pairs, p);
      ASSERT_EQ(executors.size(), pairs.size());
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const QuotientEdge& edge = quotient.edges()[pairs[i]];
        const int owner_a = round_robin_owner(edge.a, p);
        const int owner_b = round_robin_owner(edge.b, p);
        EXPECT_TRUE(executors[i] == owner_a || executors[i] == owner_b)
            << "p=" << p << " pair {" << edge.a << ", " << edge.b << "}";
        if (owner_a == owner_b) {
          EXPECT_EQ(executors[i], owner_a);
        }
      }
      // A pure function of the quotient, the class and p: every rank
      // derives it alike from its own copy of the merged quotient.
      EXPECT_EQ(pair_executors(same, pairs, p), executors);
    }
  }
}

TEST(PairExecutors, BusiestRankCarriesNoMoreBoundaryThanBlockAOwners) {
  constexpr int p = 4;
  const QuotientGraph quotient = near_complete_quotient(16, Rng(5));
  const EdgeColoring coloring = color_quotient_edges(quotient, Rng(9));
  std::size_t busiest_total = 0;
  std::size_t owner_a_total = 0;
  for (int color = 0; color < coloring.num_colors; ++color) {
    const std::vector<std::size_t> pairs = coloring.color_class(color);
    const std::vector<int> executors = pair_executors(quotient, pairs, p);
    std::vector<std::size_t> load(p, 0);
    std::vector<std::size_t> owner_a_load(p, 0);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const QuotientEdge& edge = quotient.edges()[pairs[i]];
      load[executors[i]] += edge.boundary.size();
      owner_a_load[round_robin_owner(edge.a, p)] += edge.boundary.size();
    }
    const std::size_t busiest = *std::max_element(load.begin(), load.end());
    const std::size_t owner_a_busiest =
        *std::max_element(owner_a_load.begin(), owner_a_load.end());
    EXPECT_LE(busiest, owner_a_busiest) << "class " << color;
    busiest_total += busiest;
    owner_a_total += owner_a_busiest;
  }
  EXPECT_LT(busiest_total, owner_a_total);
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
