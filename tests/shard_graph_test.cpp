/// \file shard_graph_test.cpp
/// \brief Tests for the per-PE data sharding: the ghost-layer ShardGraph
/// of SPMD matching, the distributed hierarchy's levels and its §3.3 gap
/// graph, the §5.2 BlockRowShard of SPMD refinement, the distributed
/// quotient construction, and the wire-format packing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "coarsening/hierarchy.hpp"
#include "coarsening/prepartition.hpp"
#include "core/partitioner.hpp"
#include "generators/generators.hpp"
#include "graph/graph_builder.hpp"
#include "graph/quotient_graph.hpp"
#include "graph/subgraph.hpp"
#include "parallel/dist_partition.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"
#include "parallel/spmd_phases.hpp"
#include "parallel/transport.hpp"
#include "parallel/wire_format.hpp"
#include "util/random.hpp"

namespace kappa {
namespace {

// ------------------------------------------------------------ wire format ----

TEST(WireFormat, PacksNearInvalidIdsWithoutTruncation) {
  // Regression for the silent-truncation hazard the static_asserts pin:
  // ids near kInvalidNode must round-trip through the one-word packing.
  const NodeID hi = kInvalidNode - 1;
  const NodeID lo = 7;
  const auto [first, second] = unpack_pair(pack_pair(hi, lo));
  EXPECT_EQ(first, hi);
  EXPECT_EQ(second, lo);
  const auto [f2, s2] = unpack_pair(pack_pair(kInvalidNode, hi));
  EXPECT_EQ(f2, kInvalidNode);
  EXPECT_EQ(s2, hi);
}

TEST(WireFormat, EdgeKeyIsCanonicalAndInjective) {
  const NodeID a = kInvalidNode - 2;
  const NodeID b = 3;
  EXPECT_EQ(edge_key(a, b), edge_key(b, a));
  EXPECT_NE(edge_key(a, b), edge_key(a, b + 1));
  EXPECT_NE(edge_key(a, b), edge_key(a - 1, b));
  // The canonical (lo, hi) layout survives unpacking.
  const auto [lo, hi] = unpack_pair(edge_key(a, b));
  EXPECT_EQ(lo, b);
  EXPECT_EQ(hi, a);
}

// ------------------------------------------------------------- ShardGraph ----

TEST(ShardGraph, ResidentLayerIsOwnedPlusOneHopHalo) {
  Rng rng(7);
  const StaticGraph g = random_geometric_graph(2000, rng);
  const BlockID num_shards = 8;
  const int p = 4;
  PERuntime runtime(p, 1);
  const std::vector<BlockID> node_to_shard = prepartition(g, num_shards);
  std::vector<std::uint64_t> owned_count(p, 0);
  runtime.run([&](PEContext& pe) {
    const ShardGraph shard(finest_shard_parts(g, node_to_shard, pe));
    owned_count[pe.rank()] = shard.num_owned();

    // Owned set: exactly the union of this rank's shards.
    std::set<NodeID> owned;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      if (round_robin_owner(node_to_shard[u], p) == pe.rank()) owned.insert(u);
    }
    ASSERT_EQ(owned.size(), shard.num_owned());

    // Ghost layer: exactly the one-hop out-neighborhood of the owned set.
    std::set<NodeID> expected_ghosts;
    for (const NodeID u : owned) {
      for (const NodeID v : g.neighbors(u)) {
        if (owned.count(v) == 0) expected_ghosts.insert(v);
      }
    }
    ASSERT_EQ(expected_ghosts.size(), shard.num_ghost());
    EXPECT_LT(shard.footprint().resident_nodes(), g.num_nodes());

    // Owned rows reproduce the replica rows verbatim, arc order included;
    // ghosts have no row, and their weights and weighted degrees came
    // over the wire and must match the replica.
    for (NodeID local = 0; local < shard.num_local(); ++local) {
      const NodeID global = shard.global_of(local);
      EXPECT_EQ(shard.csr().node_weight(local), g.node_weight(global));
      EXPECT_EQ(shard.weighted_degrees()[local], g.weighted_degree(global));
      EXPECT_EQ(shard.local_of(global), local);
      if (!shard.is_owned(local)) {
        EXPECT_EQ(shard.csr().degree(local), 0u);
        continue;
      }
      std::vector<std::pair<NodeID, EdgeWeight>> resident_arcs;
      for (EdgeID e = shard.csr().first_arc(local);
           e < shard.csr().last_arc(local); ++e) {
        resident_arcs.emplace_back(shard.global_of(shard.csr().arc_target(e)),
                                   shard.csr().arc_weight(e));
      }
      std::vector<std::pair<NodeID, EdgeWeight>> replica_arcs;
      for (EdgeID e = g.first_arc(global); e < g.last_arc(global); ++e) {
        replica_arcs.emplace_back(g.arc_target(e), g.arc_weight(e));
      }
      EXPECT_EQ(resident_arcs, replica_arcs) << "node " << global;
    }
  });
  // The owned sets partition the nodes.
  std::uint64_t total = 0;
  for (const std::uint64_t c : owned_count) total += c;
  EXPECT_EQ(total, g.num_nodes());
}

TEST(ShardGraph, SingleRankOwnsEverythingWithoutGhosts) {
  const StaticGraph g = grid_graph(20, 20);
  PERuntime runtime(1, 1);
  runtime.run([&](PEContext& pe) {
    const ShardGraph shard(finest_shard_parts(g, prepartition(g, 4), pe));
    EXPECT_EQ(shard.num_owned(), g.num_nodes());
    EXPECT_EQ(shard.num_ghost(), 0u);
    EXPECT_EQ(shard.csr().num_arcs(), g.num_arcs());
  });
}

TEST(ShardGraph, GhostRefreshIsCountedInCommStats) {
  Rng rng(3);
  const StaticGraph g = random_geometric_graph(1500, rng);
  PERuntime runtime(2, 1);
  const std::vector<RankCounters> per_rank = runtime.run([&](PEContext& pe) {
    const ShardGraph shard(finest_shard_parts(g, prepartition(g, 8), pe));
    EXPECT_GT(shard.num_ghost(), 0u);
  });
  for (const RankCounters& s : per_rank) {
    EXPECT_GT(s.comm.messages_sent, 0u);
    EXPECT_GT(s.comm.words_sent, 0u);
  }
}

// ------------------------------------------------ checked halo decoding ----

TEST(HaloDecoding, RejectsUnknownWrongKindAndTruncatedRecords) {
  // A two-rank layer of a 6-node path 0-1-2-3-4-5 cut in the middle:
  // rank 0 owns {0, 1, 2} and sees 3 as its only ghost.
  ShardGraphParts parts;
  parts.owned = {0, 1, 2};
  parts.owned_rows.ids = parts.owned;
  parts.owned_rows.xadj = {0, 1, 3, 5};
  parts.owned_rows.adj = {1, 0, 2, 1, 3};
  parts.owned_rows.ewgt = {1, 1, 1, 1, 1};
  parts.owned_rows.vwgt = {1, 1, 1};
  parts.ghosts = {3};
  parts.ghost_weights = {1};
  parts.ghost_weighted_degrees = {2};
  const ShardGraph shard(std::move(parts));

  EXPECT_EQ(shard.halo_local(1, HaloKind::kOwned), 1u);
  EXPECT_EQ(shard.halo_local(3, HaloKind::kGhost), 3u);
  // Unknown ids, resident ids of the wrong kind, ids beyond NodeID.
  EXPECT_THROW((void)shard.halo_local(4, HaloKind::kOwned), TransportError);
  EXPECT_THROW((void)shard.halo_local(4, HaloKind::kGhost), TransportError);
  EXPECT_THROW((void)shard.halo_local(3, HaloKind::kOwned), TransportError);
  EXPECT_THROW((void)shard.halo_local(2, HaloKind::kGhost), TransportError);
  EXPECT_THROW((void)shard.halo_local(kInvalidNode, HaloKind::kOwned),
               TransportError);
  EXPECT_THROW((void)shard.halo_local(std::uint64_t{1} << 40,
                                      HaloKind::kGhost),
               TransportError);

  // Unsealed sorted lists: listed ids only.
  const std::vector<NodeID> ghosts = {3, 9, 12};
  EXPECT_EQ(halo_position(ghosts, 9), 1u);
  EXPECT_THROW((void)halo_position(ghosts, 10), TransportError);
  EXPECT_THROW((void)halo_position(ghosts, 13), TransportError);
  EXPECT_THROW((void)halo_position({}, 0), TransportError);
  EXPECT_THROW((void)halo_position(ghosts, (std::uint64_t{1} << 32) + 9),
               TransportError);

  // Whole records only.
  const std::vector<std::uint64_t> payload = {3, 7, 1, 4, 2, 5};
  EXPECT_EQ(halo_records(payload, 2), 3u);
  EXPECT_EQ(halo_records(payload, 3), 2u);
  EXPECT_THROW((void)halo_records(payload, 4), TransportError);
  EXPECT_THROW(
      (void)halo_records(std::span(payload).first(5), 2), TransportError);
  EXPECT_EQ(halo_records({}, 3), 0u);
}

// ------------------------------------------- distributed quotient graph ----

TEST(BlockRowShard, GatherQuotientReproducesSequentialConstruction) {
  const StaticGraph g = make_instance("rgg14", 4);
  Config config = Config::preset(Preset::kMinimal, 5);
  config.seed = 2;
  const PartitionResult result =
      Partitioner(Context::sequential(config)).partition(g);
  const Partition& partition = result.partition;
  const QuotientGraph sequential(g, partition);
  ASSERT_GT(sequential.edges().size(), 3u);

  for (const int p : {1, 2, 3}) {
    PERuntime runtime(p, 1);
    runtime.run([&](PEContext& pe) {
      BlockRowShard store(g, partition.assignment(), partition.k(),
                          pe.rank(), p);
      // The sharded partition state in its fully-cached oracle form: the
      // quotient construction reads target blocks from it exactly as the
      // pipeline reads the ghost-block cache, through the store's slots.
      const DistPartition replica = DistPartition::from_replica(partition);
      store.bind_slots(replica);
      const QuotientGraph merged =
          gather_quotient(store, replica, partition.k(), pe);
      // Bit-for-bit: same edge order, same weights, same boundaries.
      ASSERT_EQ(merged.edges().size(), sequential.edges().size())
          << "p=" << p;
      for (std::size_t i = 0; i < merged.edges().size(); ++i) {
        const QuotientEdge& m = merged.edges()[i];
        const QuotientEdge& s = sequential.edges()[i];
        EXPECT_EQ(m.a, s.a) << "p=" << p << " edge " << i;
        EXPECT_EQ(m.b, s.b) << "p=" << p << " edge " << i;
        EXPECT_EQ(m.cut_weight, s.cut_weight) << "p=" << p << " edge " << i;
        ASSERT_EQ(m.boundary, s.boundary) << "p=" << p << " edge " << i;
      }
      for (BlockID b = 0; b < partition.k(); ++b) {
        EXPECT_EQ(merged.incident(b), sequential.incident(b));
      }
    });
  }
}

// ------------------------------------------------------- BlockRowShard ----

TEST(BlockRowShard, RowsMigrateBetweenStoresOnBlockMoves) {
  const StaticGraph g = grid_graph(8, 8);
  const BlockID k = 4;
  const int p = 2;
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = u % k;

  BlockRowShard store0(g, assignment, k, 0, p);  // owns blocks 0, 2
  BlockRowShard store1(g, assignment, k, 1, p);  // owns blocks 1, 3
  const std::uint64_t nodes0 = store0.footprint().owned_nodes;
  const std::uint64_t nodes1 = store1.footprint().owned_nodes;
  EXPECT_EQ(nodes0 + nodes1, g.num_nodes());

  // Node 4 (block 0, rank 0) moves to block 1 (rank 1): the departing
  // row is returned by the old owner and taken in by the new one.
  const NodeID u = 4;
  ASSERT_EQ(assignment[u], 0u);
  const GraphRow shipped = store0.apply_move(u, 0, 1, nullptr);
  ASSERT_EQ(shipped.targets.size(), g.degree(u));
  store1.apply_move(u, 0, 1, &shipped);

  EXPECT_EQ(store0.footprint().owned_nodes, nodes0 - 1);
  EXPECT_EQ(store1.footprint().owned_nodes, nodes1 + 1);
  EXPECT_TRUE(std::binary_search(store1.members(1).begin(),
                                 store1.members(1).end(), u));
  EXPECT_FALSE(std::binary_search(store0.members(0).begin(),
                                  store0.members(0).end(), u));

  // The migrated row answers exactly like the replica at its new home.
  const GraphRow row = store1.row(u);
  EXPECT_EQ(row.weight, g.node_weight(u));
  std::vector<NodeID> targets(g.neighbors(u).begin(), g.neighbors(u).end());
  EXPECT_EQ(row.targets, targets);

  // Moving back home un-tombstones the core row, no shipping needed.
  const GraphRow shipped_back = store1.apply_move(u, 1, 0, nullptr);
  ASSERT_EQ(shipped_back.targets.size(), g.degree(u));
  store0.apply_move(u, 1, 0, &shipped_back);
  EXPECT_EQ(store0.footprint().owned_nodes, nodes0);
  EXPECT_EQ(store0.row(u).targets, targets);
}

TEST(BlockRowShard, RowSetConstructorMatchesReplicaExtraction) {
  // The replica-free construction path (rows pre-distributed over
  // channels) must assemble the identical store the replica extraction
  // produces: same members, same row content.
  const StaticGraph g = make_instance("grid_s", 3);
  const BlockID k = 6;
  const int p = 2;
  const int rank = 1;
  std::vector<BlockID> assignment(g.num_nodes());
  for (NodeID u = 0; u < g.num_nodes(); ++u) assignment[u] = u % k;

  const BlockRowShard from_replica(g, assignment, k, rank, p);

  std::vector<NodeID> mine;
  std::vector<BlockID> row_blocks;
  for (NodeID u = 0; u < g.num_nodes(); ++u) {
    if (round_robin_owner(assignment[u], p) == rank) {
      mine.push_back(u);
      row_blocks.push_back(assignment[u]);
    }
  }
  const BlockRowShard from_rows(extract_rows(g, mine), row_blocks, k, rank, p);

  for (BlockID b = 0; b < k; ++b) {
    ASSERT_EQ(from_rows.members(b), from_replica.members(b)) << "block " << b;
  }
  for (const NodeID u : mine) {
    const GraphRow a = from_replica.row(u);
    const GraphRow b = from_rows.row(u);
    EXPECT_EQ(a.weight, b.weight);
    ASSERT_EQ(a.targets, b.targets) << "node " << u;
    ASSERT_EQ(a.weights, b.weights) << "node " << u;
  }
  EXPECT_EQ(from_rows.footprint().owned_nodes,
            from_replica.footprint().owned_nodes);
  EXPECT_EQ(from_rows.footprint().arcs, from_replica.footprint().arcs);
}

// ------------------------------------------------------- DistHierarchy ----

TEST(DistHierarchy, LevelsAreShardedNotReplicated) {
  // The tentpole acceptance criterion: every coarsening level exists only
  // as per-PE shards. Per level, the owned sets partition the level's
  // nodes and each rank's resident share (owned + one-hop halo) stays
  // strictly below n_level for p >= 2.
  const StaticGraph g = make_instance("rgg14", 11);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 5;

  for (const int p : {2, 4}) {
    PERuntime runtime(p, config.seed);
    std::vector<std::vector<ShardFootprint>> per_rank(p);
    std::vector<std::vector<NodeID>> level_nodes(p);
    runtime.run([&](PEContext& pe) {
      const DistHierarchy hierarchy(g, coarsening_options(g, config),
                                    Rng(config.seed).fork(1), pe);
      for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
        per_rank[pe.rank()].push_back(hierarchy.level(l).footprint());
        level_nodes[pe.rank()].push_back(hierarchy.level_nodes(l));
      }
    });
    ASSERT_GE(level_nodes[0].size(), 3u) << "p=" << p;
    for (int rank = 1; rank < p; ++rank) {
      ASSERT_EQ(level_nodes[rank], level_nodes[0]) << "p=" << p;
    }
    for (std::size_t l = 0; l < level_nodes[0].size(); ++l) {
      const NodeID n_level = level_nodes[0][l];
      std::uint64_t total_owned = 0;
      for (int rank = 0; rank < p; ++rank) {
        const ShardFootprint& fp = per_rank[rank][l];
        total_owned += fp.owned_nodes;
        // The per-level resident-memory criterion: sharded, not
        // replicated. (Tiny coarse levels can be halo-dominated, so the
        // strict bound is asserted where sharding can pay off at all.)
        if (n_level >= 512) {
          EXPECT_LT(fp.resident_nodes(), n_level)
              << "p=" << p << " level " << l << " rank " << rank;
          EXPECT_LE(fp.owned_nodes, 2u * n_level / p)
              << "p=" << p << " level " << l << " rank " << rank;
        }
      }
      // The owned sets partition the level exactly.
      EXPECT_EQ(total_owned, n_level) << "p=" << p << " level " << l;
    }
  }
}

TEST(DistHierarchy, EveryLevelResolvesResidentIdsWithoutHashing) {
  // Ids are resolved once, when a level is sealed: owned ids by
  // arithmetic, ghosts by binary search. At every level and for every p,
  // local_of() must invert global_of() on both kinds and reject every id
  // that is not resident. Level 0's owned rows are the input graph's rows
  // verbatim.
  const StaticGraph g = make_instance("rgg14", 13);
  Config config = Config::preset(Preset::kFast, 8);
  config.seed = 4;

  for (const int p : {1, 2, 3, 4, 7}) {
    PERuntime runtime(p, config.seed);
    runtime.run([&](PEContext& pe) {
      const DistHierarchy hierarchy(g, coarsening_options(g, config),
                                    Rng(config.seed).fork(1), pe);
      ASSERT_GE(hierarchy.num_levels(), 3u);
      for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
        const DistLevel& level = hierarchy.level(l);
        const ShardGraph& shard = level.shard;
        const std::string where =
            "p=" + std::to_string(p) + " rank " + std::to_string(pe.rank()) +
            " level " + std::to_string(l);
        std::vector<char> resident(level.global_n, 0);
        for (NodeID local = 0; local < shard.num_local(); ++local) {
          const NodeID global = shard.global_of(local);
          ASSERT_LT(global, level.global_n) << where;
          resident[global] = 1;
          ASSERT_EQ(shard.local_of(global), local) << where;
          if (shard.is_owned(local)) {
            EXPECT_EQ(shard.owned_local(global), local) << where;
            EXPECT_EQ(shard.ghost_local(global), kInvalidNode) << where;
            EXPECT_EQ(level.owner_of_local(local, pe.rank()), pe.rank());
          } else {
            EXPECT_EQ(shard.owned_local(global), kInvalidNode) << where;
            EXPECT_EQ(level.owner_of_local(local, pe.rank()),
                      level.owner_of_node(global, p))
                << where;
          }
        }
        for (NodeID global = 0; global < level.global_n; ++global) {
          if (!resident[global]) {
            ASSERT_EQ(shard.local_of(global), kInvalidNode)
                << where << " id " << global;
          }
        }
        EXPECT_EQ(shard.local_of(level.global_n), kInvalidNode) << where;
        EXPECT_EQ(shard.local_of(kInvalidNode - 1), kInvalidNode) << where;
        if (l != 0) continue;
        for (NodeID local = 0; local < shard.num_owned(); ++local) {
          const NodeID global = shard.global_of(local);
          std::vector<NodeID> targets;
          std::vector<EdgeWeight> weights;
          for (EdgeID e = shard.csr().first_arc(local);
               e < shard.csr().last_arc(local); ++e) {
            targets.push_back(shard.global_of(shard.csr().arc_target(e)));
            weights.push_back(shard.csr().arc_weight(e));
          }
          const std::vector<NodeID> replica_targets(
              g.neighbors(global).begin(), g.neighbors(global).end());
          std::vector<EdgeWeight> replica_weights;
          for (EdgeID e = g.first_arc(global); e < g.last_arc(global); ++e) {
            replica_weights.push_back(g.arc_weight(e));
          }
          ASSERT_EQ(targets, replica_targets) << where << " node " << global;
          ASSERT_EQ(weights, replica_weights) << where << " node " << global;
        }
      }
    });
  }
}

TEST(DistHierarchy, GatheredCoarsestIsConsistentAcrossPeCounts) {
  // The one permitted gather: the coarsest graph must be identical on
  // every rank and for every p, symmetric, and weight-preserving (its
  // total node weight is the input's — contraction only merges).
  const StaticGraph g = make_instance("delaunay14", 7);
  Config config = Config::preset(Preset::kMinimal, 8);
  config.seed = 3;

  std::vector<EdgeID> arcs_seen;
  std::vector<NodeID> nodes_seen;
  for (const int p : {1, 3, 4}) {
    PERuntime runtime(p, config.seed);
    std::vector<NodeID> nodes(p, 0);
    std::vector<EdgeID> arcs(p, 0);
    runtime.run([&](PEContext& pe) {
      DistHierarchy hierarchy(g, coarsening_options(g, config),
                              Rng(config.seed).fork(1), pe);
      const StaticGraph& coarsest = hierarchy.coarsest();
      nodes[pe.rank()] = coarsest.num_nodes();
      arcs[pe.rank()] = coarsest.num_arcs();
      EXPECT_EQ(coarsest.total_node_weight(), g.total_node_weight());
      // Symmetry: every arc has its mirror with equal weight.
      for (NodeID u = 0; u < coarsest.num_nodes(); ++u) {
        for (EdgeID e = coarsest.first_arc(u); e < coarsest.last_arc(u);
             ++e) {
          const NodeID v = coarsest.arc_target(e);
          bool mirrored = false;
          for (EdgeID f = coarsest.first_arc(v); f < coarsest.last_arc(v);
               ++f) {
            if (coarsest.arc_target(f) == u &&
                coarsest.arc_weight(f) == coarsest.arc_weight(e)) {
              mirrored = true;
              break;
            }
          }
          ASSERT_TRUE(mirrored) << "arc " << u << "->" << v << " p=" << p;
        }
      }
    });
    for (int rank = 1; rank < p; ++rank) {
      EXPECT_EQ(nodes[rank], nodes[0]);
      EXPECT_EQ(arcs[rank], arcs[0]);
    }
    nodes_seen.push_back(nodes[0]);
    arcs_seen.push_back(arcs[0]);
  }
  for (std::size_t i = 1; i < nodes_seen.size(); ++i) {
    EXPECT_EQ(nodes_seen[i], nodes_seen[0]);
    EXPECT_EQ(arcs_seen[i], arcs_seen[0]);
  }
}

TEST(DistHierarchy, EachRankMaterializesItsOwnShardsOnly) {
  // Every rank holds the replicated ownership map but the nodes of its
  // own shards only: at every level, each of its shard lists names
  // exactly the level's nodes in that shard, and it owns nothing else.
  const StaticGraph g = grid_graph(30, 30);
  const BlockID num_shards = 6;
  CoarseningOptions options;
  options.matching_pes = num_shards;
  options.contraction_limit = 64;
  for (const int p : {1, 2, 3, 4, 7}) {
    std::vector<std::vector<BlockID>> finest_map(p);
    PERuntime runtime(p, 1);
    runtime.run([&](PEContext& pe) {
      const DistHierarchy hierarchy(g, options, Rng(3), pe);
      finest_map[pe.rank()] = hierarchy.level(0).node_to_shard;
      for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
        const DistLevel& level = hierarchy.level(l);
        std::map<BlockID, std::vector<NodeID>> members;
        for (NodeID u = 0; u < level.global_n; ++u) {
          members[level.shard_of(u)].push_back(u);
        }
        std::size_t listed = 0;
        for (std::size_t i = 0; i < level.shard_locals.size(); ++i) {
          std::vector<NodeID> globals;
          for (const NodeID lu : level.shard_locals[i]) {
            globals.push_back(level.shard.global_of(lu));
          }
          EXPECT_EQ(globals, members[level.my_shard_ids[i]])
              << "p=" << p << " rank " << pe.rank() << " level " << l
              << " shard " << level.my_shard_ids[i];
          listed += globals.size();
        }
        EXPECT_EQ(listed, level.shard.num_owned())
            << "p=" << p << " rank " << pe.rank() << " level " << l;
      }
    });
    for (int rank = 0; rank < p; ++rank) {
      EXPECT_EQ(finest_map[rank], prepartition(g, num_shards)) << "p=" << p;
    }
  }
}

// ------------------------------- build_hierarchy as the store's reference ----

/// One hierarchy level in global ids: node weights, rows (arc order
/// kept) and the contraction map to the next level (empty at the
/// coarsest level).
struct LevelImage {
  std::vector<NodeWeight> weights;
  std::vector<std::vector<std::pair<NodeID, EdgeWeight>>> rows;
  std::vector<NodeID> to_coarse;
};

std::vector<LevelImage> sequential_images(const StaticGraph& g,
                                          const CoarseningOptions& options,
                                          const Rng& rng) {
  Rng coarsen_rng = rng;
  const Hierarchy h = build_hierarchy(g, options, coarsen_rng);
  std::vector<LevelImage> images(h.num_levels());
  for (std::size_t l = 0; l < h.num_levels(); ++l) {
    const StaticGraph& level = h.graph(l);
    LevelImage& image = images[l];
    for (NodeID u = 0; u < level.num_nodes(); ++u) {
      image.weights.push_back(level.node_weight(u));
      auto& row = image.rows.emplace_back();
      for (EdgeID e = level.first_arc(u); e < level.last_arc(u); ++e) {
        row.emplace_back(level.arc_target(e), level.arc_weight(e));
      }
    }
    if (l + 1 < h.num_levels()) image.to_coarse = h.map(l);
  }
  return images;
}

/// The levels of a DistHierarchy built on \p p ranks, each rank's owned
/// nodes written into its own image and the images merged by owner.
std::vector<LevelImage> dist_images(const StaticGraph& g,
                                    const CoarseningOptions& options,
                                    const Rng& rng, int p) {
  std::vector<std::vector<LevelImage>> per_rank(p);
  std::vector<std::vector<std::vector<char>>> owned(p);
  PERuntime runtime(p, 1);
  runtime.run([&](PEContext& pe) {
    const DistHierarchy h(g, options, rng, pe);
    std::vector<LevelImage>& images = per_rank[pe.rank()];
    std::vector<std::vector<char>>& mine = owned[pe.rank()];
    images.resize(h.num_levels());
    mine.resize(h.num_levels());
    for (std::size_t l = 0; l < h.num_levels(); ++l) {
      const DistLevel& level = h.level(l);
      const ShardGraph& sg = level.shard;
      LevelImage& image = images[l];
      image.weights.assign(level.global_n, 0);
      image.rows.resize(level.global_n);
      if (l + 1 < h.num_levels()) {
        image.to_coarse.assign(level.global_n, kInvalidNode);
      }
      mine[l].assign(level.global_n, 0);
      for (NodeID lu = 0; lu < sg.num_owned(); ++lu) {
        const NodeID u = sg.global_of(lu);
        mine[l][u] = 1;
        image.weights[u] = sg.csr().node_weight(lu);
        for (EdgeID e = sg.csr().first_arc(lu); e < sg.csr().last_arc(lu);
             ++e) {
          image.rows[u].emplace_back(sg.global_of(sg.csr().arc_target(e)),
                                     sg.csr().arc_weight(e));
        }
        if (!image.to_coarse.empty()) {
          image.to_coarse[u] = level.owned_to_coarse[lu];
        }
      }
    }
  });
  std::vector<LevelImage> merged = per_rank[0];
  for (int q = 1; q < p; ++q) {
    if (per_rank[q].size() != merged.size()) {
      ADD_FAILURE() << "rank " << q << " built another number of levels";
      return merged;
    }
    for (std::size_t l = 0; l < merged.size(); ++l) {
      for (NodeID u = 0; u < merged[l].weights.size(); ++u) {
        if (!owned[q][l][u]) continue;
        EXPECT_FALSE(owned[0][l][u]) << "level " << l << " node " << u;
        merged[l].weights[u] = per_rank[q][l].weights[u];
        merged[l].rows[u] = per_rank[q][l].rows[u];
        if (!merged[l].to_coarse.empty()) {
          merged[l].to_coarse[u] = per_rank[q][l].to_coarse[u];
        }
      }
    }
  }
  return merged;
}

/// \p g with its coordinates dropped, as a METIS file would give it.
StaticGraph without_coordinates(const StaticGraph& g) {
  std::vector<NodeID> all(g.num_nodes());
  std::iota(all.begin(), all.end(), NodeID{0});
  RowSet rows = extract_rows(g, all);
  return StaticGraph(std::move(rows.xadj), std::move(rows.adj),
                     std::move(rows.ewgt), std::move(rows.vwgt));
}

TEST(DistHierarchy, BuildHierarchyBuildsTheSameLevels) {
  // build_hierarchy coarsens by DistHierarchy's rules — one finest-level
  // prepartition carried down, shared shard matching and gap rounds,
  // shard-major coarse ids with sorted rows — so both give the same
  // graphs and contraction maps level by level, at every p, with the
  // geometric and the BFS-order prepartition, cold and warm-started.
  Config config = Config::preset(Preset::kFast, 16);
  config.seed = 1;
  const Rng rng = Rng(config.seed).fork(1);
  for (const char* name : {"rgg14", "delaunay14", "rmat_12"}) {
    const StaticGraph instance = make_instance(name, 1);
    for (const bool coordinates : {true, false}) {
      if (coordinates && !instance.has_coordinates()) continue;
      const StaticGraph g =
          coordinates ? instance : without_coordinates(instance);
      Partition warm =
          Partitioner(Context::sequential(config)).partition(g).partition;
      for (NodeID u = 0; u < g.num_nodes(); u += 20) {
        warm.move(u, (warm.block(u) + 1) % config.k, g.node_weight(u));
      }
      for (const Partition* start : {static_cast<const Partition*>(nullptr),
                                     static_cast<const Partition*>(&warm)}) {
        const CoarseningOptions options = coarsening_options(g, config, start);
        const std::vector<LevelImage> expected =
            sequential_images(g, options, rng);
        ASSERT_GE(expected.size(), 3u) << name;
        for (const int p : {1, 3, 4}) {
          const std::string where =
              std::string(name) + (coordinates ? " geometric" : " bfs order") +
              (start != nullptr ? " warm" : " cold") + " p=" +
              std::to_string(p);
          const std::vector<LevelImage> got = dist_images(g, options, rng, p);
          ASSERT_EQ(got.size(), expected.size()) << where;
          for (std::size_t l = 0; l < got.size(); ++l) {
            EXPECT_EQ(got[l].weights, expected[l].weights)
                << where << " level " << l;
            EXPECT_EQ(got[l].rows, expected[l].rows) << where << " level " << l;
            EXPECT_EQ(got[l].to_coarse, expected[l].to_coarse)
                << where << " level " << l;
          }
        }
      }
    }
  }
}

// --------------------------------------------- §3.3 gap graph, SPMD ----

/// The level 0 -> 1 contraction map of an SPMD hierarchy build on \p p
/// ranks, by global fine id, and the matching counters summed over the
/// ranks.
struct FirstContraction {
  std::vector<NodeID> coarse_of;
  std::uint64_t local_pairs = 0;
  std::uint64_t gap_pairs = 0;
};

FirstContraction first_contraction(const StaticGraph& g,
                                   const CoarseningOptions& options, int p) {
  FirstContraction result;
  result.coarse_of.assign(g.num_nodes(), kInvalidNode);
  PERuntime runtime(p, 1);
  const std::vector<RankCounters> per_rank = runtime.run([&](PEContext& pe) {
    const DistHierarchy hierarchy(g, options, Rng(9), pe);
    ASSERT_GE(hierarchy.num_levels(), 2u);
    const DistLevel& level = hierarchy.level(0);
    for (NodeID lu = 0; lu < level.shard.num_owned(); ++lu) {
      result.coarse_of[level.shard.global_of(lu)] = level.owned_to_coarse[lu];
    }
  });
  for (const RankCounters& counters : per_rank) {
    result.local_pairs += counters.matching.local_pairs;
    result.gap_pairs += counters.matching.gap_pairs;
  }
  return result;
}

/// The path 0 - 1 - 2 - 3 with the given edge weights, sharded {0, 1},
/// {2, 3} by the BFS-order fallback (the BFS from node 0 walks the path
/// in numbering order); heaviest-edge matching, one level.
StaticGraph weighted_path(EdgeWeight w01, EdgeWeight w12, EdgeWeight w23) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, w01);
  builder.add_edge(1, 2, w12);
  builder.add_edge(2, 3, w23);
  return builder.finalize();
}

CoarseningOptions path_options() {
  CoarseningOptions options;
  options.rating = EdgeRating::kWeight;
  options.matcher = MatcherAlgo::kGreedy;
  options.contraction_limit = 3;
  options.matching_pes = 2;
  return options;
}

TEST(SpmdGapGraph, DominantCrossingEdgeIsMatched) {
  // p = 1 holds both shards (an edge between two shards of one rank),
  // p = 2 one each (the edge spans ranks): either way the heavy crossing
  // edge beats both tentative local matches and dissolves them.
  const StaticGraph g = weighted_path(1, 50, 1);
  for (const int p : {1, 2}) {
    const FirstContraction c = first_contraction(g, path_options(), p);
    EXPECT_EQ(c.coarse_of[1], c.coarse_of[2]) << "p=" << p;
    EXPECT_NE(c.coarse_of[0], c.coarse_of[1]) << "p=" << p;
    EXPECT_NE(c.coarse_of[3], c.coarse_of[1]) << "p=" << p;
    EXPECT_NE(c.coarse_of[0], c.coarse_of[3]) << "p=" << p;
    EXPECT_EQ(c.gap_pairs, 1u) << "p=" << p;
  }
}

TEST(SpmdGapGraph, LocalEdgesDominateAnEmptyGapGraph) {
  const StaticGraph g = weighted_path(50, 1, 50);
  for (const int p : {1, 2}) {
    const FirstContraction c = first_contraction(g, path_options(), p);
    EXPECT_EQ(c.coarse_of[0], c.coarse_of[1]) << "p=" << p;
    EXPECT_EQ(c.coarse_of[2], c.coarse_of[3]) << "p=" << p;
    EXPECT_NE(c.coarse_of[0], c.coarse_of[2]) << "p=" << p;
    EXPECT_EQ(c.gap_pairs, 0u) << "p=" << p;
  }
}

TEST(SpmdGapGraph, FirstContractionIsAValidMatchingForEveryP) {
  Rng rng(5);
  const StaticGraph g = random_geometric_graph(2000, rng);
  for (const BlockID shards : {2u, 4u, 8u}) {
    CoarseningOptions options;
    options.matching_pes = shards;
    const FirstContraction p1 = first_contraction(g, options, 1);
    const FirstContraction p3 = first_contraction(g, options, 3);
    EXPECT_EQ(p3.coarse_of, p1.coarse_of) << shards << " shards";
    EXPECT_GT(p1.local_pairs, 0u) << shards << " shards";

    // Every coarse node has one or two fine nodes, and a pair is adjacent.
    std::map<NodeID, std::vector<NodeID>> members;
    for (NodeID u = 0; u < g.num_nodes(); ++u) {
      ASSERT_NE(p1.coarse_of[u], kInvalidNode);
      members[p1.coarse_of[u]].push_back(u);
    }
    for (const auto& [c, fine] : members) {
      ASSERT_LE(fine.size(), 2u) << "coarse node " << c;
      if (fine.size() < 2) continue;
      const auto nbrs = g.neighbors(fine[0]);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), fine[1]), nbrs.end())
          << "pair " << fine[0] << ", " << fine[1] << " is not an edge";
    }
  }
}

}  // namespace
}  // namespace kappa
