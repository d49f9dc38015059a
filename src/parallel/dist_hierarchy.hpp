/// \file dist_hierarchy.hpp
/// \brief The distributed multilevel hierarchy store: every coarsening
/// level exists only as per-PE shards — there is no level replica.
///
/// The paper's SPMD design (§3–§4) gives each PE only its share of every
/// level of the contraction hierarchy. This subsystem realizes that:
///
///   DistLevel     — one rank's resident share of one level: the
///     owned+ghost ShardGraph (§3.3), whose owned rows are the level's
///     only arc data (shard boundaries are read off them), the owned
///     local ids of each of the rank's shards, and the sharded
///     contraction map to the next level. The only replicated per-level
///     state is the ownership map — O(num_shards) coarse-id ranges for
///     coarse levels (coarse ids are contiguous per shard), and the
///     prepartition vector for the finest level.
///
///   DistHierarchy — the level stack plus the protocols that keep it
///     shard-owned end to end:
///       * matching runs on the resident CSR (local per shard, gap
///         resolution over peer channels, taken-flags delivered point-
///         to-point to the ranks that hold an endpoint — never gathered),
///       * contraction is owner-computes: coarse node ids are assigned
///         by the shard of the pair's canonical (smaller-global-id)
///         endpoint; the halo exchange ships boundary match decisions,
///         ghost coarse ids and the coarse-edge contributions of
///         cross-rank pairs; the coarse ghost layer is refreshed over
///         channels exactly like a fine level's,
///       * uncoarsening projects assignments level by level through the
///         sharded maps (each rank projects its owned nodes, the
///         replicated partition state is reassembled from the per-rank
///         pieces),
///       * the coarsest level alone may be gathered — once, for initial
///         partitioning, as the paper does.
///
/// Determinism: coarse ids, shard ownership and all candidate orders are
/// pure functions of global ids and shard structure — never of the
/// physical PE count p — so a fixed seed yields the identical partition
/// for every p. Per-rank resident hierarchy memory is
/// Σ_levels (n_level / p + halo) instead of the replicated Σ_levels
/// n_level (measured in EXPERIMENTS.md, asserted in shard_graph_test).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coarsening/hierarchy.hpp"
#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "parallel/pe_runtime.hpp"
#include "parallel/shard_graph.hpp"
#include "util/random.hpp"

namespace kappa {

class DistPartition;

/// One rank's resident share of one hierarchy level.
struct DistLevel {
  // --- replicated level metadata (O(num_shards) for coarse levels) ---
  NodeID global_n = 0;             ///< level node count
  NodeWeight max_node_weight = 0;  ///< global max (all-reduced at build)
  BlockID num_shards = 1;          ///< virtual shards (fixed per build)
  /// Coarse levels: shard s owns the contiguous coarse-id range
  /// [shard_begin[s], shard_begin[s + 1]). Empty for the finest level.
  std::vector<NodeID> shard_begin;
  /// Finest level only: the prepartition's node -> shard map.
  std::vector<BlockID> node_to_shard;

  // --- resident data of this rank ---
  ShardGraph shard;                   ///< owned + ghost local CSR
  std::vector<BlockID> my_shard_ids;  ///< ascending; s ≡ rank (mod p)
  /// Parallel to my_shard_ids: the shard's owned local ids, ascending (a
  /// run of row positions at coarse levels).
  std::vector<std::vector<NodeID>> shard_locals;
  std::vector<char> peer;             ///< per rank: shares a halo with me
  /// Owner rank of every ghost, by ghost index (local id - num_owned).
  std::vector<int> ghost_owner;
  /// Warm-started builds: the block of every resident node (local ids,
  /// owned then ghost) — the constraint the matchers filter on.
  std::vector<BlockID> warm_blocks;
  /// Sharded contraction map: owned local id -> coarse global id of the
  /// next level. Filled when the next level is built.
  std::vector<NodeID> owned_to_coarse;

  /// Home shard of a global node id of this level.
  [[nodiscard]] BlockID shard_of(NodeID global) const;

  /// Physical owner rank of a global node id.
  [[nodiscard]] int owner_of_node(NodeID global, int num_pes) const {
    return round_robin_owner(shard_of(global), num_pes);
  }

  /// Physical owner rank of a resident node (this level's \p rank for
  /// owned nodes) — an array read, no id lookup.
  [[nodiscard]] int owner_of_local(NodeID local, int rank) const {
    return shard.is_owned(local) ? rank
                                 : ghost_owner[local - shard.num_owned()];
  }

  /// Visits every node of the level as \p visit(owner rank, global id),
  /// each rank's owned nodes in ascending global-id order — derivable
  /// from the replicated ownership map alone, which is how a gather's
  /// per-rank contributions are reassembled without any id lists on the
  /// wire (decode_owned_blocks()).
  template <typename Visitor>
  void for_each_owned(int num_pes, Visitor&& visit) const {
    if (!node_to_shard.empty()) {
      for (NodeID u = 0; u < node_to_shard.size(); ++u) {
        visit(round_robin_owner(node_to_shard[u], num_pes), u);
      }
      return;
    }
    for (BlockID s = 0; s + 1 < shard_begin.size(); ++s) {
      const int q = round_robin_owner(s, num_pes);
      for (NodeID u = shard_begin[s]; u < shard_begin[s + 1]; ++u) visit(q, u);
    }
  }

  /// Resident size of this level on this rank.
  [[nodiscard]] ShardFootprint footprint() const { return shard.footprint(); }
};

/// The distributed hierarchy: level 0 references the (always-resident)
/// input graph; every level's graph data lives only in per-PE shards.
class DistHierarchy {
 public:
  /// Builds the full hierarchy SPMD: every PE of \p pe's runtime calls
  /// this with identical arguments; the build synchronizes internally.
  /// \p options.warm_start (if set) restricts matching to intra-block
  /// pairs via the matchers' block constraint. The build counts its
  /// matching shape and resident footprints into \p pe's record: the
  /// peak single level (the gathered coarsest counts its remote share as
  /// ghosts) and the whole store, Σ_levels (n_level / p + halo).
  DistHierarchy(const StaticGraph& finest, const CoarseningOptions& options,
                const Rng& rng, PEContext& pe);

  /// Number of levels including the finest input level.
  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }

  [[nodiscard]] const DistLevel& level(std::size_t l) const {
    return levels_[l];
  }

  [[nodiscard]] const StaticGraph& finest() const { return *finest_; }

  /// Node count of a level.
  [[nodiscard]] NodeID level_nodes(std::size_t l) const {
    return levels_[l].global_n;
  }

  /// Global maximum node weight of a level (for the refiner's per-level
  /// balance bound).
  [[nodiscard]] NodeWeight level_max_node_weight(std::size_t l) const {
    return levels_[l].max_node_weight;
  }

  /// The coarsest graph for initial partitioning. For a multi-level
  /// hierarchy this gathers the coarsest level's shards — once, cached;
  /// the paper gathers the coarsest graph the same way because initial
  /// partitioning needs the whole (tiny) graph on every PE.
  [[nodiscard]] const StaticGraph& coarsest();

  /// Warm-started builds: the coarsest-level block assignment, projected
  /// down the sharded hierarchy (each rank walks its own ownership chain;
  /// only the O(coarsest) result is gathered). run_multilevel_spmd() seeds
  /// the coarsest partition with it in place of initial partitioning.
  [[nodiscard]] std::vector<BlockID> coarsest_warm_assignment() const;

  /// Seeds the sharded partition state of the coarsest level from the
  /// replicated partition the initial phase produced on the gathered
  /// coarsest graph. No communication.
  [[nodiscard]] DistPartition lift(const Partition& coarsest_partition) const;

  /// Uncoarsening: projects the sharded \p coarse partition of level
  /// \p l + 1 onto level \p l through the sharded contraction maps. Each
  /// rank projects its owned nodes shard-locally, fetching the few
  /// cross-rank coarse ids point-to-point; block weights stay an O(k)
  /// all-reduce. No O(n_l) block-id gather anywhere.
  [[nodiscard]] DistPartition project(std::size_t l,
                                      const DistPartition& coarse) const;

  /// Materializes the full replicated finest-level partition from the
  /// sharded state — the one permitted block-id gather, used exactly once
  /// for the final PartitionResult.
  [[nodiscard]] Partition materialize(const DistPartition& partition) const;

  /// The §5.2 data-distribution step of one uncoarsening level: the rows
  /// of level \p l travel from their shard owners to the owners of their
  /// nodes' current blocks, each row accompanied by its block (no rank
  /// holds the full assignment). Level 0 extracts row content from the
  /// resident input graph — only (id, block) pairs cross the wire.
  [[nodiscard]] BlockRowShard distribute_block_rows(
      std::size_t l, const DistPartition& partition, BlockID k) const;

 private:
  /// One SPMD matching round on a resident level: local matching per
  /// owned shard, boundary-rating exchange, gap resolution with peer-wise
  /// taken notification. Returns the resident partner vector (local ids;
  /// gap pairs are known at both end owners).
  [[nodiscard]] std::vector<NodeID> match_level(
      const DistLevel& level, const MatchingOptions& match_options,
      MatcherAlgo matcher, const Rng& level_rng);

  /// Owner-computes contraction of \p fine under \p partner: assigns
  /// coarse ids by canonical-endpoint shard, exchanges boundary match
  /// decisions / ghost coarse ids / cross-rank pair contributions over
  /// the halo, and seals the next level's ShardGraph. Fills
  /// \p fine.owned_to_coarse.
  [[nodiscard]] DistLevel contract_level(DistLevel& fine,
                                         const std::vector<NodeID>& partner);

  /// Builds the finest DistLevel from the input graph's prepartition.
  [[nodiscard]] DistLevel build_finest_level(const CoarseningOptions& options);

  /// Records a freshly built level in the PE's record (peak single
  /// structure and resident hierarchy sum).
  void account_level(const DistLevel& level);

  /// Values of all shards, assembled from each owner's contributions with
  /// ceil(num_shards / p) scalar all-gathers — no vector collective.
  [[nodiscard]] std::vector<std::uint64_t> gather_per_shard(
      BlockID num_shards, const std::vector<std::uint64_t>& mine) const;

  const StaticGraph* finest_;
  PEContext& pe_;
  std::vector<DistLevel> levels_;
  std::optional<StaticGraph> coarsest_replica_;  ///< gathered once
  bool warm_ = false;
  BlockID warm_k_ = 0;  ///< warm-started builds: the warm start's k
  Rng rng_;
};

}  // namespace kappa
