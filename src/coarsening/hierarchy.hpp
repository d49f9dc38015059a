/// \file hierarchy.hpp
/// \brief The multilevel contraction hierarchy (§2, §3).
///
/// Repeatedly rate edges, compute a matching, contract it — until the
/// graph is "small enough" for initial partitioning: the paper stops when
/// the node count per PE drops below max(20, n/(alpha k^2)); with k PEs
/// this is the global threshold k * max(20, n/(alpha k^2)) used here
/// (Table 2 fixes alpha = 60).
#pragma once

#include <limits>
#include <vector>

#include "graph/contraction.hpp"
#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "matching/matchers.hpp"
#include "matching/parallel_match.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kappa {

/// Knobs of the contraction phase.
struct CoarseningOptions {
  EdgeRating rating = EdgeRating::kExpansionStar2;
  MatcherAlgo matcher = MatcherAlgo::kGPA;
  /// Contraction stops once the coarse graph has at most this many nodes.
  NodeID contraction_limit = 160;
  /// The shard count of §3.3's two-phase matching: a preliminary
  /// partition (coarsening/prepartition.hpp) splits the finest graph into
  /// this many shards, each matched locally before the gap graph settles
  /// the edges between them; every coarse node inherits the shard of its
  /// lower-id endpoint. Both pipelines set it to k, the paper's one PE
  /// per block; the SPMD hierarchy deals the shards out over the
  /// runtime's ranks. 0 or 1 matches the whole graph sequentially
  /// (initial bisection, baselines).
  BlockID matching_pes = 0;
  /// Safety net: stop when a level shrinks by less than this factor
  /// (pathological graphs where hardly anything can be matched).
  double min_shrink_factor = 0.05;
  /// Matched pairs may weigh at most this fraction of c(V)/contraction_limit
  /// (keeps coarse node weights uniform enough for a feasible initial
  /// partition).
  double max_pair_weight_factor = 1.5;
  /// Additional absolute cap on the pair weight (defaults to no cap).
  /// Warm-started (repartitioning) coarsening caps pairs by the balance
  /// slack: with the block constraint the matchers coarsen deep *inside*
  /// blocks, and a coarse node heavier than the slack could never
  /// migrate during rebalancing without breaking the Lmax bound — the
  /// cap keeps every coarse node movable. The effective bound still
  /// never drops below twice the max input node weight.
  NodeWeight max_pair_weight_cap = std::numeric_limits<NodeWeight>::max();
  /// Warm start (repartitioning): pairs whose endpoints lie in different
  /// blocks of this finest-level assignment are never contracted, so the
  /// assignment projects exactly onto every level of the hierarchy.
  /// nullptr = from-scratch coarsening. Borrowed; must outlive the build.
  const Partition* warm_start = nullptr;
};

/// The full hierarchy: level 0 is the input graph (referenced, not owned),
/// levels 1..L are owned coarse graphs. map(l) sends nodes of level l to
/// nodes of level l+1.
class Hierarchy {
 public:
  Hierarchy(const StaticGraph& finest) : finest_(&finest) {}

  /// Number of levels including the finest input level.
  [[nodiscard]] std::size_t num_levels() const {
    return coarse_graphs_.size() + 1;
  }

  /// Graph at a level; 0 = input, num_levels()-1 = coarsest.
  [[nodiscard]] const StaticGraph& graph(std::size_t level) const {
    return level == 0 ? *finest_ : coarse_graphs_[level - 1];
  }

  /// The coarsest graph.
  [[nodiscard]] const StaticGraph& coarsest() const {
    return graph(num_levels() - 1);
  }

  /// Mapping from nodes of \p level to nodes of level+1.
  [[nodiscard]] const std::vector<NodeID>& map(std::size_t level) const {
    return maps_[level];
  }

  /// Appends one contraction step (used by the builder).
  void push_level(StaticGraph coarse, std::vector<NodeID> fine_to_coarse) {
    coarse_graphs_.push_back(std::move(coarse));
    maps_.push_back(std::move(fine_to_coarse));
  }

 private:
  const StaticGraph* finest_;
  std::vector<StaticGraph> coarse_graphs_;
  std::vector<std::vector<NodeID>> maps_;
};

/// Matching knobs shared by every level of one hierarchy build: the
/// rating plus the max-pair-weight bound derived from the *input* graph
/// (so it is identical on every level and every PE). The per-level block
/// constraint (warm starts) is set by the level loop. One body for the
/// sequential builder and the distributed hierarchy store.
[[nodiscard]] MatchingOptions hierarchy_match_options(
    const StaticGraph& graph, const CoarseningOptions& options);

/// Builds the hierarchy by iterated match-and-contract in one address
/// space, one RNG fork of \p rng per level, until the contraction-limit,
/// zero-matching or minimum-shrink stop rule fires. With
/// options.matching_pes > 1 it coarsens by DistHierarchy's rules (one
/// finest-level prepartition carried down, parallel_matching, sharded
/// contract()) and so, given the same \p rng, builds the store's level
/// graphs and contraction maps at every p.
[[nodiscard]] Hierarchy build_hierarchy(const StaticGraph& graph,
                                        const CoarseningOptions& options,
                                        Rng& rng);

/// Table 2's alpha of the contraction stop rule ("stop contraction
/// n/60k^2"), the same in every preset.
inline constexpr double kContractionStopAlpha = 60.0;

/// The paper's stop threshold: k * max(20, n / (alpha k^2)) nodes
/// (per-PE threshold max(20, n/(alpha k^2)) times k PEs).
[[nodiscard]] NodeID contraction_stop_threshold(NodeID n, BlockID k,
                                                double alpha);

}  // namespace kappa
