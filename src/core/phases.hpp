/// \file phases.hpp
/// \brief The sequential multilevel pipeline, plus the phase knobs the
/// SPMD pipeline shares with it.
///
/// The KaPPa pipeline is the composition of three phases (§2):
/// contraction (build_hierarchy), initial partitioning
/// (initial_partition), and uncoarsening with pairwise refinement
/// (pairwise_refine per level, then the rebalancing insurance loop).
/// run_multilevel() calls them in that order and owns projection between
/// levels, the phase timers and the final quality metrics. The SPMD
/// pipeline's driver, run_multilevel_spmd() (parallel/spmd_phases.hpp),
/// calls their distributed counterparts in the same order with the same
/// RNG forks. Both drivers take the repartitioning input as \p warm: it
/// switches coarsening to the block-respecting policy and replaces initial
/// partitioning by the input projected onto the coarsest level. The
/// Config -> options translation below is shared, so both pipelines
/// refine with identical knobs.
#pragma once

#include "coarsening/hierarchy.hpp"
#include "core/config.hpp"
#include "core/partitioner.hpp"
#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/pairwise_refiner.hpp"
#include "util/random.hpp"

namespace kappa {

/// Contraction knobs for \p graph under \p config: Table 2's stop
/// threshold at kContractionStopAlpha, and k matching shards, the paper's
/// one PE per block. A non-null \p warm (repartitioning) restricts
/// contraction to intra-block pairs of that assignment and caps pair
/// weights by repartition_pair_weight_cap().
[[nodiscard]] CoarseningOptions coarsening_options(
    const StaticGraph& graph, const Config& config,
    const Partition* warm = nullptr);

/// Pair-weight cap of warm-started (repartitioning) coarsening: the
/// balance slack Lmax - ceil(c(V)/k). The block-constrained matchers
/// coarsen deep inside blocks; capping pairs at the slack keeps every
/// coarse node light enough to migrate during rebalancing without
/// breaking the Lmax bound (floored at twice the max input node weight
/// inside hierarchy_match_options()).
[[nodiscard]] NodeWeight repartition_pair_weight_cap(const StaticGraph& graph,
                                                     const Config& config);

/// Refinement knobs for one hierarchy level. \p global_bound is the
/// input-level Lmax (coarse levels refine against the final bound, lifted
/// to at least one max-weight node of the level, passed as
/// \p level_max_node_weight — a replicated scalar even when the level
/// itself is sharded).
[[nodiscard]] PairwiseRefinerOptions level_refine_options(
    const Config& config, NodeWeight global_bound,
    NodeWeight level_max_node_weight);

/// Knobs of one rebalancing insurance attempt (escalating band depth,
/// MaxLoad queue selection, late attempts target the eps = 0 bound).
[[nodiscard]] PairwiseRefinerOptions rebalance_options(
    const Config& config, const StaticGraph& graph, NodeWeight global_bound,
    int attempt);

/// Number of rebalancing attempts granted after the last level.
inline constexpr int kMaxRebalanceAttempts = 24;

/// The sequential pipeline's post-uncoarsening rebalancing insurance
/// loop: MaxLoad-driven iterations with escalating band depth (the §5.2
/// exception rule) until the Lmax bound holds or attempts run out.
/// SpmdRefiner::rebalance() runs the same loop shape and RNG forks on the
/// distributed finest-level store.
void rebalance_until_feasible(const StaticGraph& graph, Partition& partition,
                              const Config& config, NodeWeight global_bound,
                              const Rng& refine_rng);

/// Runs the sequential multilevel pipeline: from scratch, or warm-started
/// from \p warm (the repartitioning input; borrowed, k = config.k).
[[nodiscard]] PartitionResult run_multilevel(const StaticGraph& graph,
                                             const Config& config,
                                             const Partition* warm = nullptr);

}  // namespace kappa
