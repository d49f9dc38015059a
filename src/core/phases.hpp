/// \file phases.hpp
/// \brief The sequential multilevel pipeline: its phases and driver, plus
/// the phase pieces the SPMD pipeline shares with it.
///
/// The KaPPa pipeline is the composition of three phases — contraction,
/// initial partitioning, uncoarsening with refinement (§2):
///
///   SequentialCoarsener builds the contraction hierarchy,
///   InitialPartitioner  partitions the coarsest graph,
///   SequentialRefiner   improves one level during uncoarsening and
///                       restores feasibility at the finest level.
///
/// run_multilevel() wires them together: it owns projection between
/// levels, the phase timers and the final quality metrics. The SPMD
/// pipeline has its own driver, run_multilevel_spmd(), over the Spmd*
/// phases of parallel/spmd_phases.hpp. The two share the
/// InitialPartitioner interface — whose warm-start implementation serves
/// both, and whose SPMD implementation runs on PEs — and the Config ->
/// options translation below. Repartitioning swaps in the
/// WarmStartInitialPartitioner and the warm-start coarsening policy,
/// reusing everything else.
#pragma once

#include "coarsening/hierarchy.hpp"
#include "core/config.hpp"
#include "core/partitioner.hpp"
#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "initial/initial_partitioner.hpp"
#include "refinement/pairwise_refiner.hpp"
#include "util/random.hpp"

namespace kappa {

class DistHierarchy;

/// Initial partitioning phase (§4): coarsest graph -> k-way partition.
class InitialPartitioner {
 public:
  virtual ~InitialPartitioner() = default;

  /// Driver hook, called once after coarsening and before partition():
  /// lets warm-start implementations project an existing assignment
  /// through the hierarchy. From-scratch implementations ignore it.
  virtual void observe_hierarchy(const Hierarchy& /*hierarchy*/) {}

  /// Same hook for the SPMD driver's distributed hierarchy store — the
  /// warm-start projection reads the sharded maps instead of a replica.
  virtual void observe_hierarchy(const DistHierarchy& /*hierarchy*/) {}

  [[nodiscard]] virtual Partition partition(const StaticGraph& coarsest) = 0;
};

// ---------------------------------------------------------------------------
// Shared per-phase option builders. Sequential and SPMD implementations
// must refine with identical knobs for their results to be comparable, so
// the Config -> options translation lives here, not in the entry points.
// ---------------------------------------------------------------------------

/// Contraction knobs for \p graph under \p config.
[[nodiscard]] CoarseningOptions coarsening_options(const StaticGraph& graph,
                                                   const Config& config);

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

/// The sequential refiner's post-uncoarsening rebalancing insurance loop:
/// MaxLoad-driven iterations with escalating band depth (the §5.2
/// exception rule) until the Lmax bound holds or attempts run out.
/// SpmdRefiner::rebalance() runs the same loop shape and RNG forks on the
/// distributed finest-level store.
void rebalance_until_feasible(const StaticGraph& graph, Partition& partition,
                              const Config& config, NodeWeight global_bound,
                              const Rng& refine_rng);

// ---------------------------------------------------------------------------
// Sequential phase implementations (the original single-process pipeline).
// ---------------------------------------------------------------------------

/// Wraps build_hierarchy() (§3; optionally with the two-phase parallel
/// matching scheme simulated in-process when config.matching_pes > 1).
/// A non-null \p warm_start restricts contraction to intra-block pairs of
/// that assignment (the repartitioning coarsening policy).
class SequentialCoarsener {
 public:
  SequentialCoarsener(const Config& config, Rng rng,
                      const Partition* warm_start = nullptr)
      : config_(config), rng_(rng), warm_start_(warm_start) {}

  /// Builds the hierarchy whose finest level is \p graph.
  [[nodiscard]] Hierarchy coarsen(const StaticGraph& graph);

 private:
  const Config& config_;
  Rng rng_;
  const Partition* warm_start_;
};

/// Wraps initial_partition(): best of config.init_repeats attempts (§4).
class SequentialInitialPartitioner final : public InitialPartitioner {
 public:
  SequentialInitialPartitioner(const Config& config, Rng rng)
      : config_(config), rng_(rng) {}

  [[nodiscard]] Partition partition(const StaticGraph& coarsest) override;

 private:
  const Config& config_;
  Rng rng_;
};

/// Warm-start initial "partitioner" (repartitioning): seeds the coarsest
/// partition from an existing finest-level assignment projected through
/// the hierarchy. Requires a hierarchy built with the matching warm_start
/// coarsening policy, which guarantees every coarse node is pure (all of
/// its fine nodes share one block). Deterministic and communication-free,
/// so the SPMD path runs it replicated without leaving lockstep.
class WarmStartInitialPartitioner final : public InitialPartitioner {
 public:
  /// \p current is the finest-level assignment (borrowed; must outlive
  /// the run); \p k the number of blocks.
  WarmStartInitialPartitioner(const Partition& current, BlockID k)
      : current_(&current), k_(k) {}

  void observe_hierarchy(const Hierarchy& hierarchy) override;
  void observe_hierarchy(const DistHierarchy& hierarchy) override;

  [[nodiscard]] Partition partition(const StaticGraph& coarsest) override;

 private:
  const Partition* current_;
  BlockID k_;
  std::vector<BlockID> projected_;  ///< coarsest-level assignment
};

/// Wraps pairwise_refine() per level plus the rebalancing insurance loop.
class SequentialRefiner {
 public:
  /// \p finest is the input graph; it determines the global Lmax bound.
  SequentialRefiner(const StaticGraph& finest, const Config& config, Rng rng);

  /// Refines \p partition on the graph of one hierarchy \p level in place.
  /// Called once per level, coarsest first, finest (level 0) last.
  void refine(const StaticGraph& graph, Partition& partition,
              std::size_t level);

  /// Post-pass on the finest graph: the §5.2 exception rule applied until
  /// the Lmax bound holds (or attempts run out).
  void rebalance(const StaticGraph& graph, Partition& partition);

 private:
  const Config& config_;
  Rng rng_;
  NodeWeight global_bound_;
};

/// Runs the sequential multilevel pipeline, from scratch or warm-started
/// (with a WarmStartInitialPartitioner and a warm-start coarsener).
[[nodiscard]] PartitionResult run_multilevel(const StaticGraph& graph,
                                             const Config& config,
                                             SequentialCoarsener& coarsener,
                                             InitialPartitioner& initial,
                                             SequentialRefiner& refiner);

}  // namespace kappa
