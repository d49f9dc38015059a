/// \file pairwise_refiner.hpp
/// \brief Parallel pairwise refinement scheduled by edge colorings (§5).
///
/// The driving loop of KaPPa's refinement: at any time each PE works on
/// one pair of neighboring blocks, running two-way FM restricted to the
/// boundary band. Pairs are scheduled color class by color class of an
/// edge coloring of the quotient graph, so the pairs of one class are
/// independent. pairwise_refine() runs them one after another in one
/// process; the SPMD refiner (parallel/spmd_phases.hpp) runs each on the
/// PE that owns its first block, with the same seeds. The nested loop
/// structure (innermost FM, local iterations, global iterations over all
/// colors) and its termination rules ("no improvement" / "no improvement
/// twice in a row" / iteration caps) follow §5 and Table 2.
#pragma once

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/twoway_fm.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace kappa {

/// Knobs of the refinement phase (Table 2 rows).
struct PairwiseRefinerOptions {
  TwoWayFMOptions fm;
  /// Depth of the bounded boundary BFS (Table 2: 1 / 5 / 20).
  int bfs_depth = 5;
  /// Local search repetitions per scheduled pair (Table 2: 1 / 3 / 5).
  int local_iterations = 3;
  /// Cap on global iterations over the quotient edge coloring
  /// (Table 2: 1 / 15 / 15).
  int max_global_iterations = 15;
  /// Stop when this many consecutive global iterations brought no
  /// improvement (fast: 1, strong: 2; ignored by the minimal preset whose
  /// iteration cap is 1 anyway).
  int stop_no_change = 1;
  /// Both PEs of a matched pair search with different seeds and the better
  /// result is adopted (§5: "both corresponding PEs will refine the
  /// partitions u and v using different seeds ... the better partitioning
  /// of the two blocks is adopted").
  bool duplicate_search = false;
  /// After the FM local iterations on a pair, run one min-cut pass on the
  /// band (flow_refiner.hpp) — the §8 future-work refinement. The flow
  /// move is only adopted when it strictly improves the pair cut without
  /// increasing overload.
  bool use_flow = false;
};

/// Aggregate outcome of a refinement run.
struct PairwiseRefineReport {
  EdgeWeight total_cut_gain = 0;
  NodeWeight total_imbalance_gain = 0;
  int global_iterations = 0;
  int colors_last_iteration = 0;
};

/// Outcome of refining one scheduled block pair.
struct PairRefineResult {
  EdgeWeight cut_gain = 0;
  NodeWeight imbalance_gain = 0;
  /// Nodes whose block changed, with their final block — the moved-node
  /// deltas a PE exchanges with the others after a color class (§5.2).
  std::vector<std::pair<NodeID, BlockID>> moves;
};

/// Refines one scheduled pair {a, b}: band BFS from \p boundary_seeds,
/// then the configured local FM iterations (optionally duplicated, with
/// the optional flow pass). Search streams are forked from \p rng with
/// \p seed_tag-derived tags, so equal tags reproduce equal searches
/// regardless of the caller's schedule — this is what keeps the SPMD
/// refiner's outcome independent of which PE executes the pair.
/// Move tracking costs a hash-map insert per band node; callers that do
/// not exchange deltas pass \p collect_moves = false to skip it.
/// \p movable (optional, indexed by node id) confines every band — and
/// with it every move — to the marked nodes: this is how a band-limited
/// pair view freezes its shipped fringe while keeping gains exact.
PairRefineResult refine_pair(const StaticGraph& graph, Partition& partition,
                             BlockID a, BlockID b,
                             const std::vector<NodeID>& boundary_seeds,
                             const PairwiseRefinerOptions& options,
                             const Rng& rng, std::uint64_t seed_tag,
                             bool collect_moves = true,
                             const std::vector<char>* movable = nullptr);

/// Seed tag of one scheduled pair within one global iteration. Shared by
/// pairwise_refine() and the SPMD refiner so both drivers run the exact
/// same searches for the same schedule. refine_pair() forks the pair's
/// stream from 2*tag + 1 (odd), keeping it disjoint from the (even)
/// coloring tags below; per-local-iteration streams are then forked from
/// the pair stream, so distinct work units never share a stream.
[[nodiscard]] inline std::uint64_t pair_seed_tag(
    int global_iteration, std::size_t quotient_edge_index) {
  return static_cast<std::uint64_t>(global_iteration) * 1000003 +
         static_cast<std::uint64_t>(quotient_edge_index);
}

/// Fork tag of the per-global-iteration coloring stream (shared likewise;
/// even, see pair_seed_tag).
[[nodiscard]] inline std::uint64_t coloring_fork_tag(int global_iteration) {
  return 2 * static_cast<std::uint64_t>(global_iteration);
}

/// Refines \p partition in place. Never worsens the lexicographic
/// (imbalance, cut) objective of any pair, hence never the global cut at
/// fixed balance.
PairwiseRefineReport pairwise_refine(const StaticGraph& graph,
                                     Partition& partition,
                                     const PairwiseRefinerOptions& options,
                                     Rng& rng);

}  // namespace kappa
