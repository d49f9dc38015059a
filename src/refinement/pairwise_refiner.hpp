/// \file pairwise_refiner.hpp
/// \brief Parallel pairwise refinement scheduled by edge colorings (§5).
///
/// The driving loop of KaPPa's refinement: at any time each PE works on
/// one pair of neighboring blocks, running two-way FM restricted to the
/// boundary band. Pairs are scheduled color class by color class of an
/// edge coloring of the quotient graph, so the pairs of one class are
/// independent. pairwise_refine() runs them one after another in one
/// process; the SPMD refiner (parallel/spmd_phases.hpp) runs each on the
/// PE that owns one of its two blocks, chosen per class to balance the
/// PEs' boundary load, with the same seeds. The nested loop
/// structure (innermost FM, local iterations, global iterations over all
/// colors) and its termination rules ("no improvement" / "no improvement
/// twice in a row" / iteration caps) follow §5 and Table 2.
///
/// refine_pair() is the top of the pair kernel: a template over a pair
/// model (refinement/pair_model.hpp). pairwise_refine() runs it on a
/// StaticGraph; the SPMD executor runs every pair on the rows it gathers
/// for it, from its resident store and from the partner's shipped band.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/partition.hpp"
#include "graph/static_graph.hpp"
#include "refinement/band.hpp"
#include "refinement/pair_model.hpp"
#include "refinement/twoway_fm.hpp"
#include "util/random.hpp"
#include "util/stamp_set.hpp"
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
};

/// Aggregate outcome of a refinement run.
struct PairwiseRefineReport {
  EdgeWeight total_cut_gain = 0;
  int global_iterations = 0;
};

/// Outcome of refining one scheduled block pair.
struct PairRefineResult {
  EdgeWeight cut_gain = 0;
  NodeWeight imbalance_gain = 0;
  /// Nodes whose block changed (model ids), with their final block, in
  /// the order they first entered a band — the moved-node deltas a PE
  /// exchanges with the others after a color class (§5.2).
  std::vector<std::pair<NodeID, BlockID>> moves;
};

namespace detail {

/// Runs one FM search on the pair, optionally duplicated with a second
/// seed — the better of the two outcomes is adopted.
template <typename Model>
TwoWayFMResult search_pair(Model& model, BlockID a, BlockID b,
                           std::span<const NodeID> band,
                           const PairwiseRefinerOptions& options, Rng rng_a,
                           Rng rng_b) {
  if (!options.duplicate_search) {
    return twoway_fm(model, a, b, band, options.fm, rng_a);
  }

  // Snapshot the pair state (band assignments suffice: FM only moves band
  // nodes between a and b).
  auto snapshot = [&] {
    std::vector<BlockID> blocks(band.size());
    for (std::size_t i = 0; i < band.size(); ++i) {
      blocks[i] = model.block(band[i]);
    }
    return blocks;
  };
  auto restore = [&](const std::vector<BlockID>& blocks) {
    for (std::size_t i = 0; i < band.size(); ++i) {
      if (model.block(band[i]) != blocks[i]) model.move(band[i], blocks[i]);
    }
  };

  const std::vector<BlockID> before = snapshot();
  const TwoWayFMResult result_a =
      twoway_fm(model, a, b, band, options.fm, rng_a);
  const std::vector<BlockID> after_a = snapshot();

  restore(before);
  const TwoWayFMResult result_b =
      twoway_fm(model, a, b, band, options.fm, rng_b);

  // Lexicographic comparison: prefer the larger imbalance gain, then the
  // larger cut gain ("the better partitioning of the two blocks is
  // adopted").
  const bool a_wins =
      result_a.imbalance_gain != result_b.imbalance_gain
          ? result_a.imbalance_gain > result_b.imbalance_gain
          : result_a.cut_gain > result_b.cut_gain;
  if (a_wins) {
    restore(after_a);
    return result_a;
  }
  return result_b;
}

}  // namespace detail

/// Refines one scheduled pair {a, b} of \p model: band BFS from
/// \p boundary_seeds, then the configured local FM iterations (optionally
/// duplicated). Search streams are forked from \p rng with
/// \p seed_tag-derived tags, so equal tags reproduce equal searches
/// regardless of the caller's schedule — this is what keeps the SPMD
/// refiner's outcome independent of which PE executes the pair. Every
/// band, and with it every move, stays inside the nodes the model lets
/// move. Move tracking stamps each band node's entry block in an
/// id-indexed array; callers that do not exchange deltas pass
/// \p collect_moves = false to skip it.
template <typename Model>
PairRefineResult refine_pair(Model& model, BlockID a, BlockID b,
                             std::span<const NodeID> boundary_seeds,
                             const PairwiseRefinerOptions& options,
                             const Rng& rng, std::uint64_t seed_tag,
                             bool collect_moves = true) {
  PairRefineResult result;

  // Entry block of every node that ever enters a band; FM only moves band
  // nodes, so the union of bands covers all moves. Moves are emitted in
  // first-entry order.
  thread_local StampSet entered;
  thread_local std::vector<BlockID> entry_block;
  std::vector<NodeID> entry_order;
  if (collect_moves) {
    entered.clear(model.id_space());
    if (entry_block.size() < model.id_space()) {
      entry_block.resize(model.id_space());
    }
  }
  auto record_band = [&](const std::vector<NodeID>& nodes) {
    if (!collect_moves) return;
    for (const NodeID u : nodes) {
      if (entered.insert(u)) {
        entry_block[u] = model.block(u);
        entry_order.push_back(u);
      }
    }
  };

  // One stream per pair (odd tags, disjoint from the coloring stream),
  // then one fork per local search: no two work units share a stream.
  const Rng pair_rng = rng.fork(2 * seed_tag + 1);

  std::vector<NodeID> band = boundary_band_from_seeds(
      model, a, b, boundary_seeds, options.bfs_depth);
  record_band(band);
  for (int local = 0; local < options.local_iterations; ++local) {
    if (band.empty()) break;
    Rng rng_a = pair_rng.fork(2 * static_cast<std::uint64_t>(local));
    Rng rng_b = pair_rng.fork(2 * static_cast<std::uint64_t>(local) + 1);
    const TwoWayFMResult fm =
        detail::search_pair(model, a, b, band, options, rng_a, rng_b);
    result.cut_gain += fm.cut_gain;
    result.imbalance_gain += fm.imbalance_gain;
    if (fm.moved_nodes == 0) break;  // converged for this pair
    if (local + 1 < options.local_iterations) {
      const std::vector<NodeID> boundary =
          refresh_boundary(model, a, b, band);
      band = boundary_band_from_seeds(model, a, b, boundary,
                                      options.bfs_depth);
      record_band(band);
    }
  }
  for (const NodeID u : entry_order) {
    if (model.block(u) != entry_block[u]) {
      result.moves.emplace_back(u, model.block(u));
    }
  }
  return result;
}

/// refine_pair() on a StaticGraph and its Partition.
PairRefineResult refine_pair(const StaticGraph& graph, Partition& partition,
                             BlockID a, BlockID b,
                             const std::vector<NodeID>& boundary_seeds,
                             const PairwiseRefinerOptions& options,
                             const Rng& rng, std::uint64_t seed_tag,
                             bool collect_moves = true);

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
